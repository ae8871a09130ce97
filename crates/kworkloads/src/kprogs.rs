//! The kprog pointer-chase workload plus a small library of reusable,
//! verifier-clean KC program sources.
//!
//! The chase is the workload user-space batching fundamentally cannot
//! help with: a file of linked nodes where each node's payload names the
//! offset of the next. Batch submission amortises crossings only across
//! *independent* ops — here every read depends on the previous one, so a
//! user-space loop pays one full `ring_enter` crossing per hop no matter
//! how large its ring is. A verified CQE program moves the
//! inspect-and-resubmit decision to completion time inside the kernel:
//! the whole chain runs under a single crossing.
//!
//! Program-authoring discipline (see `kprog::verify`): the verifier forks
//! a path at every data-dependent branch, so branches are fine in
//! straight-line code but loops over unknown data must be written
//! *branchless* (use comparisons as arithmetic values). The sources here
//! follow that discipline and all verify under the default budget.

use ksim::Pid;
use kuring::Sqe;

use crate::rig::{Rig, UserProc};

/// Bytes per chase node: `[next_off: u64 LE, value: u64 LE]`.
pub const CHASE_NODE_BYTES: usize = 16;

/// The per-CQE chase program. ABI (`HookClass::UringCqe`,
/// `ctx = [user_data, res, off, len]`, `buf` = first window bytes of the
/// completed read):
///
/// * short or failed read → surface the CQE untouched (fail safe);
/// * otherwise count the hop in `state[0]`, add the node's value into
///   `state[1]`, and if `next_off` (`buf[0]`) is nonzero resubmit the
///   read there — in kernel, no crossing;
/// * at the 0 terminator, post one CQE whose `res` is the hop count.
pub const CHASE_CQE_SRC: &str = r#"
    int f(int *ctx, int *state, int *buf) {
        if (ctx[1] < 16) { return 1; }
        state[0] = state[0] + 1;
        state[1] = state[1] + buf[1];
        if (buf[0] != 0) {
            ctx[2] = buf[0];
            return 2;
        }
        ctx[1] = state[0];
        return 1;
    }
"#;

/// Syscall-entry filter making a process read-only: `write` (sysno 2) is
/// vetoed with `-EPERM`; everything else passes unchanged. `state[0]`
/// counts vetoes.
pub const READONLY_FILTER_SRC: &str = r#"
    int f(int *ctx, int *state) {
        if (ctx[0] == 2) {
            state[0] = state[0] + 1;
            return -1;
        }
        return 0;
    }
"#;

/// Entry filter that clamps `read`/`write` lengths (`ctx[3]`) to the cap
/// seeded into `state[0]` — an I/O quota without a kernel patch.
pub const CLAMP_LEN_FILTER_SRC: &str = r#"
    int f(int *ctx, int *state) {
        if (ctx[0] == 1) {
            if (ctx[3] > state[0]) { ctx[3] = state[0]; }
        }
        if (ctx[0] == 2) {
            if (ctx[3] > state[0]) { ctx[3] = state[0]; }
        }
        return 0;
    }
"#;

/// Event-dispatch aggregate: drops every record whose type code differs
/// from the one seeded into `state[0]`, and accumulates the kept records'
/// values into `state[1]` — telemetry reduced to one counter in kernel,
/// with only matching records surfacing to the ring.
pub const EVENT_AGGREGATE_SRC: &str = r#"
    int f(int *ctx, int *state) {
        if (ctx[1] != state[0]) { return 0; }
        state[1] = state[1] + ctx[2];
        return 1;
    }
"#;

/// A built chase file: its raw bytes plus the ground truth a walk must
/// reproduce.
pub struct ChaseFile {
    pub bytes: Vec<u8>,
    /// Number of nodes on the chain (== hops a full walk takes).
    pub hops: u64,
    /// Sum of every node's value along the chain.
    pub value_sum: u64,
}

/// Build `n` nodes in a seeded pseudorandom chain order. The chain starts
/// at the node stored at offset 0 and every `next_off` points at another
/// node's byte offset; the final node stores the 0 terminator (offset 0
/// holds the head, which is never a link target, so 0 is unambiguous).
pub fn build_chase_file(n: usize, seed: u64) -> ChaseFile {
    assert!(n >= 1);
    assert!(
        (n * CHASE_NODE_BYTES) as u64 <= kprog::MAX_RESUBMIT_OFF,
        "chase file must stay inside the resubmit-offset cap"
    );
    // Fisher-Yates over the non-head slots with an xorshift stream: the
    // visit order of slots 1..n.
    let mut order: Vec<usize> = (1..n).collect();
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for i in (1..order.len()).rev() {
        let j = (rng() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut bytes = vec![0u8; n * CHASE_NODE_BYTES];
    let mut value_sum = 0u64;
    // Walk head → order[0] → order[1] → … → terminator, writing each
    // node's link and value.
    let mut at = 0usize; // slot currently being linked
    for hop in 0..n {
        let next_slot = order.get(hop).copied();
        let next_off = next_slot.map_or(0, |s| (s * CHASE_NODE_BYTES) as u64);
        let value = (at as u64).wrapping_mul(0x9e37_79b9).wrapping_add(seed) & 0xffff;
        let off = at * CHASE_NODE_BYTES;
        bytes[off..off + 8].copy_from_slice(&next_off.to_le_bytes());
        bytes[off + 8..off + 16].copy_from_slice(&value.to_le_bytes());
        value_sum += value;
        if let Some(s) = next_slot {
            at = s;
        }
    }
    ChaseFile { bytes, hops: n as u64, value_sum }
}

/// Result of one chase walk, by either method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseRun {
    pub hops: u64,
    pub value_sum: u64,
}

/// Write the chase file at `path` and return its ground truth.
pub fn setup_chase(rig: &Rig, p: &UserProc, path: &str, n: usize, seed: u64) -> ChaseFile {
    use ksyscall::OpenFlags;
    let f = build_chase_file(n, seed);
    p.stage(rig, &f.bytes);
    let fd = rig.sys.sys_open(p.pid, path, OpenFlags::RDWR | OpenFlags::CREAT);
    assert!(fd >= 0);
    assert_eq!(
        rig.sys.sys_write(p.pid, fd as i32, p.buf, f.bytes.len()),
        f.bytes.len() as i64
    );
    assert_eq!(rig.sys.sys_close(p.pid, fd as i32), 0);
    f
}

fn ensure_ring(rig: &Rig, pid: Pid) {
    let r = rig.sys.sys_ring_setup(pid, 16, 16);
    assert!(r == 0 || r == -17, "ring setup: {r}");
}

/// The user-space batch-submit/drain/resubmit loop: submit one read,
/// `ring_enter`, reap, parse the node *in user space*, resubmit at the
/// parsed offset. Dependent reads defeat batching — one crossing per hop.
pub fn chase_user(rig: &Rig, p: &UserProc, fd: i32) -> ChaseRun {
    ensure_ring(rig, p.pid);
    let ring = rig.sys.uring(p.pid).expect("ring exists");
    let mut off = 0u64;
    let mut hops = 0u64;
    let mut value_sum = 0u64;
    loop {
        ring.push_sqe(Sqe::read(fd, p.buf, CHASE_NODE_BYTES as u32, off, hops))
            .expect("sq has room");
        assert_eq!(rig.sys.sys_ring_enter(p.pid, 1, 1), 1);
        let cqe = ring.reap_cqe().expect("completion posted");
        assert_eq!(cqe.res, CHASE_NODE_BYTES as i64, "full node read");
        let node = p.fetch(rig, CHASE_NODE_BYTES);
        let next = u64::from_le_bytes(node[..8].try_into().unwrap());
        let value = u64::from_le_bytes(node[8..16].try_into().unwrap());
        hops += 1;
        value_sum += value;
        if next == 0 {
            break;
        }
        off = next;
    }
    ChaseRun { hops, value_sum }
}

/// The same walk as a verified CQE program: one submission, one
/// `ring_enter`; every inspect-and-resubmit happens at completion time in
/// kernel, and a single CQE surfaces with the hop count.
pub fn chase_kernel(rig: &Rig, p: &UserProc, fd: i32) -> ChaseRun {
    use std::sync::Arc;

    use kprog::{Attachment, HookClass, ProgEngine, ProgSpec};

    ensure_ring(rig, p.pid);
    let ring = rig.sys.uring(p.pid).expect("ring exists");
    let engine = ProgEngine::new(rig.machine.clone());
    let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(CHASE_NODE_BYTES);
    let prog = engine.load(CHASE_CQE_SRC, &spec).expect("chase program verifies");
    let att = Arc::new(Attachment::new(rig.machine.clone(), prog).expect("sandbox maps"));
    rig.sys.attach_cqe_program(p.pid, att.clone()).expect("attach");

    ring.push_sqe(Sqe::read(fd, p.buf, CHASE_NODE_BYTES as u32, 0, 1))
        .expect("sq has room");
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 1, 1), 1);
    let cqe = ring.reap_cqe().expect("terminator CQE posted");
    assert!(ring.reap_cqe().is_none(), "intermediate hops stay in kernel");
    rig.sys.detach_cqe_program(p.pid).expect("detach");

    let st = att.state();
    assert_eq!(cqe.res, st[0], "surfaced res is the hop count");
    ChaseRun { hops: st[0] as u64, value_sum: st[1] as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksyscall::OpenFlags;

    #[test]
    fn chase_file_ground_truth_is_reachable_by_walking() {
        let f = build_chase_file(64, 7);
        // Walk the bytes directly.
        let mut off = 0usize;
        let mut hops = 0u64;
        let mut sum = 0u64;
        loop {
            let next = u64::from_le_bytes(f.bytes[off..off + 8].try_into().unwrap());
            sum += u64::from_le_bytes(f.bytes[off + 8..off + 16].try_into().unwrap());
            hops += 1;
            if next == 0 {
                break;
            }
            off = next as usize;
        }
        assert_eq!((hops, sum), (f.hops, f.value_sum));
        assert_eq!(hops, 64, "every node is on the chain");
    }

    #[test]
    fn user_and_kernel_chases_agree_with_ground_truth() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let truth = setup_chase(&rig, &p, "/chase", 48, 42);
        let fd = rig.sys.sys_open(p.pid, "/chase", OpenFlags::RDONLY) as i32;

        let user = chase_user(&rig, &p, fd);
        assert_eq!((user.hops, user.value_sum), (truth.hops, truth.value_sum));

        let kern = chase_kernel(&rig, &p, fd);
        assert_eq!((kern.hops, kern.value_sum), (truth.hops, truth.value_sum));
    }

    #[test]
    fn kernel_chase_uses_one_crossing_for_the_whole_chain() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        setup_chase(&rig, &p, "/chase", 32, 3);
        let fd = rig.sys.sys_open(p.pid, "/chase", OpenFlags::RDONLY) as i32;

        let s0 = rig.machine.stats.snapshot();
        chase_user(&rig, &p, fd);
        let user_sys = rig.machine.stats.snapshot().delta(&s0).syscalls;

        let s1 = rig.machine.stats.snapshot();
        chase_kernel(&rig, &p, fd);
        let kern_sys = rig.machine.stats.snapshot().delta(&s1).syscalls;

        assert!(user_sys >= 32, "one enter per hop: {user_sys}");
        assert!(kern_sys <= 3, "one enter total: {kern_sys}");
    }
}
