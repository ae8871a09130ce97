//! Integration tests for the kprog attach points the syscall layer hosts:
//! entry filters (veto / arg-rewrite / fail-closed) and per-CQE completion
//! programs (drop / rewrite / resubmit chains).

use std::sync::Arc;

use kprog::{Attachment, HookClass, ProgEngine, ProgSpec};
use ksim::Machine;
use kuring::Sqe;

use crate::fd::OpenFlags;
use crate::layer::tests::{setup, UBUF};
use crate::layer::{CQE, FILTER, SEEK_SET};

fn load(
    m: &Arc<Machine>,
    src: &str,
    spec: &ProgSpec,
) -> Arc<Attachment> {
    let e = ProgEngine::new(m.clone());
    let p = e.load(src, spec).unwrap();
    Arc::new(Attachment::new(m.clone(), p).unwrap())
}

// The filters below match on Sysno discriminants (`Sysno` is
// `#[repr(u16)]`): Read = 1, Write = 2, Lseek = 4.

#[test]
fn entry_filter_vetoes_rewrites_and_detaches() {
    let (m, sys, pid) = setup();
    let fd = sys.sys_open(pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    m.mem
        .write_virt(m.proc_asid(pid).unwrap(), UBUF, b"the quick brown fox")
        .unwrap();
    assert_eq!(sys.sys_write(pid, fd, UBUF, 19), 19);
    assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), 0);

    // Policy: no writes (EPERM), reads clamped to 5 bytes, count every
    // syscall in state[0].
    let src = r#"
        int f(int *ctx, int *state) {
            state[0] = state[0] + 1;
            if (ctx[0] == 2) { return -1; }
            if (ctx[0] == 1) {
                if (ctx[3] > 5) { ctx[3] = 5; }
            }
            return 0;
        }
    "#;
    let att = load(&m, src, &ProgSpec::new(HookClass::SyscallEntry, "f"));
    sys.attach_syscall_filter(pid, att.clone()).unwrap();

    assert_eq!(sys.sys_write(pid, fd, UBUF, 19), -1, "write vetoed");
    assert_eq!(sys.sys_read(pid, fd, UBUF + 4096, 100), 5, "len rewritten");
    let mut out = [0u8; 5];
    m.mem
        .read_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, &mut out)
        .unwrap();
    assert_eq!(&out, b"the q");
    let seen = att.state()[0];
    assert!(seen >= 2, "filter saw the calls: {seen}");

    let back = sys.detach_syscall_filter(pid).unwrap();
    assert!(Arc::ptr_eq(&back, &att));
    assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), 0);
    assert_eq!(sys.sys_write(pid, fd, UBUF, 19), 19, "policy gone");
}

#[test]
fn faulting_filter_fails_closed() {
    let (m, sys, pid) = setup();
    let fd = sys.sys_open(pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    // Divides by the lseek offset: off = 0 is a runtime DivByZero — a
    // clean VM error the verifier tolerates, which the entry hook must
    // turn into a veto, not an allow.
    let src = r#"
        int f(int *ctx, int *state) {
            if (ctx[0] == 4) { state[0] = 10 / ctx[2]; }
            return 0;
        }
    "#;
    let att = load(&m, src, &ProgSpec::new(HookClass::SyscallEntry, "f"));
    sys.attach_syscall_filter(pid, att.clone()).unwrap();
    assert_eq!(sys.sys_lseek(pid, fd, 1, SEEK_SET), 1, "healthy path allowed");
    assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), -13, "EACCES on program error");
    assert_eq!(att.stats().errors, 1);
}

#[test]
fn cqe_program_drops_and_rewrites_completions() {
    let (m, sys, pid) = setup();
    assert_eq!(sys.sys_ring_setup(pid, 16, 16), 0);
    let ring = sys.uring(pid).unwrap();
    // Drop completions tagged 5; add 100 to every other result.
    let src = r#"
        int f(int *ctx, int *state, int *buf) {
            state[0] = state[0] + 1;
            if (ctx[0] == 5) { return 0; }
            ctx[1] = ctx[1] + 100;
            return 1;
        }
    "#;
    let att = load(
        &m,
        src,
        &ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(0),
    );
    sys.attach_cqe_program(pid, att.clone()).unwrap();

    ring.push_sqe(Sqe::nop(5)).unwrap();
    ring.push_sqe(Sqe::nop(7)).unwrap();
    assert_eq!(sys.sys_ring_enter(pid, 2, 2), 2);
    let cqe = ring.reap_cqe().unwrap();
    assert_eq!((cqe.user_data, cqe.res), (7, 100));
    assert!(ring.reap_cqe().is_none(), "tagged-5 completion was consumed");
    assert_eq!(att.state()[0], 2, "program saw both completions");

    sys.detach_cqe_program(pid).unwrap();
    ring.push_sqe(Sqe::nop(5)).unwrap();
    assert_eq!(sys.sys_ring_enter(pid, 1, 1), 1);
    assert_eq!(ring.reap_cqe().unwrap().res, 0, "plain ring again");
}

#[test]
fn cqe_program_resubmit_walks_a_pointer_chain_in_one_enter() {
    let (m, sys, pid) = setup();
    // Three 16-byte nodes: [next_off, value], 0 → 32 → 64 → end.
    let nodes: [(u64, u64); 3] = [(32, 11), (64, 22), (0, 33)];
    let mut file = vec![0u8; 80];
    for (i, &(next, val)) in nodes.iter().enumerate() {
        let off = i * 32;
        file[off..off + 8].copy_from_slice(&next.to_le_bytes());
        file[off + 8..off + 16].copy_from_slice(&val.to_le_bytes());
    }
    let fd = sys.sys_open(pid, "/chain", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    m.mem
        .write_virt(m.proc_asid(pid).unwrap(), UBUF, &file)
        .unwrap();
    assert_eq!(sys.sys_write(pid, fd, UBUF, 80), 80);

    assert_eq!(sys.sys_ring_setup(pid, 8, 8), 0);
    let ring = sys.uring(pid).unwrap();
    // Follow buf[0] (next_off) until it hits the 0 terminator, summing
    // buf[1] (value) into state; the single surfaced CQE reports the hop
    // count as its result.
    let src = r#"
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
    let att = load(
        &m,
        src,
        &ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(16),
    );
    sys.attach_cqe_program(pid, att.clone()).unwrap();

    ring.push_sqe(Sqe::read(fd, UBUF + 0x1000, 16, 0, 9)).unwrap();
    assert_eq!(sys.sys_ring_enter(pid, 1, 1), 1, "one SQE consumed");
    let cqe = ring.reap_cqe().unwrap();
    assert_eq!(cqe.user_data, 9);
    assert_eq!(cqe.res, 3, "three hops walked in kernel");
    assert!(ring.reap_cqe().is_none(), "intermediate hops never surfaced");
    assert_eq!(&att.state()[..2], &[3, 66], "node count and value sum");
    assert_eq!(att.stats().invocations, 3);
}

const VETO_WRITES: &str = r#"
    int f(int *ctx, int *state) {
        if (ctx[0] == 2) { return -1; }
        return 0;
    }
"#;

const ADD_100: &str = r#"
    int f(int *ctx, int *state, int *buf) {
        ctx[1] = ctx[1] + 100;
        return 1;
    }
"#;

#[test]
fn attach_fast_path_and_class_guard() {
    let (m, sys, pid) = setup();
    let other = m.spawn_process();
    assert!(!sys.hooked(FILTER) && !sys.hooked(CQE));
    assert!(sys.prog(pid, FILTER).is_none());
    let att = load(&m, VETO_WRITES, &ProgSpec::new(HookClass::SyscallEntry, "f"));
    sys.attach_cqe_program(pid, att.clone()).unwrap_err();
    assert!(!sys.hooked(CQE), "a refused attachment leaves the hook empty");
    sys.attach_syscall_filter(pid, att.clone()).unwrap();
    assert!(sys.hooked(FILTER));
    assert!(Arc::ptr_eq(&sys.prog(pid, FILTER).unwrap(), &att));
    assert!(sys.prog(other, FILTER).is_none(), "one pid's filter reaches no other");
    let cqe = load(&m, ADD_100, &ProgSpec::new(HookClass::UringCqe, "f"));
    sys.attach_syscall_filter(pid, cqe).unwrap_err();
    assert!(Arc::ptr_eq(&sys.detach_syscall_filter(pid).unwrap(), &att));
    assert!(!sys.hooked(FILTER));
    assert!(sys.detach_syscall_filter(pid).is_none());
}

/// Two layers with two processes each, driven in turn from one thread, so
/// every call switches the thread's cached context. Each process must see
/// only its own descriptors, ring, filter and CQE program.
#[test]
fn contexts_stay_apart_across_layers_and_pids_on_one_thread() {
    let (ma, a, a1) = setup();
    let (mb, b, b1) = setup();
    let (a2, b2) = (ma.spawn_process(), mb.spawn_process());
    for (m, pid) in [(&ma, a2), (&mb, b2)] {
        m.map_user(pid, UBUF, 4096).unwrap();
    }
    let procs = [(&a, a1), (&b, b1), (&a, a2), (&b, b2)];
    for (i, &(sys, pid)) in procs.iter().enumerate() {
        for k in 0..=i {
            let path = format!("/p{}_{k}", pid.0);
            assert_eq!(sys.sys_open(pid, &path, OpenFlags::RDWR | OpenFlags::CREAT), k as i64);
        }
        assert_eq!(sys.sys_ring_setup(pid, 4, 4), 0);
    }
    let filter = load(&ma, VETO_WRITES, &ProgSpec::new(HookClass::SyscallEntry, "f"));
    a.attach_syscall_filter(a1, filter).unwrap();
    let cqe = load(&mb, ADD_100, &ProgSpec::new(HookClass::UringCqe, "f"));
    b.attach_cqe_program(b2, cqe).unwrap();

    let round = |attached: bool| {
        for (i, &(sys, pid)) in procs.iter().enumerate() {
            assert_eq!(sys.open_fds(pid), i + 1);
            assert_eq!(sys.sys_read(pid, i as i32 + 1, UBUF, 1), -9, "EBADF past its own fds");
            // Only a1 (index 0) has a filter, and only b2 (3) a CQE program.
            assert_eq!(sys.sys_write(pid, 0, UBUF, 1), if attached && i == 0 { -1 } else { 1 });
            let ring = sys.uring(pid).unwrap();
            ring.push_sqe(Sqe::nop(i as u64)).unwrap();
            assert_eq!(sys.sys_ring_enter(pid, 1, 1), 1);
            let cqe = ring.reap_cqe().unwrap();
            let res = if attached && i == 3 { 100 } else { 0 };
            assert_eq!((cqe.user_data, cqe.res), (i as u64, res));
            assert!(ring.reap_cqe().is_none(), "another process's completion");
            assert_eq!(sys.sys_ring_setup(pid, 4, 4), -17, "EEXIST: one ring each");
        }
    };
    round(true);
    round(true);
    assert!(a.detach_syscall_filter(a2).is_none() && b.detach_cqe_program(b1).is_none());
    a.detach_syscall_filter(a1).unwrap();
    b.detach_cqe_program(b2).unwrap();
    for sys in [&a, &b] {
        assert!(!sys.hooked(FILTER) && !sys.hooked(CQE), "back to one relaxed load");
    }
    round(false);
}
