//! Integration: the kuring shared rings end to end — linked-chain
//! short-circuiting with `ECANCELED`, fixed-buffer reads moving bytes with
//! zero user copies inside a single crossing, CQ overflow staying visible
//! and recoverable through the syscall API, and a batch of N mixed ops
//! producing results identical to N individual syscalls while paying one
//! crossing instead of N.

use kucode::kworkloads::{Rig, UserProc};
use kucode::prelude::*;

/// Deterministic test payload.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// Stage `data` at an arbitrary user address (host-side, uncharged setup).
fn stage_at(rig: &Rig, p: &UserProc, addr: u64, data: &[u8]) {
    let asid = rig.machine.proc_asid(p.pid).expect("live process");
    rig.machine
        .mem
        .write_virt(asid, addr, data)
        .expect("mapped");
}

/// Fetch `len` bytes from an arbitrary user address (host-side).
fn fetch_at(rig: &Rig, p: &UserProc, addr: u64, len: usize) -> Vec<u8> {
    let asid = rig.machine.proc_asid(p.pid).expect("live process");
    let mut out = vec![0u8; len];
    rig.machine
        .mem
        .read_virt(asid, addr, &mut out)
        .expect("mapped");
    out
}

/// Reap every visible completion into a `(user_data, res)` list.
fn reap_all(ring: &Uring) -> Vec<(u64, i64)> {
    let mut out = Vec::new();
    while let Some(c) = ring.reap_cqe() {
        out.push((c.user_data, c.res));
    }
    out
}

#[test]
fn ring_lifecycle_errnos() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);

    assert_eq!(
        rig.sys.sys_ring_enter(p.pid, 1, 0),
        -6,
        "ENXIO before setup"
    );
    assert_eq!(rig.sys.sys_ring_register(p.pid, &[(p.buf, 64)]), -6);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 0, 8), -22, "EINVAL zero SQ");
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    assert_eq!(
        rig.sys.sys_ring_setup(p.pid, 8, 8),
        -17,
        "EEXIST second ring"
    );
    assert_eq!(
        rig.sys.sys_ring_register(p.pid, &[]),
        -22,
        "EINVAL empty table"
    );
    assert_eq!(rig.sys.sys_ring_register(p.pid, &[(p.buf, 0)]), -22);
    assert_eq!(
        rig.sys.sys_ring_register(p.pid, &[(0xDEAD_0000_0000, 64)]),
        -14,
        "EFAULT on an unmapped pin"
    );
    assert_eq!(rig.sys.sys_ring_register(p.pid, &[(p.buf, 4096)]), 1);
}

#[test]
fn linked_chain_short_circuits_with_ecanceled() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    let ring = rig.sys.uring(p.pid).unwrap();

    // open(missing) → read → close, all one chain, then an UNLINKED nop.
    stage_at(&rig, &p, p.buf, b"/missing");
    ring.push_sqe(Sqe::open(p.buf, 8, OpenFlags::RDONLY.0, 0).link())
        .unwrap();
    ring.push_sqe(
        Sqe::read(-1, p.buf + 0x100, 64, OFF_CURSOR, 1)
            .chained()
            .link(),
    )
    .unwrap();
    ring.push_sqe(Sqe::close(-1, 2).chained()).unwrap();
    ring.push_sqe(Sqe::nop(3)).unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 4, 4), 4);

    assert_eq!(
        reap_all(&ring),
        vec![(0, -2), (1, ECANCELED), (2, ECANCELED), (3, 0)],
        "failure cancels the rest of the chain but not the next submission"
    );

    // The happy chain: open → read(FD_CHAIN) → close runs like a Cosy
    // compound — and leaks nothing.
    let data = pattern(64);
    let fd = rig
        .sys
        .sys_open(p.pid, "/doc", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    p.stage(&rig, &data);
    assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 64), 64);
    assert_eq!(rig.sys.sys_close(p.pid, fd), 0);
    let open_fds = rig.sys.open_fds(p.pid);

    stage_at(&rig, &p, p.buf, b"/doc");
    ring.push_sqe(Sqe::open(p.buf, 4, OpenFlags::RDONLY.0, 10).link())
        .unwrap();
    ring.push_sqe(
        Sqe::read(-1, p.buf + 0x200, 64, OFF_CURSOR, 11)
            .chained()
            .link(),
    )
    .unwrap();
    ring.push_sqe(Sqe::close(-1, 12).chained()).unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 3, 3), 3);

    let cqes = reap_all(&ring);
    assert!(cqes[0].1 >= 0, "open succeeds: {cqes:?}");
    assert_eq!(
        (cqes[1].0, cqes[1].1),
        (11, 64),
        "chained read sees the file"
    );
    assert_eq!(
        (cqes[2].0, cqes[2].1),
        (12, 0),
        "chained close frees the fd"
    );
    assert_eq!(fetch_at(&rig, &p, p.buf + 0x200, 64), data);
    assert_eq!(rig.sys.open_fds(p.pid), open_fds, "chain left no fd behind");
}

#[test]
fn fixed_buffer_read_is_byte_equal_at_zero_user_copies() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    const LEN: usize = 4096;

    let data = pattern(LEN);
    let fd = rig
        .sys
        .sys_open(p.pid, "/doc", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    p.stage(&rig, &data);
    assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, LEN), LEN as i64);
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, 0, 0), 0);

    let dst = p.buf + 0x8000;
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    assert_eq!(rig.sys.sys_ring_register(p.pid, &[(dst, LEN)]), 1);
    let ring = rig.sys.uring(p.pid).unwrap();

    let before = rig.machine.stats.snapshot();
    ring.push_sqe(Sqe::read_fixed(fd, 0, LEN as u32, OFF_CURSOR, 1))
        .unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 1, 1), 1);
    assert_eq!(
        ring.reap_cqe(),
        Some(Cqe {
            user_data: 1,
            res: LEN as i64
        })
    );
    let d = rig.machine.stats.snapshot().delta(&before);

    assert_eq!(
        fetch_at(&rig, &p, dst, LEN),
        data,
        "byte-for-byte through the pin"
    );
    assert_eq!(
        d.bytes_copied_in + d.bytes_copied_out,
        0,
        "fixed-buffer I/O crosses the boundary without copy_to/from_user"
    );
    assert_eq!(d.crossings, 1, "the whole op cost one ring_enter crossing");
    assert_eq!(rig.sys.sys_close(p.pid, fd), 0);
}

#[test]
fn cq_overflow_is_visible_and_recoverable_in_order() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    // SQ fits the batch; CQ holds only half the completions.
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 2), 0);
    let ring = rig.sys.uring(p.pid).unwrap();

    for i in 0..4 {
        ring.push_sqe(Sqe::nop(i)).unwrap();
    }
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 4, 0), 4);
    assert_eq!(ring.cq_len(), 2);
    assert_eq!(ring.overflow_len(), 2, "the surplus is parked, not dropped");
    assert_eq!(ring.cq_overflow_total(), 2);

    assert_eq!(reap_all(&ring), vec![(0, 0), (1, 0)]);
    assert_eq!(ring.reap_cqe(), None, "parked CQEs need a flush first");

    // An empty ring_enter is the flush: overflow drains back in order.
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 0, 0), 0);
    assert_eq!(ring.overflow_len(), 0);
    assert_eq!(reap_all(&ring), vec![(2, 0), (3, 0)]);
    assert_eq!(
        ring.cq_overflow_total(),
        2,
        "total is cumulative, not a level"
    );
}

#[test]
fn batch_of_n_matches_n_individual_syscalls_at_one_crossing() {
    // Twin rigs with identical state: A issues 16 classic syscalls, B
    // submits the same 16 ops as one ring batch. Results and final file
    // bytes must match; only the crossing bill differs.
    let seed = pattern(1024);
    let edit = pattern(64);
    let setup = |rig: &Rig, p: &UserProc| -> i32 {
        let fd = rig
            .sys
            .sys_open(p.pid, "/data", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        p.stage(rig, &seed);
        assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 1024), 1024);
        assert_eq!(rig.sys.sys_lseek(p.pid, fd, 0, 0), 0);
        stage_at(rig, p, p.buf + 0x100, &edit);
        stage_at(rig, p, p.buf + 0x200, b"/missing");
        stage_at(rig, p, p.buf + 0x300, b"/data");
        fd
    };

    let rig_a = Rig::memfs();
    let pa = rig_a.user(1 << 16);
    let fd_a = setup(&rig_a, &pa);
    let rig_b = Rig::memfs();
    let pb = rig_b.user(1 << 16);
    let fd_b = setup(&rig_b, &pb);
    assert_eq!(fd_a, fd_b, "twin rigs allocate identically");

    // Path A: sixteen individual syscalls, sixteen crossings.
    let (rig, p, fd) = (&rig_a, &pa, fd_a);
    let before = rig.machine.stats.snapshot();
    let mut classic: Vec<i64> = vec![
        rig.sys.sys_fstat(p.pid, fd, p.buf + 0x400),
        rig.sys.sys_read(p.pid, fd, p.buf + 0x500, 100),
        rig.sys.sys_read(p.pid, fd, p.buf + 0x600, 100),
        rig.sys.sys_write(p.pid, fd, p.buf + 0x100, 64),
        rig.sys.sys_lseek(p.pid, fd, 200, 0),
        rig.sys.sys_read(p.pid, fd, p.buf + 0x700, 64),
        rig.sys.sys_open(p.pid, "/missing", OpenFlags::RDONLY),
        rig.sys.sys_open(p.pid, "/data", OpenFlags::RDONLY),
    ];
    let dup = *classic.last().unwrap() as i32;
    classic.extend([
        rig.sys.sys_read(p.pid, dup, p.buf + 0x800, 32),
        rig.sys.sys_close(p.pid, dup),
        rig.sys.sys_lseek(p.pid, fd, 0, 0),
        rig.sys.sys_read(p.pid, fd, p.buf + 0x900, 256),
        rig.sys.sys_write(p.pid, fd, p.buf + 0x100, 64),
        rig.sys.sys_fstat(p.pid, fd, p.buf + 0xA00),
        rig.sys.sys_lseek(p.pid, fd, 512, 0),
        rig.sys.sys_close(p.pid, fd),
    ]);
    let da = rig.machine.stats.snapshot().delta(&before);
    assert_eq!(da.crossings, 16, "classic: one crossing per call");

    // Path B: the same sixteen ops, one ring_enter. Cursor ops use
    // OFF_CURSOR; the explicit-offset reads carry `off` directly (the
    // ring's lseek). The open→read→close trio rides an fd chain.
    let (rig, p, fd) = (&rig_b, &pb, fd_b);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 16, 16), 0);
    let ring = rig.sys.uring(p.pid).unwrap();
    let before = rig.machine.stats.snapshot();
    let sqes = [
        Sqe::fstat(fd, p.buf + 0x400, 0),
        Sqe::read(fd, p.buf + 0x500, 100, OFF_CURSOR, 1),
        Sqe::read(fd, p.buf + 0x600, 100, OFF_CURSOR, 2),
        Sqe::write(fd, p.buf + 0x100, 64, OFF_CURSOR, 3),
        Sqe::nop(4), // classic slot 4 is the lseek the next SQE's `off` replaces
        Sqe::read(fd, p.buf + 0x700, 64, 200, 5),
        Sqe::open(p.buf + 0x200, 8, OpenFlags::RDONLY.0, 6),
        Sqe::open(p.buf + 0x300, 5, OpenFlags::RDONLY.0, 7).link(),
        Sqe::read(-1, p.buf + 0x800, 32, OFF_CURSOR, 8)
            .chained()
            .link(),
        Sqe::close(-1, 9).chained(),
        Sqe::nop(10), // ditto: folded into SQE 11's `off`
        Sqe::read(fd, p.buf + 0x900, 256, 0, 11),
        Sqe::write(fd, p.buf + 0x100, 64, OFF_CURSOR, 12),
        Sqe::fstat(fd, p.buf + 0xA00, 13),
        Sqe::nop(14),
        Sqe::close(fd, 15),
    ];
    for sqe in sqes {
        ring.push_sqe(sqe).unwrap();
    }
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 16, 16), 16);
    let db = rig.machine.stats.snapshot().delta(&before);
    assert_eq!(db.crossings, 1, "batched: one crossing for all sixteen");

    let batched: Vec<i64> = reap_all(&ring).into_iter().map(|(_, res)| res).collect();
    // The lseek slots return the new offset classically and 0 as ring nops;
    // every op that exists on both sides must agree exactly.
    for (i, (&c, &b)) in classic.iter().zip(batched.iter()).enumerate() {
        if i == 4 || i == 10 || i == 14 {
            continue;
        }
        assert_eq!(
            c, b,
            "op {i} diverges: classic {classic:?} vs batched {batched:?}"
        );
    }

    // Both worlds end with byte-identical files and user buffers.
    let file_a = rig_a.sys.k_stat("/data").unwrap();
    let file_b = rig_b.sys.k_stat("/data").unwrap();
    assert_eq!(file_a.size, file_b.size);
    // (The fstat buffers at +0x400/+0xA00 carry cycle-stamped mtimes and
    // the two worlds deliberately burn different cycle counts — the data
    // buffers are the byte-equality claim.)
    for off in [0x500u64, 0x600, 0x700, 0x800, 0x900] {
        assert_eq!(
            fetch_at(&rig_a, &pa, pa.buf + off, 256),
            fetch_at(&rig_b, &pb, pb.buf + off, 256),
            "user buffer at +{off:#x} diverges"
        );
    }
    assert_eq!(rig_a.sys.open_fds(pa.pid), 0);
    assert_eq!(rig_b.sys.open_fds(pb.pid), 0);
}

/// `IOSQE_FIXED_BUF` means something only to Read, Write, Send and Recv.
/// An Open or Fstat carrying it would otherwise treat the registered
/// buffer *index* in `buf` as a user address; both are -EINVAL instead,
/// and neither touches the registered range or the descriptor table.
#[test]
fn fixed_flag_on_open_or_fstat_is_einval_and_writes_nothing() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let fd = rig
        .sys
        .sys_open(p.pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    let pin = p.buf + 0x8000;
    stage_at(&rig, &p, pin, &[0xAA; 256]);
    stage_at(&rig, &p, p.buf, b"/f");
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    assert_eq!(rig.sys.sys_ring_register(p.pid, &[(pin, 256)]), 1);
    let ring = rig.sys.uring(p.pid).unwrap();

    ring.push_sqe(Sqe::fstat(fd, 0, 1).fixed()).unwrap();
    ring.push_sqe(Sqe::open(0, 2, 0, 2).fixed()).unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 2, 2), 2);
    assert_eq!(reap_all(&ring), vec![(1, -22), (2, -22)]);
    assert_eq!(fetch_at(&rig, &p, pin, 256), vec![0xAA; 256], "pin untouched");
    assert_eq!(rig.sys.open_fds(p.pid), 1, "no descriptor opened");
}
