//! Integration: the simulated socket layer across crates — listener
//! backlog semantics through the syscall API, EAGAIN/readiness round
//! trips under backpressure, `sendfile` byte-for-byte equivalence with
//! the classic read+send loop (at zero user copies), compound-over-socket
//! abort semantics (the NetBarrier forfeits atomicity *explicitly*), and
//! the trace advisor recommending consolidation from a real naive
//! web-server trace.

use std::sync::Arc;

use kucode::kevents::OOPS_EVENT;
use kucode::ktrace::{advise, Remedy};
use kucode::kvfs::VfsError;
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig};
use kucode::prelude::*;

/// Deterministic test payload.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// Pull exactly `want` bytes out of `sd` through `sys_recv`.
fn drain(rig: &Rig, p: &UserProc, sd: i32, want: usize) -> Vec<u8> {
    let mut got = Vec::new();
    while got.len() < want {
        let n = rig.sys.sys_recv(p.pid, sd, p.buf, 4096.min(want - got.len()));
        assert!(n > 0, "peer starved at {}/{want}: {n}", got.len());
        got.extend_from_slice(&p.fetch(rig, n as usize));
    }
    got
}

#[test]
fn backlog_overflow_refuses_until_accept_frees_a_slot() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);

    let lsd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 9000, 2), 0);

    let c1 = rig.sys.sys_socket(p.pid) as i32;
    let c2 = rig.sys.sys_socket(p.pid) as i32;
    let c3 = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_connect(p.pid, c1, 9000), 0);
    assert_eq!(rig.sys.sys_connect(p.pid, c2, 9000), 0);
    assert_eq!(rig.sys.sys_connect(p.pid, c3, 9000), -111, "backlog of 2 is full");
    assert!(rig.sys.net().stats().refused >= 1);

    // Accepting one pending connection makes room for the next client.
    assert!(rig.sys.sys_accept(p.pid, lsd) >= 0);
    let c4 = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_connect(p.pid, c4, 9000), 0);

    // And a port can only be bound once.
    let dup = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, dup, 9000, 2), -98, "EADDRINUSE");
}

#[test]
fn eagain_and_readiness_round_trip_under_backpressure() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    rig.sys.net().set_ring_capacity(64);

    let lsd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 7000, 4), 0);
    let c = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_connect(p.pid, c, 7000), 0);
    let s = rig.sys.sys_accept(p.pid, lsd) as i32;
    assert!(s >= 0);

    // 100 bytes into a 64-byte ring: partial send, then EAGAIN.
    let data = pattern(100);
    p.stage(&rig, &data);
    assert_eq!(rig.sys.sys_send(p.pid, c, p.buf, 100), 64, "ring takes what fits");
    assert_eq!(rig.sys.sys_send(p.pid, c, p.buf, 100), -11, "ring full: EAGAIN");

    // Readiness agrees: the receiver is readable, the blocked sender is
    // neither readable nor writable until the peer drains.
    let net = rig.sys.net();
    assert_eq!(net.readiness(p.pid, s).unwrap() & POLL_IN, POLL_IN);
    assert_eq!(net.readiness(p.pid, c).unwrap(), 0);

    let first = drain(&rig, &p, s, 64);
    assert_eq!(first, data[..64], "bytes arrive in order");
    assert_eq!(net.readiness(p.pid, c).unwrap() & POLL_OUT, POLL_OUT, "drained: writable");

    // Retry the unsent tail; the round trip completes losslessly.
    p.stage(&rig, &data[64..]);
    assert_eq!(rig.sys.sys_send(p.pid, c, p.buf, 36), 36);
    assert_eq!(drain(&rig, &p, s, 36), data[64..], "retry delivers the tail");

    // Hangup surfaces through readiness and recv-EOF.
    assert_eq!(rig.sys.sys_shutdown(p.pid, c), 0);
    assert_eq!(net.readiness(p.pid, s).unwrap() & POLL_HUP, POLL_HUP);
    assert_eq!(rig.sys.sys_recv(p.pid, s, p.buf, 64), 0, "EOF after hangup");
}

#[test]
fn sendfile_matches_read_plus_send_with_zero_user_copies() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    const LEN: usize = 20_000;

    let data = pattern(LEN);
    let fd = rig.sys.sys_open(p.pid, "/doc", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    p.stage(&rig, &data);
    assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, LEN), LEN as i64);
    rig.sys.sys_close(p.pid, fd);

    let lsd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 6000, 4), 0);
    let pair = || {
        let c = rig.sys.sys_socket(p.pid) as i32;
        assert_eq!(rig.sys.sys_connect(p.pid, c, 6000), 0);
        (c, rig.sys.sys_accept(p.pid, lsd) as i32)
    };
    let (ca, sa) = pair();
    let (cb, sb) = pair();

    // Path A: the classic read-into-user-buffer + send-from-user-buffer loop.
    let fd = rig.sys.sys_open(p.pid, "/doc", OpenFlags::RDONLY) as i32;
    let before = rig.machine.stats.snapshot();
    loop {
        let n = rig.sys.sys_read(p.pid, fd, p.buf, 4096);
        if n == 0 {
            break;
        }
        assert_eq!(rig.sys.sys_send(p.pid, sa, p.buf, n as usize), n);
    }
    let classic = rig.machine.stats.snapshot().delta(&before);
    rig.sys.sys_close(p.pid, fd);

    // Path B: one sendfile crossing, file page straight into the ring.
    let fd = rig.sys.sys_open(p.pid, "/doc", OpenFlags::RDONLY) as i32;
    let before = rig.machine.stats.snapshot();
    assert_eq!(rig.sys.sys_sendfile(p.pid, sa, fd, 0), 0, "len 0 is a no-op");
    assert_eq!(rig.sys.sys_sendfile(p.pid, sb, fd, LEN), LEN as i64);
    let zerocopy = rig.machine.stats.snapshot().delta(&before);
    rig.sys.sys_close(p.pid, fd);

    // Both peers observe the identical document.
    assert_eq!(drain(&rig, &p, ca, LEN), data);
    assert_eq!(drain(&rig, &p, cb, LEN), data);

    // The consolidated path crossed once and copied nothing through user
    // space; the classic loop paid ~2×LEN in copies.
    assert_eq!(zerocopy.bytes_copied_in + zerocopy.bytes_copied_out, 0);
    assert!(classic.bytes_copied_in + classic.bytes_copied_out >= 2 * LEN as u64);
    assert!(zerocopy.crossings < classic.crossings);
}

#[test]
fn compound_over_socket_abort_stops_rollback_at_the_net_barrier() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 4, 1).unwrap();

    let disp = Arc::new(EventDispatcher::new(rig.machine.clone()));
    let ring = Arc::new(EventRing::with_capacity(16));
    disp.attach_ring(ring.clone());
    rig.cosy.set_oops_sink(disp);

    let lsd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 5000, 4), 0);
    let csd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_connect(p.pid, csd, 5000), 0);
    let ssd = rig.sys.sys_accept(p.pid, lsd) as i32;
    assert!(ssd >= 0);

    // open(CREAT) + write + send + write, with ENOSPC injected on the
    // post-send write: consults run create(1), write(2), write(3).
    let payload = b"sixteen-byte-pkt";
    let mut b = CompoundBuilder::new(&cb, &db);
    let path = b.stage_path("/txn").unwrap();
    let data = b.stage_bytes(payload).unwrap();
    let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]);
    b.syscall(
        CosyCall::Write,
        vec![CompoundBuilder::result_of(fd), data, CompoundBuilder::lit(16)],
    );
    b.syscall(
        CosyCall::Send,
        vec![CompoundBuilder::lit(ssd as i64), data, CompoundBuilder::lit(16)],
    );
    b.syscall(
        CosyCall::Write,
        vec![CompoundBuilder::result_of(fd), data, CompoundBuilder::lit(16)],
    );
    b.finish().unwrap();

    rig.machine.faults.arm(0xBA11);
    rig.machine.faults.add_policy(Some("kvfs.nospc"), Policy::FailNth(3));
    let err = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap_err();
    rig.machine.faults.disarm();
    assert!(matches!(err, CosyError::Vfs(VfsError::NoSpace)), "{err:?}");

    // The bytes already left through the socket — the peer still gets them.
    assert_eq!(drain(&rig, &p, csd, 16), payload, "sent bytes are not clawed back");

    // Rollback stopped at the barrier: pre-send file-system effects REMAIN
    // (atomicity is explicitly forfeited, not silently faked).
    assert_eq!(rig.sys.k_stat("/txn").unwrap().size, 16, "pre-barrier write survives");

    // And the forfeiture is reported as a structured oops.
    let mut out = Vec::new();
    ring.pop_bulk(&mut out, 16);
    assert!(
        out.iter().any(|r| r.event == OOPS_EVENT && r.file == "cosy/netbarrier"),
        "partial rollback must surface as an oops: {out:?}"
    );
}

#[test]
fn naive_webserver_trace_leads_the_advisor_to_consolidation() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cfg = WebConfig {
        documents: 6,
        doc_min: 1024,
        doc_max: 4096,
        requests: 24,
        connections: 4,
        ..WebConfig::default()
    };
    setup_docs(&rig, &p, &cfg);

    rig.sys.tracer().set_enabled(true);
    serve(&rig, &p, &cfg, ServeMode::Classic, 1);
    rig.sys.tracer().set_enabled(false);
    let events = rig.sys.tracer().events();

    // The digraph shows the server's hot path: accept → recv dominates.
    let g = SyscallGraph::from_trace(&events);
    assert!(g.weight(Sysno::Accept, Sysno::Recv) >= cfg.requests as u64);
    assert!(g.weight(Sysno::Read, Sysno::Send) >= cfg.requests as u64);

    // The advisor mines the read→send copy loop and recommends the
    // zero-copy consolidated call.
    let suggestions = advise(&events, &rig.machine.cost, 16);
    assert!(
        suggestions.iter().any(|s| s.remedy == Remedy::UseConsolidated(Sysno::Sendfile)),
        "expected a sendfile recommendation, got {suggestions:?}"
    );
}
