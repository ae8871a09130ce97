//! A11 (perf opt): host-side throughput of the simulated syscall path.
//!
//! Every other experiment measures *simulated* cycles; this one measures
//! how fast the simulator itself executes them. The host-side cost per
//! `k_*` call bounds every scaling experiment (SMP ksim, million-client
//! load rigs), so the substrate optimizations — slab-style object pools,
//! interned dcache path components, batched cycle accounting, compiled
//! fault-site masks — are reported here as *sustained simulated syscalls
//! per host wall-clock second*.
//!
//! Two tight single-process loops, the shapes the paper's workloads boil
//! down to:
//!
//! * **vfs**: open → write → lseek → read → close against a warm dcache
//!   (5 syscalls/iteration), the PostMark transaction inner loop.
//! * **net**: send → recv across a connected socket pair
//!   (2 syscalls/iteration), the web-server data plane.
//!
//! The headline metric is the best-of-three mixed rate. Every row is
//! host-timed: a trend line that swings with machine load, so no row
//! gates `all`. The host cost that does gate is counted, not timed:
//! `tests/integration_host_cost.rs` pins the exact heap allocations per
//! warm op on every path into the dispatcher.
//!
//! `--micro` additionally runs idiom microbenches that isolate each
//! optimization layer (allocation, interning, accounting, fault masks)
//! for the EXPERIMENTS.md attribution table.

use std::time::Instant;

use bench::{banner, Report};
use kucode::kworkloads::{Rig, UserProc};
use kucode::prelude::*;

/// Sustained mixed-loop rate measured on the pre-PR substrate (this
/// container, release build), before the pools / interning / batched
/// accounting / fault-mask optimizations landed. The acceptance gate for
/// the PR is `measured >= 2 * PRE_PR_BASELINE_SPS`.
const PRE_PR_BASELINE_SPS: u64 = 4_420_000;

const IO_BYTES: usize = 64;

/// One vfs iteration: open/write/lseek/read/close = 5 syscalls.
fn vfs_iter(rig: &Rig, p: &UserProc, path: &str) {
    let sys = &rig.sys;
    let fd = sys.sys_open(p.pid, path, OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    sys.sys_write(p.pid, fd, p.buf, IO_BYTES);
    sys.sys_lseek(p.pid, fd, 0, kucode::ksyscall::layer::SEEK_SET);
    sys.sys_read(p.pid, fd, p.buf, IO_BYTES);
    sys.sys_close(p.pid, fd);
}

const VFS_CALLS_PER_ITER: u64 = 5;
const NET_CALLS_PER_ITER: u64 = 2;

struct NetPair {
    client: i32,
    server: i32,
}

fn net_setup(rig: &Rig, p: &UserProc) -> NetPair {
    let sys = &rig.sys;
    let lsd = sys.sys_socket(p.pid) as i32;
    assert_eq!(sys.sys_bind_listen(p.pid, lsd, 80, 8), 0);
    let client = sys.sys_socket(p.pid) as i32;
    assert_eq!(sys.sys_connect(p.pid, client, 80), 0);
    let server = sys.sys_accept(p.pid, lsd) as i32;
    assert!(server >= 0);
    NetPair { client, server }
}

/// One net iteration: send/recv = 2 syscalls. The recv drains what the
/// send queued, so the ring never backs up into EAGAIN.
fn net_iter(rig: &Rig, p: &UserProc, pair: &NetPair) {
    let sys = &rig.sys;
    sys.sys_send(p.pid, pair.client, p.buf, IO_BYTES);
    sys.sys_recv(p.pid, pair.server, p.buf, IO_BYTES);
}

/// Run `iter` repeatedly for at least `window_ms`, returning
/// (syscalls issued, elapsed seconds).
fn timed_window(window_ms: u64, calls_per_iter: u64, mut iter: impl FnMut()) -> (u64, f64) {
    const CHUNK: u64 = 2_000;
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..CHUNK {
            iter();
        }
        calls += CHUNK * calls_per_iter;
        let dt = start.elapsed();
        if dt.as_millis() as u64 >= window_ms {
            return (calls, dt.as_secs_f64());
        }
    }
}

/// Best-of-`reps` sustained rate in syscalls/sec.
fn best_rate(reps: usize, window_ms: u64, calls_per_iter: u64, mut iter: impl FnMut()) -> u64 {
    let mut best = 0u64;
    for _ in 0..reps {
        let (calls, secs) = timed_window(window_ms, calls_per_iter, &mut iter);
        best = best.max((calls as f64 / secs) as u64);
    }
    best
}

fn fmt_sps(sps: u64) -> String {
    format!("{:.2}M/s", sps as f64 / 1e6)
}

pub fn run(report: &mut Report) {
    banner(
        "A11",
        "host substrate throughput: sustained simulated syscalls/sec",
    );
    let micro = std::env::args().any(|a| a == "--micro");
    let window_ms: u64 = 400;
    let reps = 3;

    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, &[0xA5u8; IO_BYTES]);
    assert_eq!(rig.sys.sys_mkdir(p.pid, "/a11"), 0);
    let paths = ["/a11/f0", "/a11/f1", "/a11/f2", "/a11/f3"];
    // Warm the dcache, the page cache, and the fd table once.
    for path in paths {
        vfs_iter(&rig, &p, path);
    }
    let pair = net_setup(&rig, &p);

    let mut k = 0usize;
    let vfs_sps = best_rate(reps, window_ms, VFS_CALLS_PER_ITER, || {
        vfs_iter(&rig, &p, paths[k & 3]);
        k = k.wrapping_add(1);
    });
    let net_sps = best_rate(reps, window_ms, NET_CALLS_PER_ITER, || {
        net_iter(&rig, &p, &pair);
    });
    // Mixed: interleave one vfs iteration with one net round, the
    // headline trend number.
    let mut j = 0usize;
    let mixed_sps = best_rate(
        reps,
        window_ms,
        VFS_CALLS_PER_ITER + NET_CALLS_PER_ITER,
        || {
            vfs_iter(&rig, &p, paths[j & 3]);
            net_iter(&rig, &p, &pair);
            j = j.wrapping_add(1);
        },
    );

    println!("\n{:<28} {:>14}", "loop", "syscalls/sec");
    println!("{:<28} {:>14}", "vfs open/write/read/close", fmt_sps(vfs_sps));
    println!("{:<28} {:>14}", "net send/recv", fmt_sps(net_sps));
    println!("{:<28} {:>14}", "mixed (headline)", fmt_sps(mixed_sps));

    let speedup = if PRE_PR_BASELINE_SPS == 0 {
        1.0
    } else {
        mixed_sps as f64 / PRE_PR_BASELINE_SPS as f64
    };
    report.add_host_timed(
        "A11",
        "sustained simulated syscalls/sec (mixed)",
        format!("{} pre-PR", fmt_sps(PRE_PR_BASELINE_SPS)),
        format!("{} ({speedup:.2}x)", fmt_sps(mixed_sps)),
        PRE_PR_BASELINE_SPS == 0 || mixed_sps >= 2 * PRE_PR_BASELINE_SPS,
    );
    report.add_host_timed(
        "A11",
        "vfs loop syscalls/sec",
        "-",
        fmt_sps(vfs_sps),
        true,
    );
    report.add_host_timed(
        "A11",
        "net loop syscalls/sec",
        "-",
        fmt_sps(net_sps),
        true,
    );

    if micro {
        run_micro(window_ms);
    }
}

/// Time `op` for at least `window_ms`, returning ns/op.
fn ns_per_op(window_ms: u64, mut op: impl FnMut()) -> f64 {
    const CHUNK: u64 = 10_000;
    let mut ops = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..CHUNK {
            op();
        }
        ops += CHUNK;
        let dt = start.elapsed();
        if dt.as_millis() as u64 >= window_ms {
            return dt.as_nanos() as f64 / ops as f64;
        }
    }
}

/// `--micro`: per-layer idiom microbenches. Each pits the pre-PR idiom
/// against the optimized substrate on the same work so EXPERIMENTS.md can
/// attribute the mixed-loop win layer by layer.
fn run_micro(window_ms: u64) {
    use std::collections::HashMap;

    println!("\n-- micro: per-optimization attribution (old idiom vs new) --");
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, &[0x5Au8; IO_BYTES]);
    let m = &rig.machine;
    let row = |name: &str, old_ns: f64, new_ns: f64| {
        println!(
            "{:<38} {:>9.1}ns {:>9.1}ns {:>7.2}x",
            name,
            old_ns,
            new_ns,
            if new_ns > 0.0 { old_ns / new_ns } else { 0.0 }
        );
    };
    println!(
        "{:<38} {:>11} {:>11} {:>8}",
        "layer (one op)", "old idiom", "substrate", "speedup"
    );

    // Allocation: one inode body's life under PostMark-style churn.
    // A create used to start from a fresh `Vec` and grow it write by
    // write — an allocator round trip plus a realloc chain per file; the
    // pool hands back a recycled vector whose capacity is already warm.
    // (Small reads/writes never allocate at all — transfers at or under
    // SMALL_IO_MAX copy through a stack buffer.)
    let body_pool = kucode::kalloc::ObjPool::<Vec<u8>>::new();
    let old = ns_per_op(window_ms, || {
        let body: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&body);
    });
    let new = ns_per_op(window_ms, || {
        let body = body_pool.take(|| Vec::with_capacity(4096));
        std::hint::black_box(&body);
        body_pool.put(body);
    });
    row("allocs: malloc/free 4K vs body pool", old, new);

    // Interning: SipHash over an owned (parent, String) key vs the interned
    // (parent, Name) key the dcache uses now.
    let mut old_map: HashMap<(u64, String), u64> = HashMap::new();
    old_map.insert((1, "component".to_string()), 7);
    let dcache = kucode::kvfs::DentryCache::new(m.clone());
    dcache.insert(1, "component", 7);
    let name = kucode::kvfs::Name::intern("component");
    let old = ns_per_op(window_ms, || {
        // The pre-PR dcache cloned the component into the key per lookup.
        let key = (1u64, "component".to_string());
        std::hint::black_box(old_map.get(&key));
    });
    let new = ns_per_op(window_ms, || {
        std::hint::black_box(dcache.lookup_name(1, name));
    });
    row("interning: (u64,String) vs (u64,Name)", old, new);

    // Accounting: 10 atomic charges per op, bare vs under one batch guard.
    let old = ns_per_op(window_ms, || {
        for _ in 0..10 {
            m.clock.charge_sys(3);
        }
    });
    let new = ns_per_op(window_ms, || {
        let _b = m.clock.batch();
        for _ in 0..10 {
            m.clock.charge_sys(3);
        }
    });
    row("accounting: 10 charges vs batched", old, new);

    // Fault plane: consultation cost while armed with an unrelated policy
    // (pre-PR walked every policy's starts_with; now one mask test).
    m.faults.arm(42);
    m.faults
        .add_policy(Some("net."), kucode::kfault::Policy::FailNth(u64::MAX));
    let armed = ns_per_op(window_ms, || {
        std::hint::black_box(m.faults.should_fail(kucode::kfault::sites::KALLOC_SLAB));
    });
    m.faults.disarm();
    m.faults.clear_policies();
    let disarmed = ns_per_op(window_ms, || {
        std::hint::black_box(m.faults.should_fail(kucode::kfault::sites::KALLOC_SLAB));
    });
    row("faults: armed uncovered vs disarmed", armed, disarmed);

    // End-to-end: the cheapest full syscall (lseek) as the floor every
    // layer's overhead stacks onto.
    let fd = rig
        .sys
        .sys_open(p.pid, "/micro", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    let lseek = ns_per_op(window_ms, || {
        std::hint::black_box(rig.sys.sys_lseek(p.pid, fd, 0, kucode::ksyscall::layer::SEEK_SET));
    });
    rig.sys.sys_close(p.pid, fd);
    println!("{:<38} {:>9.1}ns  (full syscall floor)", "e2e: sys_lseek", lseek);
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
