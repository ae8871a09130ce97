//! A12 (SMP): per-CPU sharding, work-stealing, and webserver scaling.
//!
//! `ksim::Machine` is multi-core: per-CPU run queues with a seeded
//! work-stealing scheduler, slab magazines in front of the pools, per-CPU
//! kevents rings, an epoch-based lock-free dcache read path, and
//! SO_REUSEPORT-style accept sharding in `knet`. This bench quantifies
//! the result three ways:
//!
//! 1. **Webserver sweep** — `serve` runs one worker per CPU against a
//!    sharded listener, for 1/2/4/8 CPUs in all five serve modes. The
//!    scaling metric is simulated requests/sec against the *critical
//!    path* (the busiest worker's cycles): ideal overlap, so lost
//!    efficiency is exactly the per-batch fixed cost that no longer
//!    amortizes across the whole batch. Targets: ≥5x at 8 CPUs on uring, ≥3x on classic.
//! 2. **Host-threaded mixed loop** — 8 host threads on ONE shared `Rig`,
//!    each bound to its own simulated CPU, each running the A11 mixed
//!    vfs+net loop on private files/sockets. The aggregate sustained
//!    simulated-syscalls/sec is the sharded substrate's real-parallelism
//!    throughput. It is host-timed, so its row is a trend, not a gate.
//! 3. **Lock contention table** — the `ksim::stats` lock registry after
//!    the threaded phase: contended acquires and spins per named lock
//!    (knet's big lock, the syscall scratch pool), the direct measure of
//!    what sharding left behind.
//!
//! Plus a determinism spot-check: the work-stealing scheduler replays an
//! identical schedule (and identical steal/migration counters) for an
//! identical seed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bench::{banner, Report};
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig};
use kucode::kworkloads::{Rig, UserProc};
use kucode::prelude::*;

const CPU_STEPS: [usize; 4] = [1, 2, 4, 8];
const MODES: [(ServeMode, &str); 5] = [
    (ServeMode::Classic, "classic"),
    (ServeMode::Consolidated, "sendfile"),
    (ServeMode::OneShot, "one-shot"),
    (ServeMode::Cosy, "cosy"),
    (ServeMode::Uring, "uring"),
];

fn fmt_sps(sps: u64) -> String {
    format!("{:.2}M/s", sps as f64 / 1e6)
}

/// Part 1: the 1→8 CPU webserver sweep, all five serve modes.
fn web_sweep(report: &mut Report) {
    let cfg = WebConfig {
        documents: 25,
        doc_min: 2 * 1024,
        doc_max: 16 * 1024,
        requests: 1_024,
        connections: 32,
        ..Default::default()
    };
    println!(
        "\n{:<10} {:>5} {:>14} {:>9} {:>11} {:>12}",
        "mode", "cpus", "req/sec", "speedup", "efficiency", "agg sys/s"
    );
    let mut scaling = Vec::new(); // (mode name, 1→8 CPU speedup)
    for (mode, name) in MODES {
        let mut base = 0.0f64;
        let mut speedup = 0.0f64;
        for cpus in CPU_STEPS {
            let rig = Rig::memfs();
            let p = rig.user(1 << 16);
            setup_docs(&rig, &p, &cfg);
            let s0 = rig.machine.stats.snapshot();
            let r = serve(&rig, &p, &cfg, mode, cpus);
            let d = rig.machine.stats.snapshot().delta(&s0);
            let rps = r.critical_path_req_per_sec();
            if cpus == 1 {
                base = rps;
            }
            speedup = if base > 0.0 { rps / base } else { 0.0 };
            let eff = speedup / cpus as f64 * 100.0;
            // Aggregate simulated syscalls/sec: syscalls retired per
            // second of critical-path (parallel) server time.
            let agg_sps = if r.critical_path_cycles() > 0 {
                d.syscalls as f64 / cycles_to_secs(r.critical_path_cycles())
            } else {
                0.0
            };
            println!(
                "{:<10} {:>5} {:>14.0} {:>8.2}x {:>10.0}% {:>11.2}M",
                name,
                cpus,
                rps,
                speedup,
                eff,
                agg_sps / 1e6
            );
        }
        scaling.push((name, speedup));
    }

    let at_8 = |mode| scaling.iter().find(|g| g.0 == mode).unwrap().1;
    let (uring_x, classic_x) = (at_8("uring"), at_8("classic"));
    report.add(
        "A12",
        "uring req/s scaling, 1→8 CPUs",
        ">=5x (target)",
        format!("{uring_x:.2}x"),
        uring_x >= 5.0,
    );
    report.add(
        "A12",
        "classic req/s scaling, 1→8 CPUs",
        ">=3x (target)",
        format!("{classic_x:.2}x"),
        classic_x >= 3.0,
    );
}

const IO_BYTES: usize = 64;

/// One vfs iteration (5 syscalls) + one net round (2 syscalls), the A11
/// mixed loop, on this worker's private file and socket pair.
fn mixed_iter(rig: &Rig, p: &UserProc, path: &str, client: i32, server: i32) {
    let sys = &rig.sys;
    let fd = sys.sys_open(p.pid, path, OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    sys.sys_write(p.pid, fd, p.buf, IO_BYTES);
    sys.sys_lseek(p.pid, fd, 0, kucode::ksyscall::layer::SEEK_SET);
    sys.sys_read(p.pid, fd, p.buf, IO_BYTES);
    sys.sys_close(p.pid, fd);
    sys.sys_send(p.pid, client, p.buf, IO_BYTES);
    sys.sys_recv(p.pid, server, p.buf, IO_BYTES);
}

const MIXED_CALLS_PER_ITER: u64 = 7;

/// Aggregate sustained simulated-syscalls/sec with `threads` host threads
/// hammering ONE shared rig, each bound to its own simulated CPU.
fn threaded_sps(rig: &Rig, threads: usize, window_ms: u64) -> u64 {
    // Per-thread setup: private pid, file, and connected socket pair.
    let workers: Vec<(UserProc, String, i32, i32)> = (0..threads)
        .map(|t| {
            let p = rig.user(1 << 16);
            p.stage(rig, &[0xA5u8; IO_BYTES]);
            // Both phases share one rig, so namespace dirs and ports by
            // the thread count too.
            let dir = format!("/a12t{threads}x{t}");
            assert_eq!(rig.sys.sys_mkdir(p.pid, &dir), 0);
            let path = format!("{dir}/f");
            let sys = &rig.sys;
            let port = 9100 + (threads * 16 + t) as u16;
            let lsd = sys.sys_socket(p.pid) as i32;
            assert_eq!(sys.sys_bind_listen(p.pid, lsd, port, 8), 0);
            let client = sys.sys_socket(p.pid) as i32;
            assert_eq!(sys.sys_connect(p.pid, client, port), 0);
            let server = sys.sys_accept(p.pid, lsd) as i32;
            assert!(server >= 0);
            // Warm caches once.
            mixed_iter(rig, &p, &path, client, server);
            (p, path, client, server)
        })
        .collect();

    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .enumerate()
            .map(|(t, (p, path, client, server))| {
                let stop = &stop;
                scope.spawn(move || {
                    let _cpu = rig.machine.bind_cpu(t % rig.machine.num_cpus());
                    let mut iters = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..50 {
                            mixed_iter(rig, p, path, *client, *server);
                        }
                        iters += 50;
                    }
                    iters * MIXED_CALLS_PER_ITER
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(window_ms));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    (total as f64 / start.elapsed().as_secs_f64()) as u64
}

/// Part 2 + 3: the host-threaded aggregate rate and the lock table.
fn smp_throughput(report: &mut Report) {
    let window_ms = 500;
    let rig = Rig::memfs();
    let threads = rig.machine.num_cpus().min(8);

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());

    let solo = threaded_sps(&rig, 1, window_ms);
    kucode::ksim::reset_lock_contention();
    let aggregate = threaded_sps(&rig, threads, window_ms);
    let scale = if solo > 0 {
        aggregate as f64 / solo as f64
    } else {
        0.0
    };

    println!(
        "\n{:<34} {:>14}   (host parallelism: {host})",
        "host-threaded mixed loop", "syscalls/sec"
    );
    println!("{:<34} {:>14}", "1 thread", fmt_sps(solo));
    println!(
        "{:<34} {:>14}   ({scale:.2}x)",
        format!("{threads} threads, {threads} CPUs"),
        fmt_sps(aggregate)
    );

    // The contention the sharding didn't eliminate, by lock.
    let locks = kucode::ksim::lock_contention_report();
    println!(
        "\n{:<24} {:>18} {:>14}",
        "lock", "contended acquires", "total spins"
    );
    if locks.is_empty() {
        println!("{:<24} {:>18} {:>14}", "(none registered)", "-", "-");
    }
    for (name, st) in &locks {
        println!("{name:<24} {:>18} {:>14}", st.contended, st.spins);
    }

    // Wall-clock scaling is bounded by what the host actually has: with H
    // hardware threads the best case is ~H x solo. The shape asserts the
    // sharded substrate reaches at least half of that bound — i.e. eight
    // threads contending on the big locks do not collapse throughput. On a
    // 1-core host this degenerates to "within 2x of solo", which is still a
    // real assertion: a guarded-global design thrashes far below that.
    let bound = solo as f64 * threads.min(host) as f64;
    report.add_host_timed(
        "A12",
        &format!("aggregate syscalls/sec, {threads} host threads"),
        format!(">= 0.5 * {}-way bound", threads.min(host)),
        format!("{} ({scale:.2}x vs solo)", fmt_sps(aggregate)),
        aggregate as f64 >= 0.5 * bound,
    );
}

/// Part 4: seeded work-stealing is deterministic — identical seeds give
/// identical schedules and identical steal/migration counters.
fn sched_determinism(report: &mut Report) {
    let run = |seed: u64| {
        let m = Machine::new(MachineConfig {
            sched_seed: seed,
            ..MachineConfig::default()
        });
        // Load CPUs 0 and 1, leave the rest idle so they have to steal.
        let pids: Vec<Pid> = (0..12)
            .map(|i| {
                let _cpu = m.bind_cpu(i % 2);
                m.spawn_process()
            })
            .collect();
        let mut order = Vec::new();
        for tick in 0..64u64 {
            let cpu = (tick % m.num_cpus() as u64) as usize;
            order.push(m.schedule_on(cpu));
        }
        for pid in pids {
            let _ = m.kill_process(pid);
        }
        (order, m.sched_stats())
    };
    let (o1, c1) = run(0xA12);
    let (o2, c2) = run(0xA12);
    let (o3, _) = run(0xB13);
    println!(
        "\nscheduler determinism: 64 ticks over 8 CPUs, seed 0xA12 twice: \
         schedules match = {}, {:?}",
        o1 == o2,
        c1
    );
    report.add(
        "A12",
        "seeded work-stealing replays identically",
        "identical",
        if o1 == o2 && c1 == c2 { "identical" } else { "DIVERGED" },
        o1 == o2 && c1 == c2,
    );
    // Different seed, different interleaving (sanity that the rng is live).
    report.add(
        "A12",
        "different seed changes the schedule",
        "differs",
        if o1 == o3 { "same (!)" } else { "differs" },
        o1 != o3,
    );
}

pub fn run(report: &mut Report) {
    banner("A12", "SMP: per-CPU sharding, work stealing, webserver scaling");
    web_sweep(report);
    smp_throughput(report);
    sched_determinism(report);
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
