//! Integration: the SMP substrate across crates — the work-stealing
//! scheduler replays identical schedules for identical seeds, spread work
//! never starves a run queue, producers bound to distinct CPUs keep their
//! own FIFO order on one kevents ring, and one shared rig survives concurrent
//! syscall streams from threads bound to different simulated CPUs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use kucode::kevents::{EventRecord, EventType};
use kucode::ksim::SchedStats;
use kucode::kworkloads::{Rig, UserProc};
use kucode::prelude::*;

/// Load CPUs 0 and 1 with 12 processes, then drive 64 round-robin picks
/// over all 8 CPUs, so six CPUs can only run what they steal.
fn stealing_run(seed: u64) -> (Vec<Option<Pid>>, SchedStats) {
    let m = Machine::new(MachineConfig {
        sched_seed: seed,
        ..MachineConfig::default()
    });
    for i in 0..12 {
        let _cpu = m.bind_cpu(i % 2);
        m.spawn_process();
    }
    let order = (0..64).map(|t| m.schedule_on(t % m.num_cpus())).collect();
    (order, m.sched_stats())
}

#[test]
fn seeded_work_stealing_replays_identical_schedules() {
    let (order_a, counters_a) = stealing_run(0x51AB);
    let (order_b, counters_b) = stealing_run(0x51AB);
    assert_eq!(order_a, order_b, "same seed, same schedule");
    assert_eq!(counters_a, counters_b, "same seed, same counters");
    assert!(counters_a.steals > 0, "idle CPUs really did steal");

    let (order_c, _) = stealing_run(0x7EA1);
    assert_ne!(order_a, order_c, "the victim-choice stream is live");
}

#[test]
fn no_run_queue_starves_within_bounded_global_ticks() {
    let m = Machine::new(MachineConfig::default());
    let cpus = m.num_cpus();
    // Worst-case skew: every process starts on CPU 0.
    let pids: Vec<Pid> = (0..24).map(|_| m.spawn_process()).collect();

    // Steal-half halves the imbalance each time an idle CPU picks, so a
    // handful of round-robin sweeps must (a) hand every CPU work and
    // (b) run every process at least once.
    let bound = 6 * cpus * pids.len();
    let mut ran: std::collections::HashSet<Pid> = std::collections::HashSet::new();
    let mut cpu_ever_ran = vec![false; cpus];
    for tick in 0..bound {
        let cpu = tick % cpus;
        if let Some(pid) = m.schedule_on(cpu) {
            ran.insert(pid);
            cpu_ever_ran[cpu] = true;
        }
        if ran.len() == pids.len() && cpu_ever_ran.iter().all(|&c| c) {
            return;
        }
    }
    panic!(
        "after {bound} ticks: {}/{} processes ran, idle CPUs: {:?}",
        ran.len(),
        pids.len(),
        cpu_ever_ran
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
    );
}

#[test]
fn bound_producers_keep_fifo_on_one_event_ring() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 500;

    let m = Machine::new(MachineConfig::small_free());
    let ring = EventRing::with_capacity(THREADS * PER_THREAD as usize);
    let barrier = Barrier::new(THREADS);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let m = &m;
            let ring = &ring;
            let barrier = &barrier;
            scope.spawn(move || {
                let _cpu = m.bind_cpu(t);
                barrier.wait();
                for i in 0..PER_THREAD {
                    // obj identifies the producer, value carries its
                    // private sequence number.
                    ring.push(EventRecord::new(
                        t as u64,
                        EventType::Custom(7),
                        "smp",
                        0,
                        i as i64,
                    ));
                }
            });
        }
    });
    assert_eq!(ring.stats().dropped, 0);
    assert_eq!(ring.len(), THREADS * PER_THREAD as usize);

    // However the producers interleaved, each producer's own sequence
    // must come back strictly in order.
    let mut next = [0i64; THREADS];
    while let Some(e) = ring.pop() {
        let t = e.obj as usize;
        assert_eq!(e.value, next[t], "producer {t} reordered");
        next[t] += 1;
    }
    assert!(next.iter().all(|&n| n == PER_THREAD as i64));
}

#[test]
fn one_rig_survives_concurrent_syscall_streams_on_distinct_cpus() {
    const THREADS: usize = 4;
    const ITERS: usize = 400;
    const LEN: usize = 64;

    let rig = Rig::memfs();
    let workers: Vec<(UserProc, String)> = (0..THREADS)
        .map(|t| {
            let p = rig.user(1 << 16);
            p.stage(&rig, &[t as u8 + 1; LEN]);
            assert_eq!(rig.sys.sys_mkdir(p.pid, &format!("/smp{t}")), 0);
            (p, format!("/smp{t}/f"))
        })
        .collect();

    let errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for (t, (p, path)) in workers.iter().enumerate() {
            let rig = &rig;
            let errors = &errors;
            scope.spawn(move || {
                let _cpu = rig.machine.bind_cpu(t % rig.machine.num_cpus());
                for _ in 0..ITERS {
                    let fd = rig.sys.sys_open(
                        p.pid,
                        path,
                        OpenFlags::RDWR | OpenFlags::CREAT,
                    ) as i32;
                    if fd < 0
                        || rig.sys.sys_write(p.pid, fd, p.buf, LEN) != LEN as i64
                        || rig.sys.sys_read(p.pid, fd, p.buf, LEN) != 0
                        || rig.sys.sys_close(p.pid, fd) != 0
                    {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(errors.load(Ordering::Relaxed), 0, "no stream saw an error");

    // Every worker's file holds exactly its own bytes: the shared vfs and
    // dcache never crossed streams.
    for (t, (p, path)) in workers.iter().enumerate() {
        let fd = rig.sys.sys_open(p.pid, path, OpenFlags::RDONLY) as i32;
        assert!(fd >= 0);
        assert_eq!(rig.sys.sys_read(p.pid, fd, p.buf, LEN), LEN as i64);
        assert_eq!(p.fetch(&rig, LEN), vec![t as u8 + 1; LEN]);
        rig.sys.sys_close(p.pid, fd);
    }
}
