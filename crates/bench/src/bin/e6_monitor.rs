//! E6 (§3.3): the event monitor under PostMark.
//!
//! Paper (P4 1.7 GHz, Linux 2.6.9, dcache_lock instrumented):
//! * the lock was hit ≈8,805 times/second over an 85.4 s run;
//! * dispatcher + ring buffer: **+3.9 %** elapsed;
//! * user-space logger writing to disk: **+103 %**;
//! * same logger without disk writes: **+61 %**;
//! * system time effectively constant — the inefficiency is the polling
//!   user process, not the kernel infrastructure.
//!
//! Modelling note: the paper's user logger *polls continuously*, competing
//! with PostMark for the single CPU. Two costs follow on a single-CPU
//! machine: (1) the logger mirrors the workload's CPU time slice-for-slice
//! (busy polling burns a full share), and (2) every time the workload wakes
//! from an I/O completion it must wait out part of the logger's running
//! timeslice — a per-wakeup scheduling delay (we charge 0.15 ms, well
//! inside 2.6's dynamic-priority behaviour under a CPU hog). The disk
//! variant additionally flushes the log synchronously per read batch to the
//! second (SCSI) disk, paying a seek per flush.

use std::sync::Arc;

use bench::{banner, Report};
use kucode::kevents::chardev::WIRE_RECORD_BYTES;
use kucode::prelude::*;

fn postmark_cfg() -> PostmarkConfig {
    PostmarkConfig { file_count: 400, transactions: 1_500, ..Default::default() }
}

pub fn run(report: &mut Report) {
    banner("E6", "event monitoring under PostMark");
    let cfg = postmark_cfg();

    // Rung 0: vanilla.
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let base = run_postmark(&rig, &p, &cfg);
    let base_elapsed = base.elapsed.elapsed();

    // Rung 1: dispatcher + lock-free ring (in-kernel only).
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let dispatcher = Arc::new(EventDispatcher::new(rig.machine.clone()));
    let ring = Arc::new(EventRing::with_capacity(1 << 16));
    dispatcher.attach_ring(ring.clone());
    rig.vfs.dcache().set_dispatcher(Some(dispatcher.clone()));
    let inst = run_postmark(&rig, &p, &cfg);
    let inst_elapsed = inst.elapsed.elapsed();
    let events = dispatcher.stats().events;
    let hits_per_sec = events as f64 / 2.0 / inst.elapsed.elapsed_secs();

    // Drain for the logger variants' bookkeeping.
    let mut drained = Vec::new();
    while ring.pop_bulk(&mut drained, 4_096) > 0 {}
    let record_count = (drained.len() as u64).max(events / 2);

    // Rung 2: + user-space polling logger, no disk writes.
    // (1) mirrors the workload's CPU 1:1; (2) per-I/O-wakeup scheduling
    // delay behind the busy-polling competitor; (3) the chardev reads, one
    // crossing per 128-record batch plus the per-record copy. The read
    // cost is computed from what `CharDev::read` charges; the records are
    // not actually read through a `CharDev`.
    let cost = CostModel::default();
    let cpu = inst.elapsed.user + inst.elapsed.sys;
    let wakeups = inst.stats.disk_reads + inst.stats.disk_writes;
    const SCHED_DELAY_CYCLES: u64 = 255_000; // 0.15 ms at 1.7 GHz
    let sched_delay = wakeups * SCHED_DELAY_CYCLES;
    let reads = record_count / 128 + 1;
    let read_cost =
        reads * cost.crossing_cost() + cost.copy_cost(record_count as usize * WIRE_RECORD_BYTES);
    let nodisk_elapsed = inst_elapsed + cpu + sched_delay + read_cost;

    // Rung 3: + synchronous log flushes to the second disk: one seek +
    // transfer per read batch (the paper used a separate 15 kRPM SCSI
    // disk; we keep the default disk model, which only strengthens the
    // effect).
    let log_bytes = record_count * WIRE_RECORD_BYTES as u64;
    let disk_cost = reads * (cost.disk_seek / 3 + cost.disk_rotate / 3)
        + cost.disk_transfer(log_bytes as usize);
    let disk_elapsed = nodisk_elapsed + disk_cost;

    // The fix: blocking reads — the logger sleeps between event batches.
    let fix_elapsed = inst_elapsed + read_cost;

    let ring_ovh = overhead_pct(base_elapsed, inst_elapsed);
    let nodisk_ovh = overhead_pct(base_elapsed, nodisk_elapsed);
    let disk_ovh = overhead_pct(base_elapsed, disk_elapsed);
    let fix_ovh = overhead_pct(base_elapsed, fix_elapsed);
    let sys_delta = overhead_pct(base.elapsed.sys, inst.elapsed.sys);

    println!("baseline PostMark: {} cycles ({:.2} simulated s)", base_elapsed, base.elapsed.elapsed_secs());
    println!("dcache_lock hits: {} ({hits_per_sec:.0}/s; paper: 8,805/s)", events / 2);
    println!("\n{:<38} {:>14} {:>9}", "configuration", "elapsed(cyc)", "overhead");
    println!("{:<38} {:>14} {:>9}", "vanilla", base_elapsed, "-");
    println!("{:<38} {:>14} {:>8.1}%", "dispatcher + ring (in-kernel)", inst_elapsed, ring_ovh);
    println!("{:<38} {:>14} {:>8.1}%", "+ polling user logger (no disk)", nodisk_elapsed, nodisk_ovh);
    println!("{:<38} {:>14} {:>8.1}%", "+ log writes to disk", disk_elapsed, disk_ovh);
    println!("{:<38} {:>14} {:>8.1}%", "blocking-read logger (the fix)", fix_elapsed, fix_ovh);
    println!("\nsystem-time change with instrumentation: {sys_delta:+.1}% (paper: ~constant)");

    report.add(
        "E6",
        "dcache_lock hit rate",
        "8,805 /s",
        format!("{hits_per_sec:.0} /s"),
        hits_per_sec > 1_000.0,
    );
    report.add(
        "E6",
        "dispatcher+ring overhead",
        "3.9%",
        format!("{ring_ovh:.1}%"),
        (0.0..12.0).contains(&ring_ovh),
    );
    report.add(
        "E6",
        "polling logger (no disk)",
        "61%",
        format!("{nodisk_ovh:.1}%"),
        nodisk_ovh > 25.0 && nodisk_ovh > ring_ovh * 4.0,
    );
    report.add(
        "E6",
        "polling logger + disk log",
        "103%",
        format!("{disk_ovh:.1}%"),
        disk_ovh > nodisk_ovh,
    );
    report.add(
        "E6",
        "system time under instrumentation",
        "effectively constant",
        format!("{sys_delta:+.1}%"),
        sys_delta.abs() < 15.0,
    );
    report.add(
        "E6",
        "blocking-read fix",
        "(proposed)",
        format!("{fix_ovh:.1}%"),
        fix_ovh < nodisk_ovh / 4.0,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
