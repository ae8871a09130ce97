//! A14 (new subsystem): kprog — verified in-kernel bytecode programs.
//!
//! §2.3's compiled-code argument, generalized: instead of consolidating a
//! *fixed* syscall sequence, load a small verified program at an attach
//! point and let it make the next decision without surfacing to user
//! space. The verifier proves a fuel bound and memory safety at load
//! time, so the runtime needs no watchdog — the proof replaces it.
//!
//! The headline workload is a pointer chase through a file: node N holds
//! the offset of node N+1, so every read depends on the previous
//! completion. Batching cannot help — the user-space uring loop pays one
//! `ring_enter` crossing per hop (submit, drain, parse, resubmit). A
//! verified CQE program walks the same chain at completion time inside
//! the kernel: ONE submission, ONE crossing, one terminator CQE.
//!
//! Gates:
//!
//! 1. **Headline**: kernel-walked chase beats the user loop by ≥2x in
//!    cycles per hop at the full chain length.
//! 2. Both walkers recover the chain's ground truth exactly.
//! 3. The kernel walk's crossing bill is O(1) in chain length; the user
//!    loop's is O(n).
//! 4. Re-loading a program is a cache hit — verification runs once — and
//!    10,000 distinct programs leave at most the cache's 256-entry budget.
//! 5. A syscall-entry filter vetoes writes, passes reads, and detaches
//!    cleanly.

use std::sync::Arc;

use bench::{banner, Report};
use kucode::kworkloads::{ChaseFile, CHASE_CQE_SRC, READONLY_FILTER_SRC};
use kucode::prelude::*;

struct Sample {
    run: ChaseRun,
    cycles: u64,
    syscalls: u64,
    crossings: u64,
}

impl Sample {
    fn cycles_per_hop(&self) -> f64 {
        self.cycles as f64 / self.run.hops.max(1) as f64
    }
}

/// One chase on a fresh rig: cycles, syscalls, and crossings for the walk
/// alone (setup and open are outside the measured window).
fn measure(n: usize, kernel: bool) -> (ChaseFile, Sample) {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let truth = setup_chase(&rig, &p, "/chain", n, 0xA14);
    let fd = rig.sys.sys_open(p.pid, "/chain", OpenFlags::RDONLY);
    assert!(fd >= 0);

    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let run = if kernel {
        chase_kernel(&rig, &p, fd as i32)
    } else {
        chase_user(&rig, &p, fd as i32)
    };
    let d = rig.machine.stats.snapshot().delta(&s0);
    let iv = rig.machine.clock.snapshot().delta(&t0);
    let sample = Sample {
        run,
        cycles: iv.elapsed(),
        syscalls: d.syscalls,
        crossings: d.crossings,
    };
    (truth, sample)
}

/// Verification runs once per (spec, source): the second load of the
/// chase program is a cache hit that returns the same proof object.
fn cache_skips_reverification() -> bool {
    let rig = Rig::memfs();
    let engine = ProgEngine::new(rig.machine.clone());
    let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(16);
    let p1 = engine.load(CHASE_CQE_SRC, &spec).unwrap();
    let p2 = engine.load(CHASE_CQE_SRC, &spec).unwrap();
    let stats = engine.cache_stats();
    Arc::ptr_eq(&p1, &p2) && stats.hits == 1 && stats.misses == 1
}

/// Loading `FLOOD` distinct programs keeps the verified-program cache at
/// its 256-entry budget. Returns the cache's entry count.
fn program_cache_entries_after_flood() -> usize {
    const FLOOD: usize = 10_000;
    let rig = Rig::memfs();
    let engine = ProgEngine::new(rig.machine.clone());
    let spec = ProgSpec::new(HookClass::SyscallEntry, "f");
    for i in 0..FLOOD {
        let src = format!("int f(int *ctx, int *state) {{ return {i}; }}");
        engine.load(&src, &spec).unwrap();
    }
    assert_eq!(engine.cache_stats().misses, FLOOD as u64);
    engine.cache_stats().entries
}

/// The read-only filter vetoes writes at syscall entry, passes reads, and
/// a detach restores the unfiltered path.
fn filter_vetoes_writes() -> bool {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let fd = rig
        .sys
        .sys_open(p.pid, "/guarded", OpenFlags::RDWR | OpenFlags::CREAT);
    assert!(fd >= 0);
    p.stage(&rig, b"hello");
    assert_eq!(rig.sys.sys_write(p.pid, fd as i32, p.buf, 5), 5);

    let engine = ProgEngine::new(rig.machine.clone());
    let prog = engine
        .load(
            READONLY_FILTER_SRC,
            &ProgSpec::new(HookClass::SyscallEntry, "f"),
        )
        .unwrap();
    let att = Arc::new(Attachment::new(rig.machine.clone(), prog).unwrap());
    rig.sys.attach_syscall_filter(p.pid, att.clone()).unwrap();

    let vetoed = rig.sys.sys_write(p.pid, fd as i32, p.buf, 5);
    assert_eq!(rig.sys.sys_lseek(p.pid, fd as i32, 0, 0), 0);
    let read_ok = rig.sys.sys_read(p.pid, fd as i32, p.buf, 5);

    rig.sys.detach_syscall_filter(p.pid).unwrap();
    let restored = rig.sys.sys_write(p.pid, fd as i32, p.buf, 5);

    vetoed < 0 && read_ok == 5 && restored == 5 && att.state()[0] >= 1
}

pub fn run(report: &mut Report) {
    banner(
        "A14",
        "kprog: verified CQE programs vs the user drain/resubmit loop",
    );
    let sizes = [64, 512, 2048];

    println!(
        "\n{:<8} {:<8} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "hops", "walker", "cycles", "cycles/hop", "syscalls", "crossings", "speedup"
    );
    let mut truths_hold = true;
    let mut kernel_crossings = Vec::new();
    let mut user_syscalls_linear = true;
    let mut headline_ratio = 0.0;
    for n in sizes {
        let (truth_u, user) = measure(n, false);
        let (truth_k, kern) = measure(n, true);
        for (truth, s) in [(&truth_u, &user), (&truth_k, &kern)] {
            truths_hold &= s.run.hops == truth.hops && s.run.value_sum == truth.value_sum;
        }
        user_syscalls_linear &= user.syscalls >= n as u64;
        kernel_crossings.push(kern.crossings);
        let ratio = user.cycles_per_hop() / kern.cycles_per_hop();
        headline_ratio = ratio; // last size = full chain
        for (name, s) in [("user", &user), ("kernel", &kern)] {
            println!(
                "{:<8} {:<8} {:>12} {:>14.0} {:>10} {:>10} {:>9.2}x",
                n,
                name,
                s.cycles,
                s.cycles_per_hop(),
                s.syscalls,
                s.crossings,
                user.cycles_per_hop() / s.cycles_per_hop(),
            );
        }
    }

    report.add(
        "A14",
        "verified CQE program beats the user drain/resubmit loop",
        ">=2x fewer cycles/hop at full chain length",
        format!("{headline_ratio:.2}x"),
        headline_ratio >= 2.0,
    );
    report.add(
        "A14",
        "both walkers recover the chain's ground truth",
        "hops and value sums match at every size",
        truths_hold,
        truths_hold,
    );
    let flat = kernel_crossings.windows(2).all(|w| w[0] == w[1]);
    report.add(
        "A14",
        "kernel walk crossings are O(1) in chain length",
        "same crossing bill at every size",
        format!("{kernel_crossings:?}, user O(n): {user_syscalls_linear}"),
        flat && user_syscalls_linear,
    );
    let cached = cache_skips_reverification();
    report.add(
        "A14",
        "program cache: second load skips verification",
        "1 hit, 1 miss, same proof object",
        cached,
        cached,
    );
    let entries = program_cache_entries_after_flood();
    report.add(
        "A14",
        "program cache: 10,000 distinct programs",
        "<= 256 entries",
        format!("{entries} entries"),
        entries <= 256,
    );
    let filtered = filter_vetoes_writes();
    report.add(
        "A14",
        "syscall-entry filter vetoes writes, passes reads, detaches",
        "write -> veto, read -> 5 bytes, detach restores",
        filtered,
        filtered,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
