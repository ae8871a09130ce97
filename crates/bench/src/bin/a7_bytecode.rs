//! A7: the bytecode execution tier and the compound translation cache.
//!
//! Two claims are measured:
//!
//! 1. **VM speedup** — the bytecode VM must execute the experiments' kernel
//!    functions (the E7 fs-module op, an E3-style CPU-bound loop) at least
//!    2× faster than the tree-walking interpreter in *host* wall-clock
//!    time. (Simulated cycle charges are bit-identical by construction —
//!    the parity tests hold the two engines to that — so the win is pure
//!    dispatch efficiency.)
//! 2. **Translation cache** — resubmitting byte-identical compounds must
//!    hit the cache, skipping decode+validate and charging fewer simulated
//!    kernel cycles than a cold submission.
//!
//! `--quick` runs a reduced iteration count (CI smoke).

use std::time::Instant;

use bench::{banner, fmt_cycles, Report};
use kucode::kclang::{bytecode, Interp, Program, TypeInfo, Vm};
use kucode::ksim::{AsId, PteFlags, PAGE_SIZE};
use kucode::prelude::*;

/// The E7 file-system module op: name hashing + block checksumming.
const FS_OP: &str = r#"
    int fs_op(int words) {
        char name[28];
        int i;
        for (i = 0; i < 27; i = i + 1) { name[i] = 'a' + i % 26; }
        name[27] = '\0';
        int h = 5381;
        for (i = 0; i < 27; i = i + 1) { h = h * 33 + name[i]; }
        int *block = malloc(words * 8);
        for (i = 0; i < words; i = i + 1) { block[i] = i * 7 + h; }
        int acc = 0;
        for (i = 0; i < words; i = i + 1) { acc = acc + block[i]; }
        free(block);
        return acc;
    }
"#;

/// An E3-style CPU-bound user function submitted through Cosy.
const SUM_LOOP: &str = r#"
    int sum_squares(int n) {
        int i;
        int acc = 0;
        for (i = 1; i <= n; i = i + 1) { acc = acc + i * i % 97; }
        return acc;
    }
"#;

const ARENA: u64 = 0x400_0000;
const ARENA_PAGES: usize = 32;

struct Engines {
    machine: std::sync::Arc<Machine>,
    prog: Program,
    info: TypeInfo,
    module: bytecode::Module,
    asid: AsId,
}

impl Engines {
    fn new(src: &str) -> Self {
        let machine = std::sync::Arc::new(Machine::new(MachineConfig::default()));
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = bytecode::compile(&prog, &info).unwrap();
        let asid = machine.mem.create_space();
        for i in 0..ARENA_PAGES {
            machine
                .mem
                .map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw())
                .unwrap();
        }
        Engines { machine, prog, info, module, asid }
    }

    fn cfg(&self) -> ExecConfig {
        let mut cfg = ExecConfig::flat(self.asid);
        cfg.max_steps = None; // wall-clock measurement, not budget tests
        cfg
    }

    /// One tree-walked call. A fresh engine per call — the arena heap is a
    /// bump allocator, and this is how Cosy runs user functions (one engine
    /// per submission).
    fn run_interp(&self, func: &str, args: &[i64]) {
        let mut interp = Interp::new(
            &self.machine,
            &self.prog,
            &self.info,
            self.cfg(),
            ARENA,
            ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        interp.run(func, args).unwrap();
    }

    /// One bytecode-VM call (fresh per call, as above).
    fn run_vm(&self, func: &str, args: &[i64]) {
        let mut vm =
            Vm::new(&self.machine, &self.module, self.cfg(), ARENA, ARENA_PAGES * PAGE_SIZE)
                .unwrap();
        vm.run(func, args).unwrap();
    }

    /// Host nanoseconds per call for both engines. The engines run in
    /// alternating rounds and each reports its best round, so a background
    /// load spike hits both equally instead of skewing whichever engine was
    /// being timed when it landed.
    fn time_both(&self, func: &str, args: &[i64], iters: u32) -> (f64, f64) {
        const ROUNDS: u32 = 5;
        let per_round = (iters / ROUNDS).max(1);
        self.run_interp(func, args); // warm
        self.run_vm(func, args);
        let (mut best_i, mut best_v) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            for _ in 0..per_round {
                self.run_interp(func, args);
            }
            best_i = best_i.min(t0.elapsed().as_secs_f64() * 1e9 / per_round as f64);
            let t0 = Instant::now();
            for _ in 0..per_round {
                self.run_vm(func, args);
            }
            best_v = best_v.min(t0.elapsed().as_secs_f64() * 1e9 / per_round as f64);
        }
        (best_i, best_v)
    }
}

fn vm_speedup(report: &mut Report, quick: bool) {
    let iters = if quick { 30 } else { 300 };
    let cases: &[(&str, &str, &str, &[i64])] = &[
        ("E7 fs_op(512)", FS_OP, "fs_op", &[512]),
        ("E3 sum_squares(2000)", SUM_LOOP, "sum_squares", &[2000]),
    ];

    println!("{:<24} {:>14} {:>14} {:>9}", "kernel function", "interp ns/op", "vm ns/op", "speedup");
    for (label, src, func, args) in cases {
        let eng = Engines::new(src);
        // Sanity: identical results before timing anything.
        let mut i0 = Interp::new(
            &eng.machine, &eng.prog, &eng.info, eng.cfg(), ARENA, ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        let mut v0 =
            Vm::new(&eng.machine, &eng.module, eng.cfg(), ARENA, ARENA_PAGES * PAGE_SIZE)
                .unwrap();
        assert_eq!(
            i0.run(func, args).unwrap().ret,
            v0.run(func, args).unwrap().ret,
            "engines diverged on {label}"
        );
        drop((i0, v0));

        let (ni, nv) = eng.time_both(func, args, iters);
        let speedup = ni / nv;
        println!("{label:<24} {ni:>14.0} {nv:>14.0} {speedup:>8.2}x");
        report.add(
            "A7",
            &format!("VM speedup: {label}"),
            "\u{2265}2x",
            format!("{speedup:.2}x"),
            speedup >= 2.0,
        );
    }
}

fn translation_cache(report: &mut Report, quick: bool) {
    let submits = if quick { 8 } else { 64 };
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    rig.cosy.load_program(SUM_LOOP).unwrap();

    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 2, 4).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 5).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    for _ in 0..16 {
        b.syscall(CosyCall::Getpid, vec![]);
    }
    b.call_user(0, "sum_squares", vec![CompoundBuilder::lit(100)]);
    b.finish().unwrap();

    let submit_cost = || {
        let s0 = rig.machine.clock.sys_cycles();
        rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
        rig.machine.clock.sys_cycles() - s0
    };

    // Warm path: one miss, then hits.
    let cold = submit_cost();
    let mut warm_total = 0;
    for _ in 1..submits {
        warm_total += submit_cost();
    }
    let warm = warm_total / (submits as u64 - 1);
    let stats = rig.cosy.cache_stats();

    // Reference path: force a fresh decode every time.
    let mut uncached_total = 0;
    for _ in 0..submits {
        rig.cosy.clear_translation_cache();
        uncached_total += submit_cost();
    }
    let uncached = uncached_total / submits as u64;

    println!("\n{:<28} {:>12}", "submission", "sys cycles");
    println!("{:<28} {:>12}", "cold (decode+validate)", fmt_cycles(cold));
    println!("{:<28} {:>12}", "warm (cache hit)", fmt_cycles(warm));
    println!("{:<28} {:>12}", "cache cleared each time", fmt_cycles(uncached));
    println!(
        "cache: {} hits / {} misses over {} warm submissions",
        stats.hits, stats.misses, submits
    );

    report.add(
        "A7",
        "cache: repeat submissions hit",
        format!("{} hits", submits - 1),
        format!("{} hits / {} misses", stats.hits, stats.misses),
        stats.hits == submits as u64 - 1 && stats.misses == 1,
    );
    report.add(
        "A7",
        "cache: hit skips decode+validate",
        "warm < uncached",
        format!("{} vs {}", fmt_cycles(warm), fmt_cycles(uncached)),
        warm < uncached && warm < cold,
    );
}

pub fn run(report: &mut Report) {
    banner("A7", "Bytecode VM vs tree-walker + compound translation cache");
    let quick = std::env::args().any(|a| a == "--quick");
    vm_speedup(report, quick);
    translation_cache(report, quick);
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
