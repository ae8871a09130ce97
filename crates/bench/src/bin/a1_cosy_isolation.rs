//! A1 (ablation, §2.3): Cosy's two isolation approaches for user functions.
//!
//! Mode A (code + data in isolated segments) pays a far call per function
//! entry and exit but contains everything; mode B (data-only segment) has
//! no call overhead but weaker guarantees; no isolation is the unsafe
//! baseline. The paper describes this trade-off qualitatively ("to invoke a
//! function in a different segment involves overhead ... the second
//! approach involves no additional runtime overhead"); this ablation
//! quantifies it.

use bench::{banner, Report};
use kucode::prelude::*;

const CALLS: usize = 256;

fn run_mode(mode: IsolationMode) -> (u64, bool) {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 4, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 1).unwrap();
    // The hostile function pokes at *mapped* kernel memory (the shared data
    // buffer's kernel-side mapping): with no isolation this scribble lands;
    // the MMU alone cannot stop a same-privilege access.
    // KC ints are i64: the high kernel VA is expressed as its signed value.
    let target = db.kern_base() as i64;
    rig.cosy
        .load_program(&format!(
            "int tiny(int x) {{ return x * 2 + 1; }}\n\
             int escape() {{ int *p = {target}; *p = 1234567; return *p; }}"
        ))
        .unwrap();

    // Cost of CALLS invocations of a tiny function.
    let mut b = CompoundBuilder::new(&cb, &db);
    for i in 0..CALLS {
        b.call_user(0, "tiny", vec![CompoundBuilder::lit(i as i64)]);
    }
    b.finish().unwrap();
    let opts = CosyOptions { isolation: mode, ..Default::default() };
    let t0 = rig.machine.clock.snapshot();
    let results = rig.cosy.submit(p.pid, &cb, &db, &opts).unwrap();
    let cycles = rig.machine.clock.snapshot().delta(&t0).elapsed();
    assert_eq!(results[5], 11);

    // Containment check: does the kernel-memory scribble get stopped?
    db.kern_write(0, &[0u8; 8]).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    b.call_user(0, "escape", vec![]);
    b.finish().unwrap();
    let submit_failed = rig.cosy.submit(p.pid, &cb, &db, &opts).is_err();
    let mut word = [0u8; 8];
    db.kern_read(0, &mut word).unwrap();
    let corrupted = i64::from_le_bytes(word) == 1234567;
    let contained = submit_failed && !corrupted;
    (cycles, contained)
}

pub fn run(report: &mut Report) {
    banner("A1", "Cosy isolation modes: overhead vs containment");
    println!(
        "{:<12} {:>16} {:>14} {:>12}",
        "mode", "cycles/256 calls", "per-call", "contained?"
    );
    let (none_c, none_safe) = run_mode(IsolationMode::None);
    let (a_c, a_safe) = run_mode(IsolationMode::A);
    let (b_c, b_safe) = run_mode(IsolationMode::B);
    for (name, c, safe) in
        [("none", none_c, none_safe), ("mode A", a_c, a_safe), ("mode B", b_c, b_safe)]
    {
        println!(
            "{:<12} {:>16} {:>14} {:>12}",
            name,
            c,
            c / CALLS as u64,
            if safe { "yes" } else { "NO" }
        );
    }
    let a_entry_overhead = (a_c.saturating_sub(b_c)) / CALLS as u64;
    println!("\nmode A entry/exit premium: ~{a_entry_overhead} cycles per call");

    report.add("A1", "mode A contains escapes", "yes", a_safe, a_safe);
    report.add("A1", "mode B contains escapes", "yes (data refs)", b_safe, b_safe);
    report.add(
        "A1",
        "no-isolation contains escapes",
        "no (unsafe)",
        none_safe,
        !none_safe,
    );
    report.add(
        "A1",
        "mode A vs B per-call premium",
        "segment-switch cost",
        format!("{a_entry_overhead} cycles"),
        a_c > b_c,
    );
    report.add(
        "A1",
        "mode B vs none premium",
        "\"no additional runtime overhead\"",
        format!("{} cycles/call", (b_c.saturating_sub(none_c)) / CALLS as u64),
        b_c < a_c,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
