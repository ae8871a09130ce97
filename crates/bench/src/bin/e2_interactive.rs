//! E2 (§2.2): replaying ~15 minutes of interactive desktop activity and
//! estimating what `readdirplus` would save.
//!
//! Paper: boundary bytes 51,807,520 → 32,250,041 (62.2 % of baseline),
//! system calls 171,975 → 17,251 (10.0× fewer), ≈28.15 seconds saved per
//! hour.

use bench::{banner, Report};
use kucode::prelude::*;

pub fn run(report: &mut Report) {
    banner("E2", "interactive-workload consolidation estimate");

    let trace = InteractiveTraceGen::default().generate();
    let est = estimate_consolidation(&trace, &CostModel::default());

    let calls_ratio = est.calls_before as f64 / est.calls_after.max(1) as f64;
    let bytes_pct = 100.0 * est.bytes_after as f64 / est.bytes_before.max(1) as f64;

    println!("trace window: {:.1} simulated seconds", est.window_secs);
    println!("calls:  {:>12} → {:>12}  ({calls_ratio:.1}× fewer)", est.calls_before, est.calls_after);
    println!(
        "bytes:  {:>12} → {:>12}  ({bytes_pct:.1}% of baseline)",
        est.bytes_before, est.bytes_after
    );
    println!("crossings saved: {}", est.crossings_saved);
    println!("mechanical estimate: {:.2} s saved per hour", est.secs_saved_per_hour());

    // The paper's number came from applying *measured* per-call savings, so
    // also compute that method: measure the cycle cost of one stat round
    // trip on the live system and apply it to every eliminated call.
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let fd = rig.sys.sys_open(p.pid, "/probe", OpenFlags::WRONLY | OpenFlags::CREAT);
    rig.sys.sys_close(p.pid, fd as i32);
    rig.sys.sys_stat(p.pid, "/probe", p.buf); // warm
    let t0 = rig.machine.clock.snapshot();
    for _ in 0..1_000 {
        rig.machine.charge_user(1_200); // user-side path build (as in E1)
        rig.sys.sys_stat(p.pid, "/probe", p.buf);
    }
    let per_stat = rig.machine.clock.snapshot().delta(&t0).elapsed() / 1_000;
    let measured_secs_per_hour =
        cycles_to_secs(per_stat * est.crossings_saved) * 3_600.0 / est.window_secs;
    println!(
        "measured-savings estimate ({per_stat} cycles/stat): {measured_secs_per_hour:.2} s/hour"
    );

    // Pattern mining sanity: the heavy pairs the paper names must surface.
    let graph = SyscallGraph::from_trace(&trace);
    let top = graph.top_edges(5);
    println!("\nheaviest syscall-graph edges:");
    for (a, b, w) in &top {
        println!("  {a} → {b}: {w}");
    }
    let pats = mine_patterns(&trace, 2, 100);
    let rd_stat = pats.iter().any(|p| p.seq == vec![Sysno::Readdir, Sysno::Stat]);

    // §2.4's administrator view of the same trace.
    let suggestions = kucode::ktrace::advisor::advise(&trace, &CostModel::default(), 256);
    println!("\nadvisor recommendations for this workload:");
    print!("{}", kucode::ktrace::advisor::render_report(&suggestions[..suggestions.len().min(5)]));
    let recommends_rdp = suggestions.iter().any(|s| {
        s.remedy == kucode::ktrace::advisor::Remedy::UseConsolidated(Sysno::ReaddirPlus)
    });

    report.add(
        "E2",
        "syscall reduction",
        "171,975 → 17,251 (10.0×)",
        format!("{} → {} ({calls_ratio:.1}×)", est.calls_before, est.calls_after),
        calls_ratio > 4.0,
    );
    report.add(
        "E2",
        "boundary bytes after/before",
        "62.2%",
        format!("{bytes_pct:.1}%"),
        (40.0..90.0).contains(&bytes_pct),
    );
    report.add(
        "E2",
        "time saved per hour",
        "28.15 s (their estimate)",
        format!("{:.2}-{measured_secs_per_hour:.2} s", est.secs_saved_per_hour()),
        measured_secs_per_hour > 0.5,
    );
    report.add(
        "E2",
        "readdir→stat pattern mined",
        "found",
        if rd_stat { "found" } else { "missing" },
        rd_stat,
    );
    report.add(
        "E2",
        "advisor recommends readdirplus",
        "§2.4 tooling",
        recommends_rdp,
        recommends_rdp,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
