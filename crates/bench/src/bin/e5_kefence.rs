//! E5 (§3.2): Kefence overhead on the Am-utils compile over Wrapfs.
//!
//! Paper: instrumented (vmalloc + guard pages) Wrapfs cost **1.4 % elapsed
//! time** over vanilla (kmalloc) Wrapfs; during the compile the maximum
//! number of outstanding allocated pages was **2,085** and the average
//! allocation was **80 bytes**.

use bench::{banner, Report};
use kucode::prelude::*;

pub fn run(report: &mut Report) {
    banner("E5", "Kefence overhead on Am-utils compile over Wrapfs");

    let cfg = CompileConfig::default();

    // Baseline: Wrapfs with kmalloc.
    let rig = Rig::wrapfs_kmalloc();
    let p = rig.user(1 << 16);
    let base = run_compile(&rig, &p, &cfg);
    let b_allocs = rig.wrapfs.as_ref().unwrap().alloc_stats().allocs;

    // Instrumented: Wrapfs with Kefence (kmalloc→guarded-vmalloc flag).
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let inst = run_compile(&rig, &p, &cfg);

    let overhead = overhead_pct(base.elapsed.elapsed(), inst.elapsed.elapsed());
    let sys_overhead = overhead_pct(base.elapsed.sys, inst.elapsed.sys);
    let st = kef.stats();
    let (allocs, frees) = (st.allocs, st.frees);

    println!("workload: {} sources compiled, {} KiB read", cfg.source_files, inst.bytes_read / 1024);
    println!(
        "elapsed: vanilla {} → kefence {} cycles  (+{overhead:.2}%)",
        base.elapsed.elapsed(),
        inst.elapsed.elapsed()
    );
    println!(
        "system:  vanilla {} → kefence {} cycles  (+{sys_overhead:.2}%)",
        base.elapsed.sys, inst.elapsed.sys
    );
    println!("allocation traffic: {b_allocs} (kmalloc run) vs {allocs} (kefence run), {frees} frees");
    println!(
        "kefence: max outstanding pages {}, average allocation {:.0} B, {} violations",
        st.max_outstanding_pages,
        st.avg_alloc_size(),
        kef.violations().len()
    );

    report.add(
        "E5",
        "elapsed overhead",
        "1.4%",
        format!("{overhead:.2}%"),
        (0.0..8.0).contains(&overhead),
    );
    report.add(
        "E5",
        "max outstanding pages",
        "2,085",
        st.max_outstanding_pages,
        st.max_outstanding_pages > 100,
    );
    report.add(
        "E5",
        "average allocation size",
        "80 B (their op mix)",
        format!("{:.0} B", st.avg_alloc_size()),
        st.avg_alloc_size() < 4096.0,
    );
    report.add(
        "E5",
        "violations on clean workload",
        "0",
        kef.violations().len(),
        kef.violations().is_empty(),
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
