//! Run every experiment and ablation, print the paper-vs-simulated
//! summary, and write `bench_report.json`. Exits 1 when any finding that
//! is not host-timed reads DIFF, so the run is the CI gate.
//!
//! ```sh
//! cargo run --release -p bench --bin all
//! ```

#![allow(dead_code)] // each included module carries its own unused main()

use bench::Report;

// The per-experiment binaries expose their logic as `run(&mut Report)`;
// include them as modules so `all` stays a single process (one build, one
// pass, one consolidated report).
#[path = "a1_cosy_isolation.rs"]
mod a1;
#[path = "a10_uring.rs"]
mod a10;
#[path = "a11_throughput.rs"]
mod a11;
#[path = "a12_smp.rs"]
mod a12;
#[path = "a13_crashsweep.rs"]
mod a13;
#[path = "a14_kprog.rs"]
mod a14;
#[path = "a15_journal.rs"]
mod a15;
#[path = "a2_kgcc_ablate.rs"]
mod a2;
#[path = "a3_splay_mt.rs"]
mod a3;
#[path = "a4_vfree_hash.rs"]
mod a4;
#[path = "a5_kefence_sampling.rs"]
mod a5;
#[path = "a6_webserver.rs"]
mod a6;
#[path = "a7_bytecode.rs"]
mod a7;
#[path = "a8_faultsweep.rs"]
mod a8;
#[path = "a9_netserve.rs"]
mod a9;
#[path = "e1_readdirplus.rs"]
mod e1;
#[path = "e2_interactive.rs"]
mod e2;
#[path = "e3_cosy_micro.rs"]
mod e3;
#[path = "e4_cosy_db.rs"]
mod e4;
#[path = "e5_kefence.rs"]
mod e5;
#[path = "e6_monitor.rs"]
mod e6;
#[path = "e7_kgcc.rs"]
mod e7;

fn main() {
    let mut report = Report::new();
    // A11 measures host wall-clock throughput, so it runs first, on the
    // pristine process: ten benches' worth of heap churn ahead of it
    // costs ~20% of the measured rate. Every other bench reports
    // simulated cycles and is insensitive to ordering.
    a11::run(&mut report);
    // A12's host-threaded phase is also wall-clock; run it second, before
    // the cycle-domain experiments churn the heap.
    a12::run(&mut report);
    e1::run(&mut report);
    e2::run(&mut report);
    e3::run(&mut report);
    e4::run(&mut report);
    e5::run(&mut report);
    e6::run(&mut report);
    e7::run(&mut report);
    a1::run(&mut report);
    a2::run(&mut report);
    a3::run(&mut report);
    a4::run(&mut report);
    a5::run(&mut report);
    a6::run(&mut report);
    a7::run(&mut report);
    a8::run(&mut report);
    a9::run(&mut report);
    a10::run(&mut report);
    a13::run(&mut report);
    a14::run(&mut report);
    a15::run(&mut report);

    report.print();
    let holds = report.all_shapes_hold();
    std::fs::write("bench_report.json", report.to_json()).expect("write bench_report.json");
    println!(
        "\n{} findings, shapes hold: {holds}; JSON written to bench_report.json",
        report.findings.len()
    );
    if !holds {
        std::process::exit(1);
    }
}
