//! A10 (perf opt): kuring shared rings — batched asynchronous syscalls.
//!
//! The paper's whole performance argument is crossing arithmetic: §2.2
//! consolidates *fixed* sequences into one call, §2.3 compiles arbitrary
//! user fragments into the kernel, and both win by deleting crossings.
//! kuring is the generic endpoint without the compiler: submissions queue
//! in shared rings at memcpy cost, one `sys_ring_enter` crossing drains a
//! whole batch through the same `k_*` paths, completions flow back with
//! zero crossings at reap time.
//!
//! Two claims are gated here:
//!
//! 1. **Micro**: a batch of N ring ops costs exactly ONE crossing — the
//!    stats delta across `ring_enter` says 1 whatever N is.
//! 2. **Macro**: on the concurrent web-server workload at 64 connections,
//!    the uring serve path cuts server cycles/request by ≥40% against the
//!    classic server, and beats the one-shot consolidated call too.
//!
//! The sweep also surfaces the backpressure counters (`send_eagains`,
//! bytes through the socket rings) so a starved or stalling configuration
//! is visible in the table, not hidden behind an average.

use bench::{banner, Report};
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig, WebReport};
use kucode::prelude::*;

const MODES: [(&str, ServeMode); 4] = [
    ("classic", ServeMode::Classic),
    ("sendfile", ServeMode::Consolidated),
    ("one-shot", ServeMode::OneShot),
    ("uring", ServeMode::Uring),
];

fn serve_once(cfg: &WebConfig, mode: ServeMode) -> WebReport {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    setup_docs(&rig, &p, cfg);
    serve(&rig, &p, cfg, mode, 1)
}

/// Server CPU cycles per request, the sweep's figure of merit.
fn cpr(r: &WebReport) -> f64 {
    r.server_cycles as f64 / r.requests as f64
}

/// Push `batch` no-ops, then measure the `ring_enter` that drains them.
/// Returns the crossing count the whole batch paid.
fn crossings_for_batch(batch: usize) -> u64 {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, batch, batch), 0);
    let ring = rig.sys.uring(p.pid).unwrap();
    for i in 0..batch {
        ring.push_sqe(Sqe::nop(i as u64)).unwrap();
    }
    let before = rig.machine.stats.snapshot();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, batch, batch), batch as i64);
    let d = rig.machine.stats.snapshot().delta(&before);
    while ring.reap_cqe().is_some() {}
    d.crossings
}

pub fn run(report: &mut Report) {
    banner(
        "A10",
        "kuring rings: batched syscalls (one crossing per batch)",
    );
    let batches = [1, 8, 64, 256];
    let req_per_conn = 8;

    // Micro: the crossing bill of a batch is flat, not linear.
    println!(
        "\n{:<12} {:>16} {:>12}",
        "batch size", "ops submitted", "crossings"
    );
    let mut all_single = true;
    for n in batches {
        let crossings = crossings_for_batch(n);
        println!("{:<12} {:>16} {:>12}", n, n, crossings);
        all_single &= crossings == 1;
    }
    report.add(
        "A10",
        "ring_enter batches N ops into one crossing",
        "1 crossing at every batch size",
        if all_single {
            "1 at every size"
        } else {
            "NOT flat"
        },
        all_single,
    );

    // Macro: the connection sweep, same workload shape as A9.
    let mut at_64: Vec<(&str, WebReport)> = Vec::new();
    for conns in batches {
        let cfg = WebConfig {
            documents: 20,
            doc_min: 2 * 1024,
            doc_max: 16 * 1024,
            requests: conns * req_per_conn,
            connections: conns,
            ..WebConfig::default()
        };
        println!(
            "\n{} connections x {} batches, {} documents of {}-{} KiB",
            conns,
            req_per_conn,
            cfg.documents,
            cfg.doc_min / 1024,
            cfg.doc_max / 1024
        );
        println!(
            "{:<12} {:>12} {:>16} {:>14} {:>8} {:>10} {:>10}",
            "serve path",
            "req/s",
            "srv cycles/req",
            "crossings/req",
            "EAGAIN",
            "MiB moved",
            "vs classic"
        );

        let mut classic_cpr = 0.0;
        for (name, mode) in MODES {
            let r = serve_once(&cfg, mode);
            if mode == ServeMode::Classic {
                classic_cpr = cpr(&r);
            }
            println!(
                "{:<12} {:>12.0} {:>16.0} {:>14.2} {:>8} {:>10.2} {:>+9.1}%",
                name,
                r.req_per_sec(),
                cpr(&r),
                r.crossings as f64 / r.requests as f64,
                r.net.send_eagains,
                r.net.bytes_delivered as f64 / (1024.0 * 1024.0),
                (classic_cpr / cpr(&r) - 1.0) * 100.0
            );
            if conns == 64 {
                at_64.push((name, r));
            }
        }
    }

    // Acceptance gates are read at the 64-connection point.
    let classic = &at_64[0].1;
    let oneshot = &at_64[2].1;
    let uring = &at_64[3].1;
    let cut = (1.0 - cpr(uring) / cpr(classic)) * 100.0;
    report.add(
        "A10",
        "uring server cycles/request cut vs classic @64 conns",
        ">=40% fewer cycles",
        format!("-{cut:.1}%"),
        cut >= 40.0,
    );
    report.add(
        "A10",
        "uring beats the one-shot consolidated call @64 conns",
        "fewer server cycles/request",
        format!("{:.0} < {:.0}", cpr(uring), cpr(oneshot)),
        cpr(uring) < cpr(oneshot),
    );
    report.add(
        "A10",
        "bytes served identical across all serve paths",
        "same content over the wire",
        at_64
            .iter()
            .all(|(_, r)| r.bytes_served == classic.bytes_served),
        at_64
            .iter()
            .all(|(_, r)| r.bytes_served == classic.bytes_served),
    );
    report.add(
        "A10",
        "no ring-full EAGAIN stalls in the uring path",
        "0 send_eagains",
        format!("{}", uring.net.send_eagains),
        uring.net.send_eagains == 0,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
