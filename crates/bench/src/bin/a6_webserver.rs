//! A6 (motivation, §2.1): the web-server serve path.
//!
//! The paper motivates consolidation with sendfile: *"HTTP servers using
//! these system calls report performance improvements ranging from 92% to
//! 116%."* This ablation serves the same request stream three ways —
//! classic open/read-loop/close + log write, the consolidated
//! `open_read_close` (the paper's sendfile analogue), and a Cosy compound
//! doing the whole request in one crossing — and reports throughput.

use bench::{banner, Report};
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig};
use kucode::prelude::*;

pub fn run(report: &mut Report) {
    banner("A6", "web-server serve paths (paper cites sendfile: +92-116%)");

    let cfg = WebConfig::default();
    println!(
        "{} documents of {}-{} KiB, {} requests, warm cache\n",
        cfg.documents,
        cfg.doc_min / 1024,
        cfg.doc_max / 1024,
        cfg.requests
    );
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>10}",
        "serve path", "req/s", "cycles/req", "crossings", "vs classic"
    );

    let mut results = Vec::new();
    for (name, mode) in [
        ("classic", ServeMode::Classic),
        ("sendfile", ServeMode::Consolidated),
        ("cosy compound", ServeMode::Cosy),
    ] {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        setup_docs(&rig, &p, &cfg);
        let r = serve(&rig, &p, &cfg, mode, 1);
        results.push((name, r));
    }

    let base_rps = results[0].1.req_per_sec();
    for (name, r) in &results {
        println!(
            "{:<16} {:>12.0} {:>14} {:>12} {:>+9.1}%",
            name,
            r.req_per_sec(),
            r.elapsed_cycles / r.requests,
            r.crossings,
            (r.req_per_sec() / base_rps - 1.0) * 100.0
        );
    }

    let orc_gain = (results[1].1.req_per_sec() / base_rps - 1.0) * 100.0;
    let cosy_gain = (results[2].1.req_per_sec() / base_rps - 1.0) * 100.0;
    report.add(
        "A6",
        "consolidated serve throughput gain",
        "sendfile-class: +92-116%",
        format!("{orc_gain:+.1}%"),
        orc_gain > 20.0,
    );
    report.add(
        "A6",
        "cosy serve throughput gain",
        "≥ consolidated (fewer crossings)",
        format!("{cosy_gain:+.1}%"),
        cosy_gain >= orc_gain - 8.0 && cosy_gain > 20.0,
    );
    report.add(
        "A6",
        "bytes served identical across paths",
        "same content",
        results.windows(2).all(|w| w[0].1.bytes_served == w[1].1.bytes_served),
        results.windows(2).all(|w| w[0].1.bytes_served == w[1].1.bytes_served),
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
