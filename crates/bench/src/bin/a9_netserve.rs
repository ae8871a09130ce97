//! A9 (new subsystem): the knet web server under real concurrency.
//!
//! A6 measures the serve paths against a file-only request stream; this
//! experiment drives them through the simulated socket layer — a listener
//! with a bounded backlog, N concurrent client connections per batch,
//! readiness polling, per-socket rings with backpressure — and sweeps the
//! connection count. The paper's claim (§2.1) is that consolidation pays
//! off on exactly this shape: *"HTTP servers using these system calls
//! report performance improvements ranging from 92% to 116%."*
//!
//! The figure of merit is **server CPU cycles per request** (user + sys in
//! the server phase): a load generator never bills its own syscalls or the
//! server's background log write-back against server capacity, and neither
//! do we. We require the zero-copy `sendfile` path and the Cosy compound
//! to each cut server cycles/request by ≥25% against the naive
//! accept/recv/read+send server once the connection count reaches 64.

use bench::{banner, Report};
use kucode::kworkloads::{serve, setup_docs, ServeMode, WebConfig, WebReport};
use kucode::prelude::*;

const MODES: [(&str, ServeMode); 5] = [
    ("naive", ServeMode::Classic),
    ("sendfile", ServeMode::Consolidated),
    ("one-shot", ServeMode::OneShot),
    ("cosy compound", ServeMode::Cosy),
    ("uring batch", ServeMode::Uring),
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

pub fn run(report: &mut Report) {
    banner(
        "A9",
        "knet web server: connection sweep (paper: sendfile +92-116%)",
    );
    let req_per_conn = 8;

    let mut at_64: Vec<(&str, WebReport)> = Vec::new();
    for conns in [8, 64, 256] {
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
            "{:<16} {:>12} {:>18} {:>14} {:>8} {:>10} {:>12}",
            "serve path",
            "req/s",
            "srv cycles/req",
            "crossings/req",
            "EAGAIN",
            "MiB moved",
            "vs naive"
        );

        let mut naive_cpr = 0.0;
        for (name, mode) in MODES {
            let r = serve_once(&cfg, mode);
            if mode == ServeMode::Classic {
                naive_cpr = cpr(&r);
            }
            println!(
                "{:<16} {:>12.0} {:>18.0} {:>14.1} {:>8} {:>10.2} {:>+11.1}%",
                name,
                r.req_per_sec(),
                cpr(&r),
                r.crossings as f64 / r.requests as f64,
                r.net.send_eagains,
                r.net.bytes_delivered as f64 / (1024.0 * 1024.0),
                (naive_cpr / cpr(&r) - 1.0) * 100.0
            );
            if conns == 64 {
                at_64.push((name, r));
            }
        }
    }

    // Acceptance gates are read at the 64-connection point.
    let naive = &at_64[0].1;
    let sendfile = &at_64[1].1;
    let cosy = &at_64[3].1;
    let sf_cut = (1.0 - cpr(sendfile) / cpr(naive)) * 100.0;
    let cosy_cut = (1.0 - cpr(cosy) / cpr(naive)) * 100.0;
    report.add(
        "A9",
        "sendfile server cycles/request cut vs naive @64 conns",
        "sendfile-class: >=25% fewer cycles",
        format!("-{sf_cut:.1}%"),
        sf_cut >= 25.0,
    );
    report.add(
        "A9",
        "cosy server cycles/request cut vs naive @64 conns",
        ">=25% fewer cycles",
        format!("-{cosy_cut:.1}%"),
        cosy_cut >= 25.0,
    );
    report.add(
        "A9",
        "bytes served identical across all serve paths",
        "same content over the wire",
        at_64
            .iter()
            .all(|(_, r)| r.bytes_served == naive.bytes_served),
        at_64
            .iter()
            .all(|(_, r)| r.bytes_served == naive.bytes_served),
    );
    report.add(
        "A9",
        "crossings/request strictly shrink along the ladder",
        "naive > sendfile > one-shot > cosy",
        format!(
            "{:.1} > {:.1} > {:.1} > {:.1}",
            naive.crossings as f64 / naive.requests as f64,
            sendfile.crossings as f64 / sendfile.requests as f64,
            at_64[2].1.crossings as f64 / at_64[2].1.requests as f64,
            cosy.crossings as f64 / cosy.requests as f64,
        ),
        naive.crossings > sendfile.crossings
            && sendfile.crossings > at_64[2].1.crossings
            && at_64[2].1.crossings > cosy.crossings,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
