//! Host-timed closed-loop benchmark of the simulated kernel.
//!
//! One host thread drives one simulated client; the next operation is
//! issued only after the previous one completed. A run repeats *rounds*
//! until its time is up: each round boots a fresh rig, populates and warms
//! it (timed as set-up), then executes the same seeded operation sequence
//! (timed as the measured phase). Every round of a seed does identical
//! work, so the end-to-end metrics are quartiles over rounds of host time,
//! and the per-layer counts — public stats snapshots around the measured
//! phase — are exact.
//!
//! With tracing on, rounds alternate untraced and traced. Traced rounds
//! record a span around every call into a layer ([`trace`]), which splits
//! the measured host time by layer; the untraced rounds of the same run
//! give the tracing overhead.

pub mod counts;
pub mod db;
pub mod mail;
pub mod trace;
pub mod web;

use std::time::{Duration, Instant};

use counts::Raw;
use trace::{Span, SpanTotals, Tracer};

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host latency of every operation, in nanoseconds.
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    /// Operations that returned an error or wrong data.
    pub failed: u64,
}

/// A benchmark workload: set-up builds a fresh, populated, warmed rig.
pub trait Workload: Sized {
    type Config;
    fn setup(cfg: &Self::Config, tr: &Tracer) -> Self;
    /// Execute the measured seeded operation sequence.
    fn measure(&mut self, tr: &Tracer) -> Measured;
    /// Check the state the measured phase left behind; one string per
    /// failure found.
    fn check(&self) -> Vec<String>;
    /// Snapshot of every layer's counters.
    fn raw(&self) -> Raw;
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Spans of the first traced round (set-up then measured phase).
    pub spans: Vec<Span>,
    /// Human-readable notes: sample counts, rounds, check failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One round's measurements.
struct Round {
    traced: bool,
    setup_s: f64,
    measured_s: f64,
    lat_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    layers: Vec<(&'static str, f64, &'static str)>,
    runq_wait_ns: u64,
    /// Set-up spans, then measured-phase spans from index `setup_len`.
    spans: Vec<Span>,
    setup_len: usize,
}

fn run_round<W: Workload>(cfg: &W::Config, traced: bool) -> Round {
    let tr = Tracer::new(traced);
    let t0 = Instant::now();
    let mut w = W::setup(cfg, &tr);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_len = tr.recorded();

    let before = w.raw();
    let wait0 = runq_wait_ns();
    let t1 = Instant::now();
    let m = w.measure(&tr);
    let measured_s = t1.elapsed().as_secs_f64();
    let runq_wait_ns = runq_wait_ns().saturating_sub(wait0);
    let after = w.raw();

    let problems = w.check();
    drop(w);
    Round {
        traced,
        setup_s,
        measured_s,
        layers: counts::layer_metrics(&before, &after, m.attempted),
        attempted: m.attempted,
        failed: m.failed,
        lat_ns: m.lat_ns,
        problems,
        runq_wait_ns,
        spans: tr.into_spans(),
        setup_len,
    }
}

/// Run rounds of workload `W` for at least `budget` (and at least three
/// rounds; four when traced, two of each kind) and reduce them to the
/// result: end-to-end metrics untraced, per-layer metrics traced.
pub fn run<W: Workload>(cfg: &W::Config, budget: Duration, trace: bool) -> Report {
    let start = Instant::now();
    let min_rounds = if trace { 4 } else { 3 };
    let mut rounds = Vec::new();
    // The peak of one boot-populate-measure cycle. Read after the first
    // round, so allocator reuse across a varying number of later rounds
    // does not move it.
    let mut peak_rss = 0.0;
    while rounds.len() < min_rounds || start.elapsed() < budget {
        // Traced runs alternate, untraced first, so both kinds see the
        // same share of any drift in host speed.
        let traced = trace && rounds.len() % 2 == 1;
        rounds.push(run_round::<W>(cfg, traced));
        if rounds.len() == 1 {
            peak_rss = peak_rss_mib();
        }
    }
    reduce(rounds, trace, peak_rss)
}

fn reduce(rounds: Vec<Round>, trace: bool, peak_rss: f64) -> Report {
    let mut notes = Vec::new();
    let mut problems: Vec<String> = rounds.iter().flat_map(|r| r.problems.clone()).collect();
    if rounds.iter().any(|r| r.layers != rounds[0].layers) {
        problems.push("per-layer counts differ between rounds of one seed".into());
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    notes.push(format!(
        "rounds {} ({} traced); {} latency samples per round; {} attempted, {} failed",
        rounds.len(),
        traced.len(),
        rounds[0].lat_ns.len(),
        attempted,
        failed
    ));

    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { untraced.iter().map(|r| f(r)).collect() };
    let rate = |r: &Round| (r.attempted - r.failed) as f64 / r.measured_s;
    let p50 = |r: &Round| percentile_us(&r.lat_ns, 0.50);
    let p99 = |r: &Round| percentile_us(&r.lat_ns, 0.99);
    let setup = |r: &Round| r.setup_s;
    for (name, f) in [
        ("ops/s", &rate as &dyn Fn(&Round) -> f64),
        ("p50_us", &p50),
        ("p99_us", &p99),
        ("setup_s", &setup),
    ] {
        notes.push(format!("untraced rounds {name}: {:.4?}", per_round(f)));
    }
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = if !trace {
        // Host speed drifts between faster and slower phases lasting
        // seconds to minutes. Each value is the slower quartile over
        // rounds: the rate three quarters of the rounds reached, the time
        // three quarters stayed within. A fast phase shorter than three
        // quarters of a run then does not move the run's result.
        vec![
            metric("ops_per_s", quantile(per_round(&rate), 0.25), "1/s"),
            metric("p50_us", quantile(per_round(&p50), 0.75), "us"),
            metric("p99_us", quantile(per_round(&p99), 0.75), "us"),
            metric("setup_s", quantile(per_round(&setup), 0.75), "s"),
            metric("peak_rss_mib", peak_rss, "MiB"),
        ]
    } else {
        let mut m: Vec<Metric> = rounds[0]
            .layers
            .iter()
            .map(|&(n, v, u)| metric(n, v, u))
            .collect();
        let mut in_setup = SpanTotals::default();
        let mut measured = SpanTotals::default();
        for r in &traced {
            in_setup.add(&r.spans[..r.setup_len]);
            measured.add(&r.spans[r.setup_len..]);
        }
        for (name, totals, span) in [
            ("ksyscall.sys_call_us", &measured, "ksyscall.sys_call"),
            ("ksyscall.fsync_us", &measured, "ksyscall.fsync"),
            ("kuring.ring_enter_us", &measured, "kuring.ring_enter"),
            ("cosy.probe_submit_us", &measured, "cosy.probe_submit"),
            ("cosy.scan_submit_us", &measured, "cosy.scan_submit"),
            ("kprog.chase_enter_us", &measured, "kprog.chase_enter"),
            ("kprog.verify_us", &in_setup, "kprog.verify"),
            ("kclang.load_program_us", &in_setup, "kclang.load_program"),
        ] {
            m.push(metric(name, totals.mean_us(span), "us"));
        }
        let traced_ns: f64 = traced.iter().map(|r| r.measured_s * 1e9).sum();
        m.push(metric(
            "driver.self_pct",
            100.0 * (traced_ns - measured.in_program_ns as f64) / traced_ns,
            "%",
        ));
        let all_ns: f64 = rounds.iter().map(|r| r.measured_s * 1e9).sum();
        let wait_ns: u64 = rounds.iter().map(|r| r.runq_wait_ns).sum();
        m.push(metric(
            "host.runq_wait_pct",
            100.0 * wait_ns as f64 / all_ns,
            "%",
        ));
        let t = quantile(traced.iter().map(|r| r.measured_s).collect(), 0.5);
        let u = quantile(untraced.iter().map(|r| r.measured_s).collect(), 0.5);
        m.push(metric("trace.overhead_pct", 100.0 * (t / u - 1.0), "%"));
        for (name, &(n, ns)) in &measured.calls {
            notes.push(format!(
                "span {name}: {n} calls, {:.3} us mean",
                ns as f64 / n as f64 / 1e3
            ));
        }
        m
    };
    notes.extend(problems.iter().take(10).cloned());
    let spans = rounds
        .into_iter()
        .find(|r| r.traced)
        .map(|r| r.spans)
        .unwrap_or_default();
    Report {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        spans,
        notes,
    }
}

/// Nearest-rank quantile `q` of `v`.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no values");
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nearest-rank percentile `q` of nanosecond samples, in microseconds.
pub fn percentile_us(samples: &[u64], q: f64) -> f64 {
    quantile(samples.iter().map(|&ns| ns as f64 / 1e3).collect(), q)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds this thread has waited on a run queue
/// (`/proc/thread-self/schedstat`, second field).
fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// SplitMix64: the seeded stream every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` items holding exactly `n * percent / 100` of each kind (the
    /// rounding remainder goes to the first), in seeded order. A fixed mix
    /// keeps a round's work the same across seeds.
    pub fn deck<T: Copy>(&mut self, n: usize, mix: &[(T, usize)]) -> Vec<T> {
        assert_eq!(
            mix.iter().map(|m| m.1).sum::<usize>(),
            100,
            "mix in percent"
        );
        let mut deck: Vec<T> = mix
            .iter()
            .flat_map(|&(t, pct)| vec![t; n * pct / 100])
            .collect();
        deck.splice(0..0, vec![mix[0].0; n - deck.len()]);
        for i in (1..deck.len()).rev() {
            deck.swap(i, self.below(i + 1));
        }
        deck
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&v, 0.50), 50.0);
        assert_eq!(percentile_us(&v, 0.99), 99.0);
        assert_eq!(percentile_us(&[5000], 0.99), 5.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.75), 3.0);
        assert_eq!(quantile(vec![7.0], 0.75), 7.0);
    }

    #[test]
    fn rng_streams_are_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(2, 0);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn deck_holds_the_exact_mix() {
        let d = Rng::new(3, 0).deck(101, &[('a', 50), ('b', 30), ('c', 20)]);
        let count = |k| d.iter().filter(|&&x| x == k).count();
        assert_eq!((count('a'), count('b'), count('c')), (51, 30, 20));
    }
}
