//! In-tree stand-in for the `criterion` API subset this workspace uses.
//!
//! The build environment has no registry access, so this crate provides a
//! compatible wall-clock micro-benchmark harness: `criterion_group!` /
//! `criterion_main!`, benchmark groups with `throughput` / `sample_size`,
//! and `Bencher::iter`. Each benchmark is warmed up briefly, then timed
//! over a fixed measurement window; the mean ns/iter (and derived
//! throughput) is printed. There is no statistical analysis or HTML report.
//!
//! Honors `CRITERION_QUICK=1` (or `--quick` on the bench command line) to
//! shrink the warm-up and measurement windows for smoke runs.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Declared throughput of one iteration, for ops/s or bytes/s reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

#[derive(Debug, Clone, Copy)]
struct Windows {
    warm_up: Duration,
    measure: Duration,
}

fn windows() -> Windows {
    let quick = std::env::var("CRITERION_QUICK").map(|v| v == "1").unwrap_or(false)
        || std::env::args().any(|a| a == "--quick");
    if quick {
        Windows { warm_up: Duration::from_millis(20), measure: Duration::from_millis(60) }
    } else {
        Windows { warm_up: Duration::from_millis(300), measure: Duration::from_secs(1) }
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    windows: Windows,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { windows: windows() }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            windows: self.windows,
            throughput: None,
            _marker: std::marker::PhantomData,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench("", name, self.windows, None, f);
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    windows: Windows,
    throughput: Option<Throughput>,
    _marker: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; the shim sizes runs by time window.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.windows.measure = d;
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.windows.warm_up = d;
        self
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&self.name, name, self.windows, self.throughput, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to each benchmark closure; `iter` times the supplied routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench<F>(group: &str, name: &str, w: Windows, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let label = if group.is_empty() { name.to_string() } else { format!("{group}/{name}") };

    // Warm-up: find an iteration count that fills the measurement window.
    let mut iters = 1u64;
    loop {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        if b.elapsed >= w.warm_up || iters >= 1 << 30 {
            let per_iter = b.elapsed.as_nanos().max(1) as u64 / iters;
            iters = (w.measure.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1 << 34);
            break;
        }
        iters = iters.saturating_mul(2);
    }

    let mut b = Bencher { iters, elapsed: Duration::ZERO };
    f(&mut b);
    let ns_per_iter = b.elapsed.as_nanos() as f64 / b.iters as f64;

    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => {
            format!("  {:>12} elem/s", fmt_rate(n as f64 * 1e9 / ns_per_iter))
        }
        Throughput::Bytes(n) => {
            format!("  {:>12}B/s", fmt_rate(n as f64 * 1e9 / ns_per_iter))
        }
    });
    println!(
        "{label:<44} time: {:>12}/iter{}",
        fmt_ns(ns_per_iter),
        rate.unwrap_or_default()
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2}G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Entry point running each declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        std::env::set_var("CRITERION_QUICK", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(1));
        g.sample_size(10);
        let mut calls = 0u64;
        g.bench_function("add", |b| {
            calls += 1;
            b.iter(|| black_box(2u64) + black_box(3u64))
        });
        g.finish();
        assert!(calls >= 2, "warm-up and measurement passes both run");
    }
}
