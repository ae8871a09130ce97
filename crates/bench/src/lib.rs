//! Shared reporting helpers for the experiment-reproduction binaries.
//!
//! Every `e*`/`a*` binary regenerates one of the paper's evaluation results
//! and prints it as a table with the paper's reported value alongside the
//! simulated measurement, so EXPERIMENTS.md can be refreshed by running
//! `cargo run --release -p bench --bin all`.
//!
//! A finding's verdict is a gate: `all` exits non-zero when any of them
//! reads DIFF. The exception is a host-timed finding, a wall-clock rate
//! that swings with machine load. It prints its value and verdict, tagged,
//! but never fails the run.

#![forbid(unsafe_code)]

use std::fmt::Display;

/// One measured quantity with the paper's reported counterpart.
#[derive(Debug, Clone)]
pub struct Finding {
    pub experiment: String,
    pub metric: String,
    pub paper: String,
    pub measured: String,
    /// Does the simulated result preserve the paper's qualitative shape?
    pub shape_holds: bool,
    /// Measured in host wall-clock time rather than simulated cycles, so
    /// the value is a trend line and its verdict is not gated.
    pub host_timed: bool,
}

/// Collects findings for the JSON summary `all` emits.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(
        &mut self,
        experiment: &str,
        metric: &str,
        paper: impl Display,
        measured: impl Display,
        shape_holds: bool,
    ) {
        self.findings.push(Finding {
            experiment: experiment.to_string(),
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            shape_holds,
            host_timed: false,
        });
    }

    /// [`Report::add`] for a host wall-clock measurement: reported and
    /// tagged, but left out of [`Report::all_shapes_hold`].
    pub fn add_host_timed(
        &mut self,
        experiment: &str,
        metric: &str,
        paper: impl Display,
        measured: impl Display,
        shape_holds: bool,
    ) {
        self.add(experiment, metric, paper, measured, shape_holds);
        self.findings.last_mut().expect("just added").host_timed = true;
    }

    /// Render the collected findings as an aligned table.
    pub fn print(&self) {
        println!(
            "\n{:<6} {:<38} {:>22} {:>22} {:>6}",
            "exp", "metric", "paper", "simulated", "shape"
        );
        println!("{}", "-".repeat(100));
        for f in &self.findings {
            println!(
                "{:<6} {:<38} {:>22} {:>22} {:>6}{}",
                f.experiment,
                f.metric,
                f.paper,
                f.measured,
                if f.shape_holds { "OK" } else { "DIFF" },
                if f.host_timed { "  [host-timed]" } else { "" }
            );
        }
    }

    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"experiment\": \"{}\",\n      \"metric\": \"{}\",\n      \
                 \"paper\": \"{}\",\n      \"measured\": \"{}\",\n      \"shape_holds\": {},\n      \
                 \"host_timed\": {}\n    }}",
                esc(&f.experiment),
                esc(&f.metric),
                esc(&f.paper),
                esc(&f.measured),
                f.shape_holds,
                f.host_timed
            ));
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// True iff every finding that is not host-timed preserved the
    /// paper's shape.
    pub fn all_shapes_hold(&self) -> bool {
        self.findings.iter().all(|f| f.host_timed || f.shape_holds)
    }
}

/// Print a section banner.
pub fn banner(id: &str, title: &str) {
    println!("\n===============================================================");
    println!("{id}: {title}");
    println!("===============================================================");
}

/// Format cycles as engineering notation.
pub fn fmt_cycles(c: u64) -> String {
    if c >= 1_000_000_000 {
        format!("{:.2}G", c as f64 / 1e9)
    } else if c >= 1_000_000 {
        format!("{:.2}M", c as f64 / 1e6)
    } else if c >= 1_000 {
        format!("{:.1}k", c as f64 / 1e3)
    } else {
        c.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_and_serialises() {
        let mut r = Report::new();
        r.add("E1", "elapsed improvement", "60.6-63.8%", "72.1%", true);
        r.add_host_timed("A11", "syscalls/sec", "-", "6.33M/s", false);
        assert!(r.all_shapes_hold(), "a host-timed DIFF is not gated");
        r.add("E9", "made up", 1, 2, false);
        assert_eq!(r.findings.len(), 3);
        assert!(!r.all_shapes_hold(), "a gated DIFF fails the report");
        let json = r.to_json();
        assert!(json.contains("E1"));
        assert!(json.contains("72.1%"));
        assert_eq!(json.matches("\"host_timed\": true").count(), 1);
        assert_eq!(json.matches("\"host_timed\": false").count(), 2);
    }

    #[test]
    fn cycle_formatting() {
        assert_eq!(fmt_cycles(999), "999");
        assert_eq!(fmt_cycles(1_500), "1.5k");
        assert_eq!(fmt_cycles(2_500_000), "2.50M");
        assert_eq!(fmt_cycles(3_000_000_000), "3.00G");
    }
}
