//! `ktrace` — system-call tracing and consolidation analysis (§2.2).
//!
//! The paper's method: *"The first step in finding system call patterns was
//! to collect logs of system calls ... Once the system call activity was
//! logged, we used a script to create a system call graph and searched for
//! patterns. This is a weighted directed graph with vertices representing
//! system calls and an edge between V1 and V2 having a weight equal to the
//! number of times system call V2 was invoked after V1. Paths with large
//! weights are likely to be good candidates for consolidation."*
//!
//! * [`Sysno`] — the syscall vocabulary (classic + consolidated calls).
//! * [`trace::Tracer`] — the strace/audit analogue: records every dispatch
//!   with its boundary-copy byte counts.
//! * [`graph::SyscallGraph`] — the weighted digraph plus n-gram pattern
//!   mining that surfaces `open-read-close`, `readdir-stat`, etc.
//! * [`analyze`] — the §2.2 estimator: given a recorded trace, compute the
//!   syscall-count and byte-copy savings `readdirplus` (and friends) would
//!   deliver, the "28.15 seconds per hour" calculation.
//! * [`workload`] — seeded synthetic trace generators (interactive session,
//!   `ls`, web server, mail server) standing in for the paper's 15-minute
//!   capture of a live system.

#![forbid(unsafe_code)]

pub mod advisor;
pub mod analyze;
pub mod graph;
pub mod sysno;
pub mod trace;
pub mod workload;

pub use advisor::{advise, render_report, Remedy, Suggestion};
pub use analyze::{estimate_consolidation, ConsolidationEstimate};
pub use graph::{mine_patterns, Pattern, SyscallGraph};
pub use sysno::Sysno;
pub use trace::{SyscallEvent, TraceParseError, TraceSummary, Tracer};
pub use workload::{InteractiveTraceGen, TraceGen};
