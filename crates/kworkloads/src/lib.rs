//! `kworkloads` — the benchmark workloads the paper evaluates with.
//!
//! * [`rig::Rig`] — one-call assembly of a simulated machine + file
//!   system + syscall layer (+ optional Wrapfs layer and Cosy extension),
//!   plus [`rig::UserProc`], a process with a mapped scratch buffer.
//! * [`postmark`] — PostMark (Katcher, NetApp TR3022): a small-file
//!   create/delete/read/append transaction mix; the I/O-intensive workload
//!   of §3.3 and §3.4.
//! * [`amutils`] — an Am-utils-like compile: stat storms over headers,
//!   source reads, CPU-heavy compilation, object writes; the CPU-intensive
//!   workload of §3.2 and §3.4.
//! * [`dbscan`] — the database access patterns of §2.3's application
//!   benchmark: sequential record scans and random probes, each runnable
//!   through plain system calls or through Cosy compounds.

#![forbid(unsafe_code)]

pub mod amutils;
pub mod dbscan;
pub mod kprogs;
pub mod postmark;
pub mod rig;
pub mod webserver;

pub use amutils::{run_compile, CompileConfig, CompileReport};
pub use dbscan::{
    probe_cosy, probe_user, scan_cosy, scan_kjfs_out_of_core, scan_user, setup_db,
    DbCacheReport, DbConfig, DbRunReport,
};
pub use kprogs::{
    build_chase_file, chase_kernel, chase_user, setup_chase, ChaseFile, ChaseRun,
    CHASE_CQE_SRC, CHASE_NODE_BYTES, CLAMP_LEN_FILTER_SRC, EVENT_AGGREGATE_SRC,
    READONLY_FILTER_SRC,
};
pub use postmark::{run_postmark, PostmarkConfig, PostmarkReport};
pub use rig::{Rig, UserProc};
pub use webserver::{serve, setup_docs, ServeMode, WebConfig, WebReport};
