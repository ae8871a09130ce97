//! `kjfs` — a journaled, extent-based on-disk file system over
//! [`kvfs::BlockDev`], with a page cache and a power-cut crash harness.
//!
//! The paper's safety story (watchdog preemption, transactional rollback,
//! deterministic fault injection) stops at RAM: memfs loses everything on a
//! "crash", so there is nothing to be consistent *about*. This crate is the
//! storage half:
//!
//! * [`fs::Kjfs`] — superblock / journal / inode table / bitmap / flat data
//!   area on the block device ([`layout`]), a write-ahead journal in
//!   ordered-data mode with physical-redo records ([`journal`]), and a page
//!   cache with sequential readahead, dirty tracking, bounded writeback,
//!   and invalidation on truncate/unlink.
//! * [`harness`] — the power-cut sweep: kill the machine at *every* journal
//!   and writeback block write of a workload (clean cuts and torn
//!   mid-block writes), remount, replay, and assert the recovered tree is
//!   a legal prefix of the operation log with zero structural violations.
//!
//! The journal is pipelined ([`fs::JournalMode`]): a running transaction
//! accepts new block images while up to K committed-but-uncheckpointed
//! transactions await a background drain, and group commit merges fsync
//! waiters that arrive during an in-flight commit into the next record.
//!
//! Fault sites: `kjfs.journal.commit`, `kjfs.writeback`,
//! `kjfs.journal.replay`, `kjfs.journal.checkpoint`, plus
//! `kvfs.blockdev.torn` underneath.

#![forbid(unsafe_code)]

pub mod fs;
pub mod harness;
pub mod journal;
pub mod layout;

pub use fs::{JournalMode, Kjfs, KjfsConfig, KjfsStats};
pub use harness::{
    default_workload, dir_boundary_workload, Harness, KillOutcome, Model, SweepReport, WOp,
};
