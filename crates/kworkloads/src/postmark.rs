//! PostMark (Katcher, NetApp TR3022) against the simulated kernel.
//!
//! The benchmark: create an initial pool of small files, run a transaction
//! mix where each transaction pairs a data operation (read a whole file or
//! append to one) with a namespace operation (create a file or delete one),
//! then delete everything left. File sizes are uniform in
//! `[min_size, max_size]`; reads use whole-file reads in 4 KiB
//! chunks. This is the I/O-intensive workload of §3.3 (event monitor) and
//! §3.4 (KGCC), and historically what the paper's 85.4-second runs used.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ksim::clock::ClockSnapshot;
use ksim::stats::StatsSnapshot;
use ksyscall::OpenFlags;

use crate::rig::{Rig, UserProc};

/// Read/write chunk size.
const READ_BLOCK: usize = 4_096;
/// Per-transaction user-side processing cycles (PostMark itself is nearly
/// pure I/O; keep small).
const CPU_PER_TX: u64 = 2_000;

/// PostMark parameters (defaults scaled to simulator-friendly sizes while
/// keeping Katcher's proportions).
#[derive(Debug, Clone)]
pub struct PostmarkConfig {
    pub seed: u64,
    /// Initial file pool.
    pub file_count: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// Subdirectories the pool is spread over.
    pub subdirs: usize,
    pub min_size: usize,
    pub max_size: usize,
    /// Durability mode: `fsync` every created file before closing it and
    /// every append after writing it, the mail-server discipline PostMark
    /// models. A no-op on MemFs; on kjfs each fsync forces a journal
    /// commit, which is the cost A13 measures.
    pub fsync_per_file: bool,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            seed: 1997,
            file_count: 500,
            transactions: 2_000,
            subdirs: 10,
            min_size: 512,
            max_size: 10_240,
            fsync_per_file: false,
        }
    }
}

/// Run results.
#[derive(Debug, Clone)]
pub struct PostmarkReport {
    pub created: u64,
    pub deleted: u64,
    pub reads: u64,
    pub appends: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Explicit durability barriers issued (0 unless `fsync_per_file`).
    pub fsyncs: u64,
    pub elapsed: ClockSnapshot,
    pub stats: StatsSnapshot,
}

/// Run PostMark on `rig` as process `proc`.
pub fn run_postmark(rig: &Rig, proc: &UserProc, cfg: &PostmarkConfig) -> PostmarkReport {
    assert!(cfg.max_size >= cfg.min_size);
    assert!(READ_BLOCK <= proc.buf_len, "scratch buffer too small");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sys = &rig.sys;
    let pid = proc.pid;

    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let mut report = PostmarkReport {
        created: 0,
        deleted: 0,
        reads: 0,
        appends: 0,
        bytes_read: 0,
        bytes_written: 0,
        fsyncs: 0,
        elapsed: ClockSnapshot::default(),
        stats: StatsSnapshot::default(),
    };

    // Setup: subdirectories and the initial pool.
    for d in 0..cfg.subdirs {
        let ret = sys.sys_mkdir(pid, &format!("/s{d}"));
        assert!(ret == 0 || ret == -17, "mkdir failed: {ret}");
    }
    let mut files: Vec<String> = Vec::with_capacity(cfg.file_count);
    let mut next_id = 0usize;
    let create = |rng: &mut SmallRng,
                      files: &mut Vec<String>,
                      report: &mut PostmarkReport,
                      next_id: &mut usize| {
        let dir = rng.gen_range(0..cfg.subdirs);
        let path = format!("/s{dir}/pm{:06}", *next_id);
        *next_id += 1;
        let size = rng.gen_range(cfg.min_size..=cfg.max_size);
        let fd = sys.sys_open(pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0, "create {path}: {fd}");
        let mut left = size;
        while left > 0 {
            let chunk = left.min(READ_BLOCK);
            let n = sys.sys_write(pid, fd as i32, proc.buf, chunk);
            assert!(n as usize == chunk);
            report.bytes_written += chunk as u64;
            left -= chunk;
        }
        if cfg.fsync_per_file {
            assert_eq!(sys.sys_fsync(pid, fd as i32), 0, "fsync {path}");
            report.fsyncs += 1;
        }
        sys.sys_close(pid, fd as i32);
        files.push(path);
        report.created += 1;
    };

    // Stage a deterministic data block once; writes reuse it.
    let block: Vec<u8> = (0..READ_BLOCK).map(|i| (i % 251) as u8).collect();
    proc.stage(rig, &block);

    for _ in 0..cfg.file_count {
        create(&mut rng, &mut files, &mut report, &mut next_id);
    }

    // Transaction phase.
    for _ in 0..cfg.transactions {
        rig.machine.charge_user(CPU_PER_TX);
        if files.is_empty() {
            create(&mut rng, &mut files, &mut report, &mut next_id);
            continue;
        }
        // Data op: read or append.
        let target = files[rng.gen_range(0..files.len())].clone();
        if rng.gen_bool(0.5) {
            let fd = sys.sys_open(pid, &target, OpenFlags::RDONLY);
            if fd >= 0 {
                loop {
                    let n = sys.sys_read(pid, fd as i32, proc.buf, READ_BLOCK);
                    if n <= 0 {
                        break;
                    }
                    report.bytes_read += n as u64;
                }
                sys.sys_close(pid, fd as i32);
                report.reads += 1;
            }
        } else {
            let fd = sys.sys_open(pid, &target, OpenFlags::WRONLY | OpenFlags::APPEND);
            if fd >= 0 {
                let chunk = rng.gen_range(1..=READ_BLOCK.min(cfg.max_size));
                let n = sys.sys_write(pid, fd as i32, proc.buf, chunk);
                assert!(n > 0);
                report.bytes_written += n as u64;
                if cfg.fsync_per_file {
                    assert_eq!(sys.sys_fdatasync(pid, fd as i32), 0);
                    report.fsyncs += 1;
                }
                sys.sys_close(pid, fd as i32);
                report.appends += 1;
            }
        }
        // Namespace op: create or delete.
        if rng.gen_bool(0.5) {
            create(&mut rng, &mut files, &mut report, &mut next_id);
        } else if !files.is_empty() {
            let idx = rng.gen_range(0..files.len());
            let victim = files.swap_remove(idx);
            let ret = sys.sys_unlink(pid, &victim);
            assert_eq!(ret, 0, "unlink {victim}");
            report.deleted += 1;
        }
    }

    // Teardown: delete the remaining pool.
    for f in files.drain(..) {
        if sys.sys_unlink(pid, &f) == 0 {
            report.deleted += 1;
        }
    }

    report.elapsed = rig.machine.clock.snapshot().delta(&t0);
    report.stats = rig.machine.stats.snapshot().delta(&s0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PostmarkConfig {
        PostmarkConfig {
            file_count: 40,
            transactions: 150,
            subdirs: 4,
            min_size: 256,
            max_size: 2_048,
            ..Default::default()
        }
    }

    #[test]
    fn postmark_runs_and_balances_files() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let r = run_postmark(&rig, &p, &small());
        assert_eq!(r.created, r.deleted, "teardown removes every file");
        assert!(r.reads > 0 && r.appends > 0);
        assert!(r.bytes_read > 0 && r.bytes_written > 0);
        assert!(r.elapsed.elapsed() > 0);
        assert!(r.stats.syscalls > 500);
        // All fds closed.
        assert_eq!(rig.sys.open_fds(p.pid), 0);
    }

    #[test]
    fn postmark_is_deterministic_given_a_seed() {
        let run = || {
            let rig = Rig::memfs();
            let p = rig.user(1 << 16);
            let r = run_postmark(&rig, &p, &small());
            (r.created, r.reads, r.appends, r.bytes_read, r.elapsed.elapsed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let a = run_postmark(&rig, &p, &small());
        let rig2 = Rig::memfs();
        let p2 = rig2.user(1 << 16);
        let b = run_postmark(&rig2, &p2, &PostmarkConfig { seed: 7, ..small() });
        assert_ne!(
            (a.bytes_read, a.bytes_written),
            (b.bytes_read, b.bytes_written)
        );
    }

    #[test]
    fn postmark_with_fsync_on_kjfs_commits_to_disk() {
        let rig = Rig::kjfs();
        let p = rig.user(1 << 16);
        let r = run_postmark(&rig, &p, &PostmarkConfig { fsync_per_file: true, ..small() });
        assert_eq!(r.created, r.deleted, "teardown removes every file");
        assert!(r.fsyncs >= r.created + r.appends, "one barrier per create/append");
        // Durability is not free: every fsync forces journal + data writes.
        assert!(r.stats.disk_writes > r.fsyncs, "{} writes", r.stats.disk_writes);
        assert_eq!(rig.sys.open_fds(p.pid), 0);
    }

    #[test]
    fn fsync_discipline_costs_more_than_buffered_on_kjfs() {
        let run = |durable: bool| {
            let rig = Rig::kjfs();
            let p = rig.user(1 << 16);
            run_postmark(&rig, &p, &PostmarkConfig { fsync_per_file: durable, ..small() })
        };
        let buffered = run(false);
        let durable = run(true);
        assert!(
            durable.stats.disk_writes > buffered.stats.disk_writes,
            "durable {} vs buffered {}",
            durable.stats.disk_writes,
            buffered.stats.disk_writes
        );
        assert!(durable.elapsed.elapsed() > buffered.elapsed.elapsed());
    }

    #[test]
    fn postmark_over_wrapfs_allocates_kernel_buffers() {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        run_postmark(&rig, &p, &small());
        let kvfs::WrapAllocStats { allocs, frees } = rig.wrapfs.as_ref().unwrap().alloc_stats();
        assert!(allocs > 500, "page buffers + name strings: {allocs}");
        // Private data of deleted inodes freed; transient buffers balanced.
        assert!(frees <= allocs);
    }
}
