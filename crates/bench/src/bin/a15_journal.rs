//! A15 (perf_opt): the durability tax — pipelined journal + group commit.
//!
//! PR 7's kjfs journal allowed ONE live transaction: every fsync paid the
//! whole desc→images→commit→checkpoint chain synchronously, so postmark's
//! mail-server discipline ran 3.2x over buffered I/O and concurrent fsyncs
//! convoyed on the fs lock. The group-commit journal decouples the stages —
//! a running transaction keeps accepting dirt while committed transactions
//! drain in deferred, deduplicated, run-coalesced checkpoints, and every
//! waiter that arrives during an in-flight commit merges into one
//! checksummed record. Three results:
//!
//! 1. **Single-threaded** fsync-per-file postmark under both journal
//!    modes: with one writer there is nothing to merge, so the win is the
//!    pipelining alone (checkpoint dedup + coalesced home writes).
//! 2. **The 8-thread SMP fsync convoy** (the headline): eight threads,
//!    each create+write+fsync+close in a loop on one shared kjfs. Group
//!    commit vs the single-txn baseline must win ≥1.5x in cycles/op.
//! 3. **Out-of-core dbscan on kjfs**: the block-level record scan at a
//!    working set larger than the page cache, reporting hit/miss and
//!    readahead effectiveness.

use bench::{banner, Report};
use kucode::kworkloads::dbscan::expected_scan_checksum;
use kucode::kworkloads::{scan_kjfs_out_of_core, Rig, UserProc};
use kucode::prelude::*;

const MODES: [JournalMode; 2] = [JournalMode::SingleTxn, JournalMode::GroupCommit];

// ---- 1. single-threaded fsync-per-file postmark ----------------------------

fn postmark_modes(report: &mut Report) {
    let pm = PostmarkConfig {
        file_count: 120,
        transactions: 600,
        subdirs: 4,
        min_size: 256,
        max_size: 4_096,
        fsync_per_file: true,
        ..Default::default()
    };
    println!(
        "\n{:<14} {:>12} {:>10} {:>8} {:>8} {:>10} {:>10}",
        "journal mode", "cycles/op", "commits", "ckpts", "dedup", "jrnl blks", "ckpt runs"
    );
    let mut per_op = Vec::new();
    for mode in MODES {
        let rig = Rig::kjfs_with(KjfsConfig::default().with_mode(mode));
        let p = rig.user(1 << 16);
        let r = run_postmark(&rig, &p, &pm);
        let ops = (r.created + r.deleted + r.reads + r.appends).max(1);
        let cpo = r.elapsed.elapsed() / ops;
        let st = rig.kjfs.as_ref().expect("kjfs root").stats();
        println!(
            "{:<14} {:>12} {:>10} {:>8} {:>8} {:>10} {:>10}",
            mode.label(),
            cpo,
            st.commits,
            st.checkpoints,
            st.checkpoint_dedup_saved,
            st.journal_blocks,
            st.checkpoint_runs
        );
        per_op.push(cpo);
    }
    let (single, group) = (per_op[0], per_op[1]);
    report.add(
        "A15",
        "group-commit fsync postmark, 1 thread",
        "< single-txn cycles/op",
        format!("{group} vs {single}"),
        group < single,
    );
}

// ---- 2. the 8-thread SMP fsync convoy --------------------------------------

const CONVOY_THREADS: usize = 8;
/// open+write+fsync+close per file.
const CONVOY_OPS_PER_FILE: u64 = 4;

/// Eight threads on one shared kjfs, each fsyncing its own mail spool.
/// Returns total simulated cycles per op plus the journal stats.
fn convoy(mode: JournalMode, files_per_thread: usize) -> (u64, KjfsStats) {
    let rig = Rig::kjfs_with(KjfsConfig::default().with_mode(mode));
    let rig = &rig;
    let workers: Vec<UserProc> = (0..CONVOY_THREADS)
        .map(|t| {
            let p = rig.user(1 << 16);
            p.stage(rig, &[0xA5u8; 4_096]);
            assert_eq!(rig.sys.sys_mkdir(p.pid, &format!("/t{t}")), 0);
            p
        })
        .collect();

    let t0 = rig.machine.clock.snapshot();
    std::thread::scope(|scope| {
        for (t, p) in workers.iter().enumerate() {
            scope.spawn(move || {
                let _cpu = rig.machine.bind_cpu(t % rig.machine.num_cpus());
                let sys = &rig.sys;
                for i in 0..files_per_thread {
                    let path = format!("/t{t}/m{i}");
                    let fd = sys.sys_open(p.pid, &path, OpenFlags::RDWR | OpenFlags::CREAT) as i32;
                    assert!(fd >= 0);
                    assert_eq!(sys.sys_write(p.pid, fd, p.buf, 4_096), 4_096);
                    assert_eq!(sys.sys_fsync(p.pid, fd), 0);
                    assert_eq!(sys.sys_close(p.pid, fd), 0);
                }
            });
        }
    });
    let cycles = rig.machine.clock.snapshot().delta(&t0).elapsed();
    let ops = CONVOY_THREADS as u64 * files_per_thread as u64 * CONVOY_OPS_PER_FILE;
    (cycles / ops.max(1), rig.kjfs.as_ref().expect("kjfs root").stats())
}

fn smp_convoy(report: &mut Report) {
    let files = 64;
    println!(
        "\n{:<14} {:>12} {:>10} {:>8} {:>8} {:>8}   ({CONVOY_THREADS} threads x {files} files)",
        "journal mode", "cycles/op", "commits", "ckpts", "dedup", "merges"
    );
    let mut per_op = Vec::new();
    for mode in MODES {
        let (cpo, st) = convoy(mode, files);
        println!(
            "{:<14} {:>12} {:>10} {:>8} {:>8} {:>8}",
            mode.label(),
            cpo,
            st.commits,
            st.checkpoints,
            st.checkpoint_dedup_saved,
            st.group_merges
        );
        per_op.push(cpo);
    }
    let (single, group) = (per_op[0], per_op[1]);
    let ratio_x100 = single * 100 / group.max(1);
    report.add(
        "A15",
        "8-thread fsync convoy, group vs single",
        ">=1.5x cycles/op",
        format!("{:.2}x", ratio_x100 as f64 / 100.0),
        ratio_x100 >= 150,
    );
}

// ---- 3. out-of-core dbscan on kjfs ------------------------------------------

fn out_of_core_scan(report: &mut Report) {
    // The record file is 4x the page cache: 512 cache pages against 2048
    // file pages of 4 KiB records.
    let c = DbConfig {
        records: 2_048,
        record_size: 4_096,
        probes: 400,
        ..Default::default()
    };
    let cache_pages = 512;
    let r = scan_kjfs_out_of_core(&c, cache_pages);
    println!(
        "\n{:<18} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}   ({} file pages, {cache_pages} cache pages)",
        "phase", "hits", "misses", "hit%", "ra issued", "ra hits", "ra%",
        c.records * c.record_size / 4_096
    );
    for (name, cache) in [("sequential scan", r.seq_cache), ("random probes", r.probe_cache)] {
        println!(
            "{:<18} {:>10} {:>10} {:>7.1}% {:>10} {:>10} {:>7.1}%",
            name,
            cache.cache_hits,
            cache.cache_misses,
            cache.hit_pct(),
            cache.readahead_issued,
            cache.readahead_hits,
            cache.readahead_pct()
        );
    }
    report.add(
        "A15",
        "out-of-core dbscan on kjfs",
        "checksum intact, cache misses real",
        format!("{} misses, {} evictions", r.seq_cache.cache_misses, r.seq_cache.evictions),
        r.seq.checksum == expected_scan_checksum(&c)
            && r.seq_cache.cache_misses > 0
            && r.seq_cache.evictions > 0,
    );
    report.add(
        "A15",
        "sequential readahead effectiveness",
        ">=50% of prefetches used",
        format!("{:.0}%", r.seq_cache.readahead_pct()),
        r.seq_cache.readahead_hits * 2 >= r.seq_cache.readahead_issued,
    );
}

pub fn run(report: &mut Report) {
    banner(
        "A15",
        "Pipelined journal + group commit: the durability tax, repriced",
    );
    postmark_modes(report);
    smp_convoy(report);
    out_of_core_scan(report);
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
