//! Per-layer counts: public stats snapshots taken around the measured
//! phase, normalised per operation. For a given seed they are exact.

use kworkloads::Rig;

/// Counters the benchmark keeps itself, for layers without a stats snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessCounts {
    /// SQEs pushed onto a kuring submission queue.
    pub sqes: u64,
    /// `sys_ring_enter` calls.
    pub enters: u64,
    /// `ring_enter` calls that ran the kprog chase program.
    pub chase_enters: u64,
}

/// The counters of every measured layer at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Raw {
    pub user_cycles: u64,
    pub sys_cycles: u64,
    pub io_cycles: u64,
    pub crossings: u64,
    pub syscalls: u64,
    pub bytes_copied: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub frames_high_water: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub compounds: u64,
    pub compound_ops: u64,
    pub kjfs: kjfs::KjfsStats,
    pub net: knet::NetStats,
    pub cosy_hits: u64,
    pub cosy_misses: u64,
    pub cosy_entries: u64,
    pub prog: kprog::AttachStats,
    pub prog_cache_hits: u64,
    pub prog_cache_misses: u64,
    pub harness: HarnessCounts,
}

impl Raw {
    /// Snapshot the layers every rig has; kprog and harness counters are
    /// filled in by the workload that owns them.
    pub fn of(rig: &Rig, harness: HarnessCounts) -> Raw {
        let clock = rig.machine.clock.snapshot();
        let st = rig.machine.stats.snapshot();
        let cosy = rig.cosy.cache_stats();
        Raw {
            user_cycles: clock.user,
            sys_cycles: clock.sys,
            io_cycles: clock.io,
            crossings: st.crossings,
            syscalls: st.syscalls,
            bytes_copied: st.bytes_copied_in + st.bytes_copied_out,
            tlb_hits: rig.machine.mem.tlb.hits(),
            tlb_misses: rig.machine.mem.tlb.misses(),
            frames_high_water: rig.machine.mem.phys.high_water(),
            disk_reads: st.disk_reads,
            disk_writes: st.disk_writes,
            compounds: st.compounds,
            compound_ops: st.compound_ops,
            kjfs: rig.kjfs.as_ref().map(|fs| fs.stats()).unwrap_or_default(),
            net: rig.sys.net().stats(),
            cosy_hits: cosy.hits,
            cosy_misses: cosy.misses,
            cosy_entries: cosy.entries as u64,
            harness,
            ..Raw::default()
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Name, value and unit of every per-layer count, from the counter
/// movement between `a` and `b` over `ops` measured operations.
pub fn layer_metrics(a: &Raw, b: &Raw, ops: u64) -> Vec<(&'static str, f64, &'static str)> {
    let d = |f: fn(&Raw) -> u64| f(b) - f(a);
    let per_op = |n: u64| ratio(n, ops);
    let (ja, jb) = (&a.kjfs, &b.kjfs);
    let j = |f: fn(&kjfs::KjfsStats) -> u64| f(jb) - f(ja);
    let net = b.net.delta(&a.net);
    let sim = d(|r| r.user_cycles) + d(|r| r.sys_cycles) + d(|r| r.io_cycles);
    let ckpt = j(|s| s.checkpoint_blocks);
    let dedup = j(|s| s.checkpoint_dedup_saved);
    let enters = d(|r| r.harness.enters);
    let chase_enters = d(|r| r.harness.chase_enters);
    vec![
        ("ksim.sim_cycles_per_op", per_op(sim), "cycles"),
        (
            "ksim.user_cycles_per_op",
            per_op(d(|r| r.user_cycles)),
            "cycles",
        ),
        (
            "ksim.sys_cycles_per_op",
            per_op(d(|r| r.sys_cycles)),
            "cycles",
        ),
        (
            "ksim.io_cycles_per_op",
            per_op(d(|r| r.io_cycles)),
            "cycles",
        ),
        ("ksim.crossings_per_op", per_op(d(|r| r.crossings)), "count"),
        ("ksim.syscalls_per_op", per_op(d(|r| r.syscalls)), "count"),
        (
            "ksim.bytes_copied_per_op",
            per_op(d(|r| r.bytes_copied)),
            "bytes",
        ),
        (
            "ksim.tlb_hit_ratio",
            ratio(d(|r| r.tlb_hits), d(|r| r.tlb_hits) + d(|r| r.tlb_misses)),
            "ratio",
        ),
        (
            "ksim.frames_high_water",
            b.frames_high_water as f64,
            "frames",
        ),
        (
            "kvfs.disk_reads_per_op",
            per_op(d(|r| r.disk_reads)),
            "count",
        ),
        (
            "kvfs.disk_writes_per_op",
            per_op(d(|r| r.disk_writes)),
            "count",
        ),
        ("kjfs.commits_per_op", per_op(j(|s| s.commits)), "count"),
        (
            "kjfs.journal_blocks_per_op",
            per_op(j(|s| s.journal_blocks)),
            "count",
        ),
        ("kjfs.checkpoint_blocks_per_op", per_op(ckpt), "count"),
        (
            "kjfs.checkpoint_dedup_ratio",
            ratio(dedup, dedup + ckpt),
            "ratio",
        ),
        ("kjfs.group_merges", j(|s| s.group_merges) as f64, "count"),
        (
            "kjfs.cache_hit_ratio",
            ratio(
                j(|s| s.cache_hits),
                j(|s| s.cache_hits) + j(|s| s.cache_misses),
            ),
            "ratio",
        ),
        (
            "kjfs.readahead_useful_ratio",
            ratio(j(|s| s.readahead_hits), j(|s| s.readahead_issued)),
            "ratio",
        ),
        ("kjfs.evictions_per_op", per_op(j(|s| s.evictions)), "count"),
        (
            "knet.bytes_delivered_per_op",
            per_op(net.bytes_delivered),
            "bytes",
        ),
        (
            "knet.send_eagains_per_op",
            per_op(net.send_eagains),
            "count",
        ),
        ("knet.refused", net.refused as f64, "count"),
        (
            "kuring.sqes_per_enter",
            ratio(d(|r| r.harness.sqes), enters),
            "count",
        ),
        ("kuring.enters_per_op", per_op(enters), "count"),
        (
            "cosy.ops_per_compound",
            ratio(d(|r| r.compound_ops), d(|r| r.compounds)),
            "count",
        ),
        (
            "cosy.cache_hit_ratio",
            ratio(
                d(|r| r.cosy_hits),
                d(|r| r.cosy_hits) + d(|r| r.cosy_misses),
            ),
            "ratio",
        ),
        ("cosy.cache_entries", b.cosy_entries as f64, "count"),
        (
            "kprog.hops_per_enter",
            ratio(d(|r| r.prog.invocations), chase_enters),
            "count",
        ),
        (
            "kprog.invocations_per_op",
            per_op(d(|r| r.prog.invocations)),
            "count",
        ),
        ("kprog.errors", d(|r| r.prog.errors) as f64, "count"),
        (
            "kprog.budget_trips",
            d(|r| r.prog.budget_trips) as f64,
            "count",
        ),
        (
            "kprog.cache_hit_ratio",
            ratio(
                d(|r| r.prog_cache_hits),
                d(|r| r.prog_cache_hits) + d(|r| r.prog_cache_misses),
            ),
            "ratio",
        ),
    ]
}
