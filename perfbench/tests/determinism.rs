//! The per-layer counts are exact: two small runs with one seed agree
//! field for field, and another seed moves them, which shows the seed
//! reaches the inputs. Each workload also leaves the layers it does not
//! use idle.

use perfbench::counts::layer_metrics;
use perfbench::trace::Tracer;
use perfbench::{db, mail, web, Workload};

type Counts = Vec<(&'static str, f64, &'static str)>;

fn counts<W: Workload>(cfg: &W::Config) -> Counts {
    let tr = Tracer::new(false);
    let mut w = W::setup(cfg, &tr);
    let before = w.raw();
    let m = w.measure(&tr);
    assert!(m.attempted > 0);
    assert_eq!(m.failed, 0, "no operation fails");
    assert_eq!(w.check(), Vec::<String>::new());
    layer_metrics(&before, &w.raw(), m.attempted)
}

fn value(c: &Counts, name: &str) -> f64 {
    c.iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

fn assert_seeded<W: Workload>(cfg: impl Fn(u64) -> W::Config) -> Counts {
    let a = counts::<W>(&cfg(1));
    assert_eq!(a, counts::<W>(&cfg(1)), "same seed, same counts");
    assert_ne!(a, counts::<W>(&cfg(2)), "another seed changes the counts");
    a
}

#[test]
fn web_counts_are_seeded_and_leave_kjfs_cosy_kprog_idle() {
    let c = assert_seeded::<web::Web>(|seed| web::Config {
        documents: 64,
        warmup_requests: 32,
        requests: 64,
        ..web::Config::new(seed)
    });
    assert!(value(&c, "knet.bytes_delivered_per_op") > 0.0);
    assert_eq!(value(&c, "kuring.enters_per_op"), 3.0 / web::CONNS as f64);
    assert_eq!(value(&c, "kjfs.commits_per_op"), 0.0);
    assert_eq!(value(&c, "cosy.ops_per_compound"), 0.0);
    assert_eq!(value(&c, "kprog.invocations_per_op"), 0.0);
}

#[test]
fn mail_counts_are_seeded_and_leave_knet_cosy_kprog_idle() {
    let c = assert_seeded::<mail::Mail>(|seed| mail::Config {
        files: 64,
        warmup_ops: 20,
        ops: 60,
        ..mail::Config::new(seed)
    });
    assert!(value(&c, "kjfs.commits_per_op") > 0.0);
    assert_eq!(
        value(&c, "kjfs.group_merges"),
        0.0,
        "one client: nothing to merge"
    );
    assert_eq!(value(&c, "knet.bytes_delivered_per_op"), 0.0);
    assert_eq!(value(&c, "kuring.enters_per_op"), 0.0);
    assert_eq!(value(&c, "cosy.ops_per_compound"), 0.0);
    assert_eq!(value(&c, "kprog.invocations_per_op"), 0.0);
}

#[test]
fn db_counts_are_seeded_and_leave_knet_kjfs_idle() {
    let c = assert_seeded::<db::Db>(|seed| db::Config {
        records: 1024,
        chain_nodes: 512,
        warmup_ops: 20,
        ops: 40,
        ..db::Config::new(seed)
    });
    assert_eq!(value(&c, "kprog.hops_per_enter"), db::CHASE_HOPS as f64);
    assert_eq!(
        value(&c, "cosy.cache_hit_ratio"),
        12.0 / 32.0,
        "scans hit, probes miss"
    );
    assert_eq!(value(&c, "knet.bytes_delivered_per_op"), 0.0);
    assert_eq!(value(&c, "kjfs.commits_per_op"), 0.0);
}
