//! Database access patterns (§2.3's application benchmark).
//!
//! The paper modified "popular user applications that exhibit sequential or
//! random access patterns (e.g., a database) to use Cosy" and saw 20–80 %
//! speedups for CPU-bound runs. Here, a record file is scanned
//! sequentially or probed randomly:
//!
//! * the **user** variants issue one `lseek`+`read` syscall pair per record
//!   (a crossing and a buffer copy each);
//! * the **Cosy** variants batch the same operations into compounds —
//!   one crossing per `batch` records, with record bytes landing in the
//!   shared data buffer (no boundary copies).
//!
//! Both variants checksum every record byte user-side, so the data path is
//! verifiably identical.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cosy::{CompoundBuilder, CosyCall, CosyOptions, SharedRegion};
use ksim::clock::ClockSnapshot;
use ksyscall::OpenFlags;

use crate::rig::{Rig, UserProc};

/// Record-file parameters.
#[derive(Debug, Clone)]
pub struct DbConfig {
    pub records: usize,
    pub record_size: usize,
    /// Random probes to perform (probe runs).
    pub probes: usize,
    /// Records per compound in the Cosy variants.
    pub batch: usize,
    /// User CPU cycles of per-record processing (the "CPU-bound
    /// application" knob; the checksum itself is charged on top).
    pub cpu_per_record: u64,
    pub seed: u64,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            records: 2_000,
            record_size: 128,
            probes: 1_000,
            batch: 32,
            cpu_per_record: 800,
            seed: 42,
        }
    }
}

/// Result of one scan/probe run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbRunReport {
    /// Sum of all record bytes touched (correctness witness).
    pub checksum: u64,
    pub records_touched: u64,
    pub elapsed_cycles: u64,
    pub crossings: u64,
}

/// Create the record file at `path`: `records` records of `record_size`
/// bytes, record `i` filled with byte `i % 251`.
pub fn setup_db(rig: &Rig, proc: &UserProc, path: &str, cfg: &DbConfig) {
    let sys = &rig.sys;
    let fd = sys.sys_open(
        proc.pid,
        path,
        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC,
    );
    assert!(fd >= 0);
    for i in 0..cfg.records {
        let byte = (i % 251) as u8;
        proc.stage(rig, &vec![byte; cfg.record_size]);
        let n = sys.sys_write(proc.pid, fd as i32, proc.buf, cfg.record_size);
        assert_eq!(n as usize, cfg.record_size);
    }
    sys.sys_close(proc.pid, fd as i32);
}

/// Expected checksum of a full sequential scan (for verification).
pub fn expected_scan_checksum(cfg: &DbConfig) -> u64 {
    (0..cfg.records)
        .map(|i| (i % 251) as u64 * cfg.record_size as u64)
        .sum()
}

fn measure<R>(rig: &Rig, f: impl FnOnce() -> R) -> (R, ClockSnapshot, u64) {
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let r = f();
    let d = rig.machine.stats.snapshot().delta(&s0);
    (r, rig.machine.clock.snapshot().delta(&t0), d.crossings)
}

/// Sequential scan, one syscall pair per record (baseline).
pub fn scan_user(rig: &Rig, proc: &UserProc, path: &str, cfg: &DbConfig) -> DbRunReport {
    let sys = &rig.sys;
    let pid = proc.pid;
    let ((checksum, touched), elapsed, crossings) = measure(rig, || {
        let fd = sys.sys_open(pid, path, OpenFlags::RDONLY) as i32;
        assert!(fd >= 0);
        let mut checksum = 0u64;
        let mut touched = 0u64;
        loop {
            let n = sys.sys_read(pid, fd, proc.buf, cfg.record_size);
            if n <= 0 {
                break;
            }
            let data = proc.fetch(rig, n as usize);
            checksum += data.iter().map(|&b| b as u64).sum::<u64>();
            rig.machine.charge_user(cfg.cpu_per_record + n as u64);
            touched += 1;
        }
        sys.sys_close(pid, fd);
        (checksum, touched)
    });
    DbRunReport {
        checksum,
        records_touched: touched,
        elapsed_cycles: elapsed.elapsed(),
        crossings,
    }
}

/// Sequential scan through Cosy compounds: `batch` reads per crossing.
pub fn scan_cosy(rig: &Rig, proc: &UserProc, path: &str, cfg: &DbConfig) -> DbRunReport {
    let pid = proc.pid;
    let data_pages = (cfg.batch * cfg.record_size).div_ceil(ksim::PAGE_SIZE).max(1);
    // ~32 encoded bytes per read op.
    let cb_pages = (cfg.batch * 32).div_ceil(ksim::PAGE_SIZE).max(1);
    let cb = SharedRegion::new(rig.machine.clone(), pid, cb_pages, 2).expect("compound buf");
    let db = SharedRegion::new(rig.machine.clone(), pid, data_pages, 3).expect("data buf");

    // Open once via a normal syscall; compounds then reference the fd.
    let fd = rig.sys.sys_open(pid, path, OpenFlags::RDONLY);
    assert!(fd >= 0);

    let ((checksum, touched), elapsed, crossings) = measure(rig, || {
        let mut checksum = 0u64;
        let mut touched = 0u64;
        let mut remaining = cfg.records;
        while remaining > 0 {
            let batch = remaining.min(cfg.batch);
            let mut b = CompoundBuilder::new(&cb, &db);
            let mut refs = Vec::with_capacity(batch);
            for _ in 0..batch {
                let buf = b.alloc_buf(cfg.record_size as u32).expect("data buffer space");
                b.syscall(
                    CosyCall::Read,
                    vec![
                        CompoundBuilder::lit(fd),
                        buf,
                        CompoundBuilder::lit(cfg.record_size as i64),
                    ],
                );
                refs.push(buf);
            }
            b.finish().expect("encode compound");
            let results = rig
                .cosy
                .submit(pid, &cb, &db, &CosyOptions::default())
                .expect("compound scan");
            for (arg, &n) in refs.iter().zip(&results) {
                if n <= 0 {
                    continue;
                }
                let cosy::CosyArg::BufRef { offset, .. } = arg else { unreachable!() };
                // The record is already visible in shared memory: read it
                // as plain user memory (no crossing, no copy).
                let mut data = vec![0u8; n as usize];
                db.user_read(*offset as usize, &mut data).expect("shared read");
                checksum += data.iter().map(|&b| b as u64).sum::<u64>();
                rig.machine.charge_user(cfg.cpu_per_record + n as u64);
                touched += 1;
            }
            remaining -= batch;
        }
        (checksum, touched)
    });
    rig.sys.sys_close(pid, fd as i32);
    let _ = (cb.release(), db.release());
    DbRunReport {
        checksum,
        records_touched: touched,
        elapsed_cycles: elapsed.elapsed(),
        crossings,
    }
}

/// Random probes via lseek+read syscall pairs (baseline).
pub fn probe_user(rig: &Rig, proc: &UserProc, path: &str, cfg: &DbConfig) -> DbRunReport {
    let sys = &rig.sys;
    let pid = proc.pid;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let ((checksum, touched), elapsed, crossings) = measure(rig, || {
        let fd = sys.sys_open(pid, path, OpenFlags::RDONLY) as i32;
        let mut checksum = 0u64;
        let mut touched = 0u64;
        for _ in 0..cfg.probes {
            let rec = rng.gen_range(0..cfg.records) as i64;
            let off = rec * cfg.record_size as i64;
            assert!(sys.sys_lseek(pid, fd, off, 0) >= 0);
            let n = sys.sys_read(pid, fd, proc.buf, cfg.record_size);
            assert!(n as usize == cfg.record_size);
            let data = proc.fetch(rig, n as usize);
            checksum += data.iter().map(|&b| b as u64).sum::<u64>();
            rig.machine.charge_user(cfg.cpu_per_record + n as u64);
            touched += 1;
        }
        sys.sys_close(pid, fd);
        (checksum, touched)
    });
    DbRunReport {
        checksum,
        records_touched: touched,
        elapsed_cycles: elapsed.elapsed(),
        crossings,
    }
}

/// Random probes via Cosy: `batch` (lseek, read) pairs per crossing.
pub fn probe_cosy(rig: &Rig, proc: &UserProc, path: &str, cfg: &DbConfig) -> DbRunReport {
    let pid = proc.pid;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let data_pages = (cfg.batch * cfg.record_size).div_ceil(ksim::PAGE_SIZE).max(1);
    // ~60 encoded bytes per (lseek, read) pair.
    let cb_pages = (cfg.batch * 60).div_ceil(ksim::PAGE_SIZE).max(1);
    let cb = SharedRegion::new(rig.machine.clone(), pid, cb_pages, 2).expect("compound buf");
    let db = SharedRegion::new(rig.machine.clone(), pid, data_pages, 3).expect("data buf");
    let fd = rig.sys.sys_open(pid, path, OpenFlags::RDONLY);
    assert!(fd >= 0);

    let ((checksum, touched), elapsed, crossings) = measure(rig, || {
        let mut checksum = 0u64;
        let mut touched = 0u64;
        let mut remaining = cfg.probes;
        while remaining > 0 {
            let batch = remaining.min(cfg.batch);
            let mut b = CompoundBuilder::new(&cb, &db);
            let mut refs = Vec::with_capacity(batch);
            for _ in 0..batch {
                let rec = rng.gen_range(0..cfg.records) as i64;
                let off = rec * cfg.record_size as i64;
                b.syscall(
                    CosyCall::Lseek,
                    vec![
                        CompoundBuilder::lit(fd),
                        CompoundBuilder::lit(off),
                        CompoundBuilder::lit(0),
                    ],
                );
                let buf = b.alloc_buf(cfg.record_size as u32).expect("buffer space");
                b.syscall(
                    CosyCall::Read,
                    vec![
                        CompoundBuilder::lit(fd),
                        buf,
                        CompoundBuilder::lit(cfg.record_size as i64),
                    ],
                );
                refs.push(buf);
            }
            b.finish().expect("encode");
            let results = rig
                .cosy
                .submit(pid, &cb, &db, &CosyOptions::default())
                .expect("compound probe");
            for (i, arg) in refs.iter().enumerate() {
                let n = results[i * 2 + 1];
                assert!(n as usize == cfg.record_size);
                let cosy::CosyArg::BufRef { offset, .. } = arg else { unreachable!() };
                let mut data = vec![0u8; n as usize];
                db.user_read(*offset as usize, &mut data).expect("shared read");
                checksum += data.iter().map(|&b| b as u64).sum::<u64>();
                rig.machine.charge_user(cfg.cpu_per_record + n as u64);
                touched += 1;
            }
            remaining -= batch;
        }
        (checksum, touched)
    });
    rig.sys.sys_close(pid, fd as i32);
    let _ = (cb.release(), db.release());
    DbRunReport {
        checksum,
        records_touched: touched,
        elapsed_cycles: elapsed.elapsed(),
        crossings,
    }
}

/// The out-of-core scan result: the same sequential scan + random probes
/// as the memfs variants, but on a kjfs mount whose page cache is smaller
/// than the record file, with per-phase cache behaviour.
#[derive(Debug, Clone)]
pub struct DbCacheReport {
    pub seq: DbRunReport,
    /// Page-cache behaviour of the scan: a [`kjfs::KjfsStats`] delta.
    pub seq_cache: kjfs::KjfsStats,
    pub probe: DbRunReport,
    pub probe_cache: kjfs::KjfsStats,
}

/// Block-level dbscan on kjfs at a working set exceeding the page cache:
/// build the record file, checkpoint it home (so its pages are clean and
/// evictable), then run the sequential scan and the random probes,
/// reporting cache hit/miss and readahead effectiveness per phase.
pub fn scan_kjfs_out_of_core(cfg: &DbConfig, cache_pages: usize) -> DbCacheReport {
    let file_pages = (cfg.records * cfg.record_size).div_ceil(ksim::PAGE_SIZE);
    assert!(
        file_pages > cache_pages,
        "working set ({file_pages} pages) must exceed the cache ({cache_pages})"
    );
    let rig = Rig::kjfs_with(kjfs::KjfsConfig {
        page_cache_capacity: cache_pages,
        ..Default::default()
    });
    let p = rig.user(1 << 16);
    setup_db(&rig, &p, "/db", cfg);
    let fs = rig.kjfs.as_ref().expect("kjfs root");
    // Everything home and clean: the scan starts from a cold-ish cache
    // whose resident pages are whatever survived setup's eviction churn.
    fs.checkpoint_now().expect("checkpoint");

    let s0 = fs.stats();
    let seq = scan_user(&rig, &p, "/db", cfg);
    let s1 = fs.stats();
    let probe = probe_user(&rig, &p, "/db", cfg);
    let s2 = fs.stats();
    DbCacheReport {
        seq,
        seq_cache: s1.delta(&s0),
        probe,
        probe_cache: s2.delta(&s1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DbConfig {
        DbConfig { records: 200, record_size: 128, probes: 100, batch: 16, ..Default::default() }
    }

    #[test]
    fn user_and_cosy_scans_agree_and_cosy_crosses_less() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let c = cfg();
        setup_db(&rig, &p, "/db", &c);

        let user = scan_user(&rig, &p, "/db", &c);
        let cosyr = scan_cosy(&rig, &p, "/db", &c);
        assert_eq!(user.checksum, expected_scan_checksum(&c));
        assert_eq!(user.checksum, cosyr.checksum, "identical data");
        assert_eq!(user.records_touched, 200);
        assert_eq!(cosyr.records_touched, 200);
        assert!(
            cosyr.crossings * 5 < user.crossings,
            "cosy {} vs user {} crossings",
            cosyr.crossings,
            user.crossings
        );
        assert!(
            cosyr.elapsed_cycles < user.elapsed_cycles,
            "cosy {} vs user {}",
            cosyr.elapsed_cycles,
            user.elapsed_cycles
        );
    }

    #[test]
    fn user_and_cosy_probes_agree() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let c = cfg();
        setup_db(&rig, &p, "/db", &c);
        let user = probe_user(&rig, &p, "/db", &c);
        let cosyr = probe_cosy(&rig, &p, "/db", &c);
        assert_eq!(user.checksum, cosyr.checksum, "same seed, same probes");
        assert_eq!(user.records_touched, cosyr.records_touched);
        assert!(cosyr.crossings < user.crossings);
        assert!(cosyr.elapsed_cycles < user.elapsed_cycles);
    }

    #[test]
    fn kjfs_scan_past_cache_capacity_misses_and_readahead_recovers() {
        // A 4 MiB record file against a 512-page (2 MiB) cache.
        let c = DbConfig {
            records: 1024,
            record_size: 4096,
            probes: 200,
            ..Default::default()
        };
        let r = scan_kjfs_out_of_core(&c, 512);
        assert_eq!(r.seq.checksum, expected_scan_checksum(&c), "scan data intact on kjfs");
        assert_eq!(r.seq.records_touched, 1024);
        assert!(r.seq_cache.cache_misses > 0, "working set exceeds the cache");
        assert!(r.seq_cache.evictions > 0, "capacity pressure evicts");
        assert!(r.seq_cache.readahead_issued > 0);
        assert!(
            r.seq_cache.readahead_hits * 2 >= r.seq_cache.readahead_issued,
            "sequential readahead mostly useful: {}/{} pages",
            r.seq_cache.readahead_hits,
            r.seq_cache.readahead_issued
        );
        assert_eq!(r.probe.records_touched, 200);
        assert!(r.probe_cache.cache_misses > 0, "random probes past capacity miss");
    }

    #[test]
    fn batch_size_one_still_works() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let c = DbConfig { batch: 1, records: 20, probes: 10, ..cfg() };
        setup_db(&rig, &p, "/db1", &c);
        let a = scan_user(&rig, &p, "/db1", &c);
        let b = scan_cosy(&rig, &p, "/db1", &c);
        assert_eq!(a.checksum, b.checksum);
    }
}
