//! Integration: kjfs power-cut crash consistency.
//!
//! The headline robustness result: kill the machine at *every* journal and
//! writeback block write of a fixed 50-op workload — clean cuts and torn
//! mid-block writes — remount, replay the journal, and require that the
//! recovered tree is byte-for-byte one legal prefix of the operation log
//! (never older than the last acknowledged fsync), with zero structural
//! violations, deterministically across runs.

use std::sync::Arc;

use kucode::kjfs::harness::{apply_op, SWEEP_SEED};
use kucode::kvfs::{BlockDev, FileSystem, Vfs, VfsError, VfsSnapshot};
use kucode::prelude::*;
use proptest::prelude::*;

fn small() -> KjfsConfig {
    KjfsConfig::small()
}

// Every journal, writeback, checkpoint and replay block write is one kill
// point, so a write-path change that adds, drops, splits or reorders a
// guarded write moves the pinned kill-point counts and sweep hashes below.

// ---- the deterministic sweep (the A13 headline, under `cargo test`) --------

#[test]
fn clean_cut_sweep_recovers_every_kill_point() {
    let h = Harness::new(default_workload(), small()).expect("harness builds");
    assert!(
        h.write_points() >= 50,
        "a 50-op workload with fsyncs must produce a real write-point count, got {}",
        h.write_points()
    );
    let report = h.sweep(false);
    assert_eq!(report.write_points, h.write_points());
    assert_eq!(
        report.violations,
        0,
        "every clean-cut kill point must recover to a legal prefix: {:?}",
        report
            .outcomes
            .iter()
            .flat_map(|o| o.violations.iter())
            .take(5)
            .collect::<Vec<_>>()
    );
    // Every recovered tree honours the fsync durability floor.
    for o in &report.outcomes {
        let k = o.matched_prefix.expect("matched");
        assert!(k >= o.fsync_floor, "kill {}: prefix {k} below floor {}", o.kill_point, o.fsync_floor);
        assert!(k <= h.ops().len());
    }
    // Run-twice determinism: byte-identical sweep hash.
    let again = h.sweep(false);
    assert_eq!(report.sweep_hash, again.sweep_hash, "sweep must be deterministic");
    assert_eq!((h.write_points(), report.sweep_hash), (62, 0x3069_ef13_2609_3d5b));
}

#[test]
fn torn_write_sweep_recovers_every_kill_point() {
    let h = Harness::new(default_workload(), small()).expect("harness builds");
    let report = h.sweep(true);
    assert_eq!(
        report.violations,
        0,
        "every torn-write kill point must recover to a legal prefix: {:?}",
        report
            .outcomes
            .iter()
            .flat_map(|o| o.violations.iter())
            .take(5)
            .collect::<Vec<_>>()
    );
    let again = h.sweep(true);
    assert_eq!(report.sweep_hash, again.sweep_hash, "torn sweep must be deterministic");
    assert_eq!((h.write_points(), report.sweep_hash), (62, 0xd67c_16c5_815d_d514));
}

// ---- the same sweep under the single-txn journal ---------------------------

#[test]
fn single_txn_sweep_recovers_every_kill_point() {
    let cfg = small().with_mode(JournalMode::SingleTxn);
    let h = Harness::new(default_workload(), cfg).expect("harness builds");
    assert_eq!(h.write_points(), 96);
    for (torn, pin) in [(false, 0x05a2_e521_0ce0_c386), (true, 0xb1bc_dd78_802f_5ba4)] {
        let report = h.sweep(torn);
        assert_eq!(
            report.violations,
            0,
            "torn={torn}: {:?}",
            report.outcomes.iter().flat_map(|o| o.violations.iter()).take(5).collect::<Vec<_>>()
        );
        assert_eq!(report.sweep_hash, pin, "torn={torn}: {:016x}", report.sweep_hash);
    }
}

// ---- directory extents across the one-block boundary -----------------------

#[test]
fn dir_boundary_sweep_recovers_every_kill_point() {
    let h = Harness::new(dir_boundary_workload(), small()).expect("harness builds");
    assert_eq!(h.write_points(), 69);
    for (torn, pin) in [(false, 0x2f11_310a_adcb_5f39), (true, 0xceb2_3619_b7c7_9004)] {
        let report = h.sweep(torn);
        assert_eq!(
            report.violations,
            0,
            "dir-boundary torn={torn}: {:?}",
            report.outcomes.iter().flat_map(|o| o.violations.iter()).take(5).collect::<Vec<_>>()
        );
        assert_eq!(report.sweep_hash, pin, "torn={torn}: {:016x}", report.sweep_hash);
    }
}

// ---- crash during replay: recovery must itself be crash-safe ---------------

#[test]
fn crash_during_replay_then_clean_mount_recovers() {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let dev = Arc::new(BlockDev::new(machine.clone()));
    let fs = Kjfs::mount(machine.clone(), dev.clone(), small()).unwrap();

    let f = fs.create(fs.root(), "precious").unwrap();
    fs.write(f, 0, &vec![0x42u8; 9000]).unwrap();
    // Journal the txn but crash before checkpointing it home.
    fs.commit_without_checkpoint().unwrap();
    assert!(fs.is_crashed());
    drop(fs);
    dev.drop_caches();

    // Repeated double crashes: every recovery attempt dies mid-replay, at a
    // different replay write point each round. A failed replay never retires
    // the transaction (the commit slot is only zeroed after all images are
    // home), so each round finds the journal intact and starts over.
    for n in 1..=4u64 {
        machine.faults.arm(SWEEP_SEED);
        machine.faults.add_policy(Some("kjfs.journal.replay"), Policy::FailNth(n));
        let res = Kjfs::mount(machine.clone(), dev.clone(), small());
        machine.faults.disarm();
        machine.faults.clear_policies();
        assert!(res.is_err(), "replay write {n} was killed; mount must fail");
        dev.drop_caches();
    }

    // However much of those partial replays landed, physical redo is
    // idempotent: a clean mount re-applies the same images and converges.
    let fs2 = Kjfs::mount(machine.clone(), dev.clone(), small()).unwrap();
    assert!(fs2.fsck().is_empty(), "{:?}", fs2.fsck());
    let ino = fs2.lookup(fs2.root(), "precious").unwrap();
    let mut back = vec![0u8; 9000];
    assert_eq!(fs2.read(ino, 0, &mut back).unwrap(), 9000);
    assert!(back.iter().all(|&b| b == 0x42));
    let first = VfsSnapshot::capture(&fs2).unwrap().hash();

    // And once recovered, a further remount is a no-op (txn retired).
    drop(fs2);
    dev.drop_caches();
    let fs3 = Kjfs::mount(machine.clone(), dev.clone(), small()).unwrap();
    assert_eq!(VfsSnapshot::capture(&fs3).unwrap().hash(), first);
    assert!(fs3.fsck().is_empty());
}

// ---- crash during replay of a multi-transaction tail -----------------------

#[test]
fn double_crash_during_multi_txn_replay_converges() {
    let cfg = small().with_mode(JournalMode::GroupCommit);
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let dev = Arc::new(BlockDev::new(machine.clone()));
    let fs = Kjfs::mount(machine.clone(), dev.clone(), cfg.clone()).unwrap();

    // Three committed-but-uncheckpointed transactions, overlapping on the
    // same hot blocks (itable, header, the file's first pages), then an
    // instant power cut: the journal holds a multi-txn tail.
    let f = fs.create(fs.root(), "layered").unwrap();
    for round in 1..=3u8 {
        fs.write(f, 0, &vec![round; 6000]).unwrap();
        fs.fsync(f, false).unwrap();
    }
    assert!(fs.live_txns() >= 3, "tail must hold several txns");
    fs.power_cut();
    drop(fs);
    dev.drop_caches();

    // Kill every recovery attempt mid-replay at increasing write points:
    // partial replays land prefixes of the tail (older txns' images, some
    // retirements), so each retry starts from a different on-disk state.
    for n in 1..=6u64 {
        machine.faults.arm(SWEEP_SEED);
        machine.faults.add_policy(Some("kjfs.journal.replay"), Policy::FailNth(n));
        let res = Kjfs::mount(machine.clone(), dev.clone(), cfg.clone());
        machine.faults.disarm();
        machine.faults.clear_policies();
        assert!(res.is_err(), "replay write {n} was killed; mount must fail");
        dev.drop_caches();
    }

    // Txid-ordered physical redo is idempotent: the clean mount converges
    // to the newest committed state no matter which prefix already landed.
    let fs2 = Kjfs::mount(machine.clone(), dev.clone(), cfg.clone()).unwrap();
    assert!(fs2.fsck().is_empty(), "{:?}", fs2.fsck());
    let ino = fs2.lookup(fs2.root(), "layered").unwrap();
    let mut back = vec![0u8; 6000];
    assert_eq!(fs2.read(ino, 0, &mut back).unwrap(), 6000);
    assert_eq!(back, vec![3u8; 6000], "newest committed txn wins");
    let first = VfsSnapshot::capture(&fs2).unwrap().hash();

    drop(fs2);
    dev.drop_caches();
    let fs3 = Kjfs::mount(machine, dev, cfg).unwrap();
    assert_eq!(VfsSnapshot::capture(&fs3).unwrap().hash(), first, "tail fully retired");
    assert!(fs3.fsck().is_empty());
}

// ---- random workloads, random kill points ----------------------------------

fn paths() -> &'static [&'static str] {
    &["/a", "/b", "/d1", "/d1/x", "/d1/y", "/d2", "/d2/z", "/"]
}

fn arb_op() -> impl Strategy<Value = WOp> {
    let p = || (0usize..7).prop_map(|i| paths()[i].to_string());
    prop_oneof![
        p().prop_map(WOp::Create),
        p().prop_map(WOp::Mkdir),
        (p(), 0u64..20_000, 1usize..6_000, any::<u8>())
            .prop_map(|(path, off, len, seed)| WOp::Write { path, off, len, seed }),
        (p(), 0u64..20_000).prop_map(|(path, size)| WOp::Truncate { path, size }),
        (0usize..8).prop_map(|i| WOp::Fsync { path: paths()[i].to_string() }),
        p().prop_map(WOp::Unlink),
        p().prop_map(WOp::Rmdir),
        (p(), p()).prop_map(|(from, to)| WOp::Rename { from, to }),
    ]
}

// ---- journal modes are fsync-observably equivalent --------------------------

/// Run `ops` to completion under one journal mode; return the per-op errno
/// stream, the snapshot hash after every acknowledged fsync, and the final
/// in-memory tree hash.
fn run_under_mode(ops: &[WOp], mode: JournalMode) -> (Vec<Option<VfsError>>, Vec<u64>, u64) {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let dev = Arc::new(BlockDev::new(machine.clone()));
    let fs =
        Arc::new(Kjfs::mount(machine.clone(), dev.clone(), small().with_mode(mode)).unwrap());
    let vfs = Vfs::new(machine.clone(), fs.clone() as Arc<dyn FileSystem>);
    let mut errs = Vec::new();
    let mut fsync_hashes = Vec::new();
    for op in ops {
        let r = apply_op(&vfs, fs.as_ref(), op);
        let ok = r.is_ok();
        errs.push(r.err());
        if ok && matches!(op, WOp::Fsync { .. }) {
            fsync_hashes.push(VfsSnapshot::capture(fs.as_ref()).unwrap().hash());
        }
    }
    let end = VfsSnapshot::capture(fs.as_ref()).unwrap().hash();
    (errs, fsync_hashes, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The group-commit journal must be *observably* identical to the
    /// conservative single-txn journal: same errno for every op, same tree
    /// after every acknowledged fsync, same end state.
    /// Only the durability schedule may differ.
    #[test]
    fn journal_modes_are_fsync_observably_equivalent(
        ops in proptest::collection::vec(arb_op(), 5..40),
    ) {
        let base = run_under_mode(&ops, JournalMode::SingleTxn);
        let other = run_under_mode(&ops, JournalMode::GroupCommit);
        prop_assert_eq!(&base.0, &other.0, "errno divergence");
        prop_assert_eq!(&base.1, &other.1, "post-fsync snapshot divergence");
        prop_assert_eq!(base.2, other.2, "end-state divergence");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any op sequence over a fixed path pool: the fs and the pure model
    /// agree op-by-op (success/failure and resulting tree), and a crash at
    /// an arbitrary write point recovers to a legal prefix.
    #[test]
    fn random_ops_random_crash_recovers(
        ops in proptest::collection::vec(arb_op(), 5..30),
        kill_seed in 1u64..10_000,
        torn in any::<bool>(),
    ) {
        let h = Harness::new(ops, small())
            .map_err(proptest::test_runner::TestCaseError::fail)?;
        if h.write_points() == 0 {
            return Ok(()); // nothing ever hit the disk; no crash to inject
        }
        let n = kill_seed % h.write_points() + 1;
        let out = h.run_one(n, torn);
        prop_assert!(
            out.violations.is_empty(),
            "kill {n} (torn={torn}): {:?}", out.violations
        );
        prop_assert!(out.matched_prefix.unwrap() >= out.fsync_floor);
    }
}

// ---- fsync through the upper layers: syscalls, kuring, Cosy -----------------

fn reap_all(ring: &Uring) -> Vec<(u64, i64)> {
    let mut out = Vec::new();
    while let Some(c) = ring.reap_cqe() {
        out.push((c.user_data, c.res));
    }
    out
}

#[test]
fn syscall_fsync_and_fdatasync_commit_through_kjfs() {
    let rig = Rig::kjfs();
    let p = rig.user(1 << 16);
    let kjfs = rig.kjfs.as_ref().expect("kjfs root").clone();

    let fd = rig.sys.sys_open(p.pid, "/mail", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    assert!(fd >= 0);
    p.stage(&rig, &vec![0x5au8; 4096]);
    assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 4096), 4096);

    let before = kjfs.stats().commits;
    assert_eq!(rig.sys.sys_fsync(p.pid, fd), 0);
    let after = kjfs.stats().commits;
    assert!(after > before, "fsync(2) forces a journal commit");

    // Nothing dirtied since: fdatasync's essential-state check returns
    // durable without issuing another commit record.
    assert_eq!(rig.sys.sys_fdatasync(p.pid, fd), 0);
    assert_eq!(kjfs.stats().commits, after, "clean fdatasync is commit-free");
    assert_eq!(rig.sys.sys_close(p.pid, fd), 0);
}

#[test]
fn uring_write_batch_with_single_ring_fsync_commits_once() {
    let rig = Rig::kjfs();
    let p = rig.user(1 << 16);
    let kjfs = rig.kjfs.as_ref().expect("kjfs root").clone();
    let fd = rig.sys.sys_open(p.pid, "/spool", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    assert!(fd >= 0);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 16, 16), 0);
    let ring = rig.sys.uring(p.pid).unwrap();
    p.stage(&rig, &vec![0x6bu8; 1024]);

    // The advisor's remedy for the write…write…fsync tail: pile the writes
    // up as SQEs and ride ONE ring-borne fsync behind them.
    let before = kjfs.stats().commits;
    for i in 0..8u64 {
        ring.push_sqe(Sqe::write(fd, p.buf, 1024, i * 1024, i)).unwrap();
    }
    ring.push_sqe(Sqe::fsync(fd, false, 99)).unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 9, 9), 9);
    let cqes = reap_all(&ring);
    assert_eq!(cqes.len(), 9);
    for (ud, res) in &cqes[..8] {
        assert_eq!(*res, 1024, "ring write {ud}");
    }
    assert_eq!(cqes[8], (99, 0), "ring-borne fsync");
    let batched = kjfs.stats().commits - before;
    assert_eq!(batched, 1, "eight ring writes + one ring fsync = one commit");

    // The naive discipline — fsync after every write — pays one commit per
    // barrier for the same bytes. That gap is the durability tax A15 bills.
    let before = kjfs.stats().commits;
    for i in 0..8u64 {
        ring.push_sqe(Sqe::write(fd, p.buf, 1024, i * 1024, 2 * i)).unwrap();
        ring.push_sqe(Sqe::fsync(fd, false, 2 * i + 1)).unwrap();
    }
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 16, 16), 16);
    assert!(reap_all(&ring).iter().all(|&(_, res)| res >= 0));
    let naive = kjfs.stats().commits - before;
    assert_eq!(naive, 8, "per-write fsync pays the full tax");
    assert!(naive > batched);
}

#[test]
fn cosy_compound_fsync_is_durable_in_one_commit() {
    let rig = Rig::kjfs();
    let p = rig.user(1 << 16);
    let kjfs = rig.kjfs.as_ref().expect("kjfs root").clone();

    // open + write + fsync + close in ONE crossing: the compound's fsync
    // rides the same group-commit path as a direct syscall.
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 2, 1).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    let path = b.stage_path("/journal.dat").unwrap();
    let data = b.stage_bytes(&[0x7cu8; 512]).unwrap();
    let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]);
    b.syscall(
        CosyCall::Write,
        vec![CompoundBuilder::result_of(fd), data, CompoundBuilder::lit(512)],
    );
    b.syscall(
        CosyCall::Fsync,
        vec![CompoundBuilder::result_of(fd), CompoundBuilder::lit(0)],
    );
    b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
    b.finish().unwrap();

    let before = kjfs.stats().commits;
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert_eq!(results[1], 512, "compound write");
    assert_eq!(results[2], 0, "in-compound fsync");
    assert_eq!(kjfs.stats().commits, before + 1, "whole compound = one commit");
    assert_eq!(rig.sys.k_stat("/journal.dat").unwrap().size, 512);
}
