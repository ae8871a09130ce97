//! Integration: the fault-injection plane across crates — every registered
//! site fires under a targeted workload, injected failures never panic the
//! host, aborted compounds roll back to the pre-submit image bit-exactly,
//! the op-by-op fallback converges to the no-fault answer, and the same
//! seed reproduces the same trace and the same final file-system state.

use std::sync::Arc;

use kucode::kfault::{sites, Policy};
use kucode::ksim::SchedStats;
use kucode::kvfs::{BlockAddr, BlockDev, FileSystem, VfsError};
use kucode::prelude::*;

fn regions(rig: &Rig, p: &UserProc, slot: u64) -> (SharedRegion, SharedRegion) {
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, slot).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 4, slot + 1).unwrap();
    (cb, db)
}

/// Capture a content-level snapshot with injection suspended: recovery and
/// verification are not fault targets.
fn snap(rig: &Rig) -> VfsSnapshot {
    let was = rig.machine.faults.suspend();
    let s = VfsSnapshot::capture(rig.vfs.fs().as_ref()).unwrap();
    rig.machine.faults.resume(was);
    s
}

/// A kjfs over a fresh device on the rig's machine, mounted with injection
/// suspended: mkfs commits an initial transaction through the same guarded
/// writes the kjfs sites target, and that setup is not the workload.
fn kjfs_fresh(rig: &Rig) -> (Arc<BlockDev>, Kjfs) {
    let was = rig.machine.faults.suspend();
    let dev = Arc::new(BlockDev::new(rig.machine.clone()));
    let fs = Kjfs::mount(rig.machine.clone(), dev.clone(), KjfsConfig::small()).unwrap();
    rig.machine.faults.resume(was);
    (dev, fs)
}

/// Drive one registered site to fire exactly once (FailNth(1) scoped to the
/// site) and return how often it fired. Every arm of the match must survive
/// the injected failure as an `Err`/errno — never a host panic.
fn fire_site(site: &'static str) -> u64 {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);

    // Workload prerequisites run uninstrumented.
    let (cb, db) = regions(&rig, &p, 0);
    rig.machine.map_user(p.pid, 0x50_0000, 4096).unwrap();
    let fd = rig
        .sys
        .sys_open(p.pid, "/seed", OpenFlags::RDWR | OpenFlags::CREAT);
    assert!(fd >= 0);
    p.stage(&rig, b"payload-bytes!!!");

    rig.machine.faults.arm(0xA5A5);
    rig.machine
        .faults
        .add_policy(Some(site), Policy::FailNth(1));

    match site {
        s if s == sites::KSIM_FRAME_ALLOC => {
            assert!(rig.machine.map_user(p.pid, 0x60_0000, 4096).is_err());
        }
        s if s == sites::KSIM_TLB_FILL => {
            // The page at 0x50_0000 is mapped but was never touched, so the
            // TLB is cold and the access must go through the fill path.
            let asid = rig.machine.proc_asid(p.pid).unwrap();
            let mut buf = [0u8; 8];
            assert!(rig
                .machine
                .mem
                .read_virt(asid, 0x50_0000, &mut buf)
                .is_err());
        }
        s if s == sites::KSIM_PREEMPT_TICK => {
            let mut b = CompoundBuilder::new(&cb, &db);
            b.syscall(CosyCall::Getpid, vec![]);
            b.syscall(CosyCall::Getpid, vec![]);
            b.finish().unwrap();
            let err = rig
                .cosy
                .submit(p.pid, &cb, &db, &CosyOptions::default())
                .unwrap_err();
            assert!(matches!(err, CosyError::WatchdogKilled { .. }), "{err:?}");
        }
        s if s == sites::KALLOC_VMALLOC => {
            let vm = Vmalloc::new(rig.machine.clone(), VfreeIndex::HashTable);
            assert!(vm.vmalloc(4096).is_err());
        }
        s if s == sites::KALLOC_SLAB => {
            let slab = SlabAllocator::new(rig.machine.clone());
            assert!(slab.kmalloc(64).is_err());
        }
        s if s == sites::KVFS_BLOCKDEV_READ => {
            // An address no one has written is never cached: the read takes
            // the miss path and hits the injected media error.
            let got = rig.dev.read_block(BlockAddr { obj: 999, index: 0 }, 4096);
            assert_eq!(got.unwrap_err(), VfsError::Io);
        }
        s if s == sites::KVFS_BLOCKDEV_WRITE => {
            assert_eq!(
                rig.sys.sys_write(p.pid, fd as i32, p.buf, 16),
                VfsError::Io.errno()
            );
        }
        s if s == sites::KVFS_NOSPC => {
            let r = rig
                .sys
                .sys_open(p.pid, "/nospace", OpenFlags::WRONLY | OpenFlags::CREAT);
            assert_eq!(r, VfsError::NoSpace.errno());
        }
        s if s == sites::NET_ACCEPT_OVERFLOW => {
            let lsd = rig.sys.sys_socket(p.pid) as i32;
            assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 80, 8), 0);
            let c = rig.sys.sys_socket(p.pid) as i32;
            assert_eq!(rig.sys.sys_connect(p.pid, c, 80), -111, "ECONNREFUSED");
        }
        s if s == sites::NET_SEND_AGAIN => {
            let c = connected_client(&rig, &p);
            assert_eq!(rig.sys.sys_send(p.pid, c, p.buf, 16), -11, "EAGAIN");
        }
        s if s == sites::NET_PEER_RESET => {
            let c = connected_client(&rig, &p);
            assert_eq!(rig.sys.sys_send(p.pid, c, p.buf, 16), -104, "ECONNRESET");
        }
        s if s == sites::URING_CQ_OVERFLOW => {
            assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
            let ring = rig.sys.uring(p.pid).unwrap();
            ring.push_sqe(kucode::kuring::Sqe::nop(1)).unwrap();
            assert_eq!(rig.sys.sys_ring_enter(p.pid, 1, 0), 1);
            // The completion survives — diverted to the counted overflow
            // list, not dropped; the next enter flushes it back.
            assert_eq!(ring.cq_overflow_total(), 1);
            assert_eq!(ring.reap_cqe(), None);
            assert_eq!(rig.sys.sys_ring_enter(p.pid, 0, 0), 0);
            assert!(ring.reap_cqe().is_some());
        }
        s if s == sites::SCHED_STEAL_FAIL => {
            // `p` sits on CPU 0's run queue. CPU 1 is empty, so its pick
            // must steal — and the injected abort leaves it idle this tick.
            assert!(rig.machine.schedule_on(1).is_none());
            let st = rig.machine.sched_stats();
            assert_eq!((st.steals, st.steal_fails), (0, 1));
        }
        s if s == sites::SCHED_MIGRATE => {
            // The pick on CPU 0 first deports its head task to a random
            // other CPU; the pick still succeeds by stealing it back.
            assert_eq!(rig.machine.schedule_on(0), Some(p.pid));
            let st = rig.machine.sched_stats();
            assert_eq!((st.steals, st.migrations), (1, 1));
        }
        s if s == sites::KEVENTS_RING_FULL => {
            let disp = EventDispatcher::new(rig.machine.clone());
            let ring = Arc::new(EventRing::with_capacity(16));
            disp.attach_ring(ring.clone());
            disp.log_event(EventRecord::new(1, EventType::Custom(1), "t", 1, 0));
            assert_eq!(ring.stats().dropped, 1, "the record was lost, not delivered");
            assert_eq!(ring.len(), 0);
        }
        s if s == sites::KVFS_BLOCKDEV_TORN => {
            // The write consults `kvfs.blockdev.write` first — a different
            // site, so it passes — then the torn site models a power cut
            // mid-block: the first half lands, the device reports EIO.
            let addr = BlockAddr { obj: 9, index: 0 };
            assert_eq!(rig.dev.write_run_bytes(addr, &[0xEE; 4096]).unwrap_err(), VfsError::Io);
            let mut back = [0u8; 4096];
            rig.dev.read_block_bytes(addr, &mut back).unwrap();
            assert!(back[..2048].iter().all(|&b| b == 0xEE), "first half landed");
            assert!(back[2048..].iter().all(|&b| b == 0), "stale tail survived");
        }
        s if s == sites::KJFS_JOURNAL_COMMIT => {
            // The fsync's ordered data flush passes (scoped policy), then
            // the transaction's first journal write — the descriptor
            // block — hits the power cut and the file system aborts.
            let (_dev, fs) = kjfs_fresh(&rig);
            let ino = fs.create(fs.root(), "jc").unwrap();
            fs.write(ino, 0, b"journal me").unwrap();
            assert_eq!(fs.fsync(ino, false).unwrap_err(), VfsError::Io);
            assert!(fs.is_crashed());
        }
        s if s == sites::KJFS_WRITEBACK => {
            // Ordered-data mode flushes the new file's data page in place
            // *before* the journal writes — the first consult is the
            // writeback site, and the commit never starts.
            let (_dev, fs) = kjfs_fresh(&rig);
            let ino = fs.create(fs.root(), "wb").unwrap();
            fs.write(ino, 0, b"dirty page").unwrap();
            assert_eq!(fs.fsync(ino, false).unwrap_err(), VfsError::Io);
            assert!(fs.is_crashed());
        }
        s if s == sites::KJFS_CHECKPOINT => {
            // Commit a transaction (journal writes pass — different site),
            // then force the stage-3 drain: its first home-block run write
            // hits the power cut and the file system aborts.
            let (_dev, fs) = kjfs_fresh(&rig);
            let ino = fs.create(fs.root(), "cp").unwrap();
            fs.write(ino, 0, b"drain me").unwrap();
            fs.fsync(ino, false).unwrap();
            assert_eq!(fs.checkpoint_now().unwrap_err(), VfsError::Io);
            assert!(fs.is_crashed());
        }
        s if s == sites::KJFS_JOURNAL_REPLAY => {
            // Leave a committed-but-uncheckpointed transaction in the
            // journal, then remount cold: replay's first home-location
            // write hits the power cut and the mount fails whole.
            let (dev, fs) = kjfs_fresh(&rig);
            let ino = fs.create(fs.root(), "rp").unwrap();
            fs.write(ino, 0, b"replay me").unwrap();
            fs.commit_without_checkpoint().unwrap();
            drop(fs);
            dev.drop_caches();
            let res = Kjfs::mount(rig.machine.clone(), dev, KjfsConfig::small());
            assert_eq!(res.unwrap_err(), VfsError::Io);
        }
        s if s == sites::KPROG_VERIFY_REJECT => {
            // A trivially-verifiable filter: the injected rejection fires
            // before verification (and before the cache), surfacing as a
            // structured verdict, never a panic.
            let e = ProgEngine::new(rig.machine.clone());
            let src = "int f(int *ctx, int *state) { return 0; }";
            let err = e
                .load(src, &ProgSpec::new(HookClass::SyscallEntry, "f"))
                .unwrap_err();
            let LoadError::Rejected(r) = err else {
                panic!("expected injected rejection, got {err:?}")
            };
            assert_eq!(r.rule, RejectRule::Injected);
            // The same program loads fine once the policy is spent.
            e.load(src, &ProgSpec::new(HookClass::SyscallEntry, "f"))
                .unwrap();
        }
        s if s == sites::KPROG_BUDGET_EXHAUSTED => {
            // Load with injection pending (the load-time site is separate,
            // so it passes), then the first invocation trips the injected
            // budget exhaustion and fails like a real fuel overrun.
            let e = ProgEngine::new(rig.machine.clone());
            let src = "int f(int *ctx, int *state) { return ctx[0]; }";
            let prog = e
                .load(src, &ProgSpec::new(HookClass::SyscallEntry, "f"))
                .unwrap();
            let att = Attachment::new(rig.machine.clone(), prog).unwrap();
            let mut ctx = [5i64, 0, 0, 0];
            match att.run(&mut ctx, None) {
                Err(ProgError::Budget { .. }) => {}
                other => panic!("expected injected budget trip, got {other:?}"),
            }
            assert_eq!(att.stats().budget_trips, 1);
            // Next invocation runs clean.
            assert_eq!(att.run(&mut ctx, None).unwrap(), 5);
        }
        other => panic!("no workload for unknown site {other}"),
    }

    let stats = rig.machine.faults.site_stats();
    let entry = stats.iter().find(|st| st.site == site).unwrap();
    rig.machine.faults.disarm();
    entry.fired
}

/// A connected client socket (its accepted peer is left in the kernel).
/// The connect consults `net.accept_overflow` too, but the policy in
/// [`fire_site`] is scoped to one site, so only the target can fire.
fn connected_client(rig: &Rig, p: &UserProc) -> i32 {
    let lsd = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_bind_listen(p.pid, lsd, 80, 8), 0);
    let c = rig.sys.sys_socket(p.pid) as i32;
    assert_eq!(rig.sys.sys_connect(p.pid, c, 80), 0);
    assert!(rig.sys.sys_accept(p.pid, lsd) >= 0);
    c
}

#[test]
fn every_registered_site_fires_under_a_targeted_workload() {
    for &site in sites::ALL {
        assert_eq!(fire_site(site), 1, "{site} must fire exactly once");
    }
}

#[test]
fn a8_sweep_seed_indices_are_frozen() {
    // The A8 fault-sweep bench derives every (policy, site) seed from the
    // site's index in `sites::ALL`, and skips `sched.` / `kjfs.` /
    // `kprog.` prefixes plus the torn-write device site. Its TRACE_HASH
    // is therefore byte-identical across PRs iff the exercised sites keep
    // exactly these indices — new sites must land under a skipped prefix
    // or be appended after every exercised index.
    let exercised: Vec<(usize, &str)> = sites::ALL
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            !(s.starts_with("sched.")
                || s.starts_with("kjfs.")
                || s.starts_with("kprog.")
                || **s == sites::KVFS_BLOCKDEV_TORN)
        })
        .map(|(i, &s)| (i, s))
        .collect();
    assert_eq!(
        exercised,
        vec![
            (0, "ksim.frame_alloc"),
            (1, "ksim.tlb_fill"),
            (2, "ksim.preempt_tick"),
            (3, "kalloc.vmalloc"),
            (4, "kalloc.slab"),
            (5, "kvfs.blockdev.read"),
            (6, "kvfs.blockdev.write"),
            (7, "kvfs.nospc"),
            (8, "kevents.ring_full"),
            (9, "net.accept_overflow"),
            (10, "net.send_again"),
            (11, "net.peer_reset"),
            (12, "uring.cq_overflow"),
        ],
        "A8 seed indices shifted — its TRACE_HASH is no longer comparable across PRs"
    );
    // The pipelined journal's checkpoint site rides under the skipped
    // `kjfs.` prefix, appended at the very end.
    assert_eq!(*sites::ALL.last().unwrap(), sites::KJFS_CHECKPOINT);
}

#[test]
fn forced_cq_overflow_is_counted_and_lands_in_the_replayable_trace() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    let ring = rig.sys.uring(p.pid).unwrap();

    rig.machine.faults.arm(0xC0FE);
    rig.machine
        .faults
        .add_policy(Some(sites::URING_CQ_OVERFLOW), Policy::FailNth(2));

    for i in 0..3 {
        ring.push_sqe(kucode::kuring::Sqe::nop(i)).unwrap();
    }
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 3, 0), 3);

    // Post 2 was forced onto the overflow list with six CQ slots free, and
    // post 3 followed it there (ordering rule) — both counted, none lost.
    assert_eq!(ring.cq_len(), 1);
    assert_eq!(ring.overflow_len(), 2);
    assert_eq!(ring.cq_overflow_total(), 2);

    // The same event is visible in the deterministic fault trace, so a
    // replay with this seed reproduces the overflow exactly.
    let trace = rig.machine.faults.trace();
    assert_eq!(trace.len(), 1);
    assert_eq!(trace[0].site, sites::URING_CQ_OVERFLOW);
    assert_eq!(trace[0].hit, 2, "the second CQ post was the forced one");
    let stats = rig.machine.faults.site_stats();
    let entry = stats
        .iter()
        .find(|st| st.site == sites::URING_CQ_OVERFLOW)
        .unwrap();
    assert_eq!(entry.fired, 1);
    rig.machine.faults.disarm();

    // Recovery path: flush + reap delivers all three in post order.
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 0, 0), 0);
    let order: Vec<u64> = std::iter::from_fn(|| ring.reap_cqe())
        .map(|c| c.user_data)
        .collect();
    assert_eq!(order, vec![0, 1, 2]);
}

#[test]
fn aborted_compound_restores_the_presubmit_image() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let (cb, db) = regions(&rig, &p, 0);

    // Pre-existing state the compound will damage before it dies.
    let fd = rig
        .sys
        .sys_open(p.pid, "/victim", OpenFlags::RDWR | OpenFlags::CREAT);
    p.stage(&rig, b"victim content");
    rig.sys.sys_write(p.pid, fd as i32, p.buf, 14);
    rig.sys.sys_close(p.pid, fd as i32);
    let fd = rig
        .sys
        .sys_open(p.pid, "/keep", OpenFlags::RDWR | OpenFlags::CREAT);
    p.stage(&rig, b"keep these bytes");
    rig.sys.sys_write(p.pid, fd as i32, p.buf, 16);
    rig.sys.sys_close(p.pid, fd as i32);
    let before = snap(&rig);

    // mkdir + create + write + unlink + truncating re-open, then die on the
    // final write: ENOSPC consults run create(1), write(2), write(3).
    let mut b = CompoundBuilder::new(&cb, &db);
    let dir = b.stage_path("/d").unwrap();
    b.syscall(CosyCall::Mkdir, vec![dir]);
    let pa = b.stage_path("/d/a").unwrap();
    let data = b.stage_bytes(b"fresh junk").unwrap();
    let fda = b.syscall(CosyCall::Open, vec![pa, CompoundBuilder::lit(0x42)]);
    b.syscall(
        CosyCall::Write,
        vec![
            CompoundBuilder::result_of(fda),
            data,
            CompoundBuilder::lit(10),
        ],
    );
    let victim = b.stage_path("/victim").unwrap();
    b.syscall(CosyCall::Unlink, vec![victim]);
    let keep = b.stage_path("/keep").unwrap();
    let fdk = b.syscall(CosyCall::Open, vec![keep, CompoundBuilder::lit(0x201)]);
    b.syscall(
        CosyCall::Write,
        vec![
            CompoundBuilder::result_of(fdk),
            data,
            CompoundBuilder::lit(10),
        ],
    );
    b.finish().unwrap();

    rig.machine.faults.arm(0x0DDB);
    rig.machine
        .faults
        .add_policy(Some(sites::KVFS_NOSPC), Policy::FailNth(3));
    let err = rig
        .cosy
        .submit(p.pid, &cb, &db, &CosyOptions::default())
        .unwrap_err();
    assert!(matches!(err, CosyError::Vfs(VfsError::NoSpace)), "{err:?}");
    assert_eq!(rig.machine.faults.fired_count(), 1);
    rig.machine.faults.disarm();

    let after = snap(&rig);
    assert_eq!(before.hash(), after.hash(), "{:?}", before.diff(&after));
    assert_eq!(rig.sys.k_stat("/victim").unwrap().size, 14, "unlink undone");
    assert_eq!(rig.sys.k_stat("/keep").unwrap().size, 16, "truncate undone");
    assert!(rig.sys.k_stat("/d").is_err(), "mkdir undone");
    // The process survives a transient abort and can keep working.
    assert!(rig.sys.sys_getpid(p.pid) >= 0);
}

#[test]
fn injected_watchdog_kill_rolls_back_and_terminates_the_process() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let (cb, db) = regions(&rig, &p, 0);
    let before = snap(&rig);

    // Preemption points run before every op: FailNth(2) lets op 0 create a
    // file, then forces the watchdog kill at the op-1 boundary.
    let mut b = CompoundBuilder::new(&cb, &db);
    let path = b.stage_path("/doomed").unwrap();
    let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]);
    b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
    b.finish().unwrap();

    rig.machine.faults.arm(7);
    rig.machine
        .faults
        .add_policy(Some(sites::KSIM_PREEMPT_TICK), Policy::FailNth(2));
    let err = rig
        .cosy
        .submit(p.pid, &cb, &db, &CosyOptions::default())
        .unwrap_err();
    rig.machine.faults.disarm();
    assert!(
        matches!(err, CosyError::WatchdogKilled { op_index: 1 }),
        "killed at the second preemption point: {err:?}"
    );

    // A fatal fault still honours all-or-nothing: the created file is gone,
    // and — as in the paper — the offending process is terminated.
    let after = snap(&rig);
    assert_eq!(before.hash(), after.hash(), "{:?}", before.diff(&after));
    assert!(rig.sys.k_stat("/doomed").is_err());
    assert_eq!(rig.sys.sys_getpid(p.pid), -3, "ESRCH: process is gone");
}

#[test]
fn fallback_replay_converges_to_the_no_fault_result() {
    let build = |cb: &SharedRegion, db: &SharedRegion| {
        let mut b = CompoundBuilder::new(cb, db);
        for path in ["/f", "/g"] {
            let pa = b.stage_path(path).unwrap();
            let data = b.stage_bytes(b"sixteen bytes!!").unwrap();
            let fd = b.syscall(CosyCall::Open, vec![pa, CompoundBuilder::lit(0x42)]);
            b.syscall(
                CosyCall::Write,
                vec![
                    CompoundBuilder::result_of(fd),
                    data,
                    CompoundBuilder::lit(16),
                ],
            );
            b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        }
        b.finish().unwrap();
    };

    // Twin A: no faults.
    let clean = Rig::memfs();
    let pc = clean.user(1 << 16);
    let (cb, db) = regions(&clean, &pc, 0);
    build(&cb, &db);
    let want = clean
        .cosy
        .submit(pc.pid, &cb, &db, &CosyOptions::default())
        .unwrap();

    // Twin B: every second ENOSPC consult fails, but the op-by-op fallback
    // retries transients until the compound's work is fully applied.
    let faulty = Rig::memfs();
    let pf = faulty.user(1 << 16);
    let (cb, db) = regions(&faulty, &pf, 0);
    build(&cb, &db);
    faulty.machine.faults.arm(9);
    faulty
        .machine
        .faults
        .add_policy(Some(sites::KVFS_NOSPC), Policy::EveryNth(2));
    let opts = CosyOptions {
        fallback: FallbackMode::Replay {
            max_retries: 3,
            backoff_cycles: 250,
        },
        ..Default::default()
    };
    let got = faulty.cosy.submit(pf.pid, &cb, &db, &opts).unwrap();
    assert!(
        faulty.machine.faults.fired_count() >= 2,
        "faults really were injected"
    );
    faulty.machine.faults.disarm();

    assert_eq!(got, want, "degraded execution returns the no-fault results");
    for path in ["/f", "/g"] {
        assert_eq!(
            faulty.sys.k_stat(path).unwrap().size,
            clean.sys.k_stat(path).unwrap().size,
            "{path}"
        );
    }
    assert_eq!(
        snap(&faulty).hash(),
        snap(&clean).hash(),
        "identical final images"
    );
}

#[test]
fn oops_capture_and_ring_loss_surface_through_kevents() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let (cb, db) = regions(&rig, &p, 0);
    let disp = Arc::new(EventDispatcher::new(rig.machine.clone()));
    let ring = Arc::new(EventRing::with_capacity(16));
    disp.attach_ring(ring.clone());
    rig.cosy.set_oops_sink(disp);

    let submit_failing = |path: &str| {
        let mut b = CompoundBuilder::new(&cb, &db);
        let pa = b.stage_path(path).unwrap();
        let data = b.stage_bytes(b"will not survive").unwrap();
        let fd = b.syscall(CosyCall::Open, vec![pa, CompoundBuilder::lit(0x42)]);
        b.syscall(
            CosyCall::Write,
            vec![
                CompoundBuilder::result_of(fd),
                data,
                CompoundBuilder::lit(16),
            ],
        );
        b.finish().unwrap();
        rig.cosy
            .submit(p.pid, &cb, &db, &CosyOptions::default())
            .unwrap_err()
    };

    // Phase 1: an injected media error aborts the compound and the oops
    // record reaches the ring.
    rig.machine.faults.arm(11);
    rig.machine
        .faults
        .add_policy(Some(sites::KVFS_BLOCKDEV_WRITE), Policy::FailNth(1));
    let err = submit_failing("/o1");
    assert!(matches!(err, CosyError::Vfs(VfsError::Io)), "{err:?}");
    let mut out = Vec::new();
    ring.pop_bulk(&mut out, 16);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].event, kucode::kevents::OOPS_EVENT);
    assert_eq!(out[0].obj, p.pid.0 as u64);
    assert_eq!(out[0].value, VfsError::Io.errno());

    // Phase 2: the monitoring plane itself is faulted — the oops record is
    // dropped at the (injected-full) ring but the loss stays countable.
    rig.machine.faults.clear_policies();
    rig.machine.faults.arm(12);
    rig.machine
        .faults
        .add_policy(Some(sites::KVFS_NOSPC), Policy::FailNth(1));
    rig.machine
        .faults
        .add_policy(Some(sites::KEVENTS_RING_FULL), Policy::FailNth(1));
    let err = submit_failing("/o2");
    assert!(matches!(err, CosyError::Vfs(VfsError::NoSpace)), "{err:?}");
    rig.machine.faults.disarm();
    let mut out = Vec::new();
    ring.pop_bulk(&mut out, 16);
    assert!(out.is_empty(), "the oops record was lost to the full ring");
    assert_eq!(ring.stats().dropped, 1, "but the loss is counted");
}

#[test]
fn allocator_failure_surfaces_as_enospc_through_the_stacked_fs() {
    let rig = Rig::wrapfs_kmalloc();
    let p = rig.user(1 << 16);
    rig.machine.faults.arm(3);
    rig.machine
        .faults
        .add_policy(Some(sites::KALLOC_SLAB), Policy::FailNth(1));
    let r = rig
        .sys
        .sys_open(p.pid, "/wrapped", OpenFlags::WRONLY | OpenFlags::CREAT);
    rig.machine.faults.disarm();
    assert_eq!(
        r,
        VfsError::NoSpace.errno(),
        "kmalloc failure maps to ENOSPC"
    );
    assert_eq!(rig.machine.faults.fired_count(), 1);
}

/// One seeded chaos episode: 24 open+write+close compounds (with periodic
/// unlinks) under a 12% ENOSPC/EIO probability with the op-by-op fallback
/// enabled. Returns the fault trace hash, the final file-system image hash,
/// and every per-compound outcome.
fn chaos_run(seed: u64) -> (u64, u64, Vec<Result<Vec<i64>, String>>) {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    for i in 0..4 {
        let fd = rig.sys.sys_open(
            p.pid,
            &format!("/seed{i}"),
            OpenFlags::RDWR | OpenFlags::CREAT,
        );
        p.stage(&rig, b"pre-populated");
        rig.sys.sys_write(p.pid, fd as i32, p.buf, 13);
        rig.sys.sys_close(p.pid, fd as i32);
    }
    let (cb, db) = regions(&rig, &p, 0);

    rig.machine.faults.arm(seed);
    rig.machine
        .faults
        .add_policy(Some("kvfs."), Policy::Probability(120));
    let opts = CosyOptions {
        fallback: FallbackMode::Replay {
            max_retries: 2,
            backoff_cycles: 400,
        },
        ..Default::default()
    };
    let mut outcomes = Vec::new();
    for i in 0..24 {
        let mut b = CompoundBuilder::new(&cb, &db);
        let path = b.stage_path(&format!("/f{}", i % 6)).unwrap();
        let data = b.stage_bytes(b"deterministic payload").unwrap();
        let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]);
        b.syscall(
            CosyCall::Write,
            vec![
                CompoundBuilder::result_of(fd),
                data,
                CompoundBuilder::lit(21),
            ],
        );
        b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        if i % 5 == 0 {
            let victim = b.stage_path(&format!("/seed{}", i % 4)).unwrap();
            b.syscall(CosyCall::Unlink, vec![victim]);
        }
        b.finish().unwrap();
        outcomes.push(
            rig.cosy
                .submit(p.pid, &cb, &db, &opts)
                .map_err(|e| format!("{e:?}")),
        );
    }
    let trace_hash = rig.machine.faults.trace_hash();
    assert!(
        rig.machine.faults.fired_count() > 0,
        "p=0.12 over 24 compounds must fire"
    );
    rig.machine.faults.disarm();
    (trace_hash, snap(&rig).hash(), outcomes)
}

/// One seeded scheduler-chaos episode: 16 processes spread over all CPUs,
/// a 20% probability policy over both `sched.*` sites, 96 round-robin
/// picks. Returns the full pick sequence, the fault trace hash, and the
/// scheduler counters.
#[allow(clippy::type_complexity)]
fn sched_chaos_run(seed: u64) -> (Vec<Option<Pid>>, u64, SchedStats) {
    let m = Machine::new(MachineConfig::default());
    let _pids: Vec<Pid> = (0..16)
        .map(|i| {
            let _cpu = m.bind_cpu(i % m.num_cpus());
            m.spawn_process()
        })
        .collect();
    m.faults.arm(seed);
    m.faults.add_policy(Some("sched."), Policy::Probability(200));
    let order: Vec<Option<Pid>> = (0..96)
        .map(|tick| m.schedule_on(tick % m.num_cpus()))
        .collect();
    assert!(
        m.faults.fired_count() > 0,
        "p=0.2 over 96 picks must perturb the scheduler"
    );
    let hash = m.faults.trace_hash();
    m.faults.disarm();
    (order, hash, m.sched_stats())
}

#[test]
fn sched_chaos_is_deterministic_across_cpus() {
    let a = sched_chaos_run(0xC4A0);
    let b = sched_chaos_run(0xC4A0);
    assert_eq!(a.0, b.0, "same seed, same pick sequence on every CPU");
    assert_eq!(a.1, b.1, "same seed, same fault trace hash");
    assert_eq!(a.2, b.2, "same seed, same steal/migration counters");

    let c = sched_chaos_run(0xD00D);
    assert_ne!(a.1, c.1, "a different seed draws a different schedule");
}

#[test]
fn same_seed_reproduces_the_same_trace_and_final_state() {
    let a = chaos_run(0x5EED);
    let b = chaos_run(0x5EED);
    assert_eq!(a.0, b.0, "same seed, same fault trace");
    assert_eq!(a.1, b.1, "same seed, same final file-system image");
    assert_eq!(a.2, b.2, "same seed, same per-compound outcomes");

    let c = chaos_run(0xBADD);
    assert_ne!(
        a.0, c.0,
        "a different seed draws a different fault schedule"
    );
}
