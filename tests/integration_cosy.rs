//! Integration: the full Cosy pipeline across crates — KC source with
//! COSY markers → Cosy-GCC extraction → Cosy-Lib instantiation → kernel
//! extension execution — validated against the same program executed as
//! plain system calls.

use std::collections::HashMap;

use kucode::prelude::*;

const APP: &str = r#"
    int process(int limit) {
        int flags = 66; // CREAT|RDWR
        char buf[1024];
        COSY_START;
        int fd = sys_open("/data.bin", flags);
        int w = sys_write(fd, "0123456789abcdef", 16);
        int pos = sys_lseek(fd, 0, 0);
        int r = sys_read(fd, buf, 1024);
        sys_close(fd);
        COSY_END;
        return r;
    }
"#;

fn rig_with_region() -> (Rig, UserProc, SharedRegion, SharedRegion) {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 2, 1).unwrap();
    (rig, p, cb, db)
}

#[test]
fn extracted_compound_matches_direct_syscall_execution() {
    let (rig, p, cb, db) = rig_with_region();

    // Path A: Cosy.
    let prog = parse_program(APP).unwrap();
    let region = extract_compound(&prog, "process").unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    let mut caps = HashMap::new();
    caps.insert("flags".to_string(), 66i64);
    region.instantiate(&mut b, &caps).unwrap();
    b.finish().unwrap();
    let s0 = rig.machine.stats.snapshot();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    let d = rig.machine.stats.snapshot().delta(&s0);
    assert_eq!(d.crossings, 1);
    assert_eq!(results[1], 16, "write");
    assert_eq!(results[2], 0, "lseek");
    assert_eq!(results[3], 16, "read back");

    // Path B: the same work via classic syscalls on a second file.
    let fd = rig.sys.sys_open(p.pid, "/data2.bin", OpenFlags::RDWR | OpenFlags::CREAT);
    p.stage(&rig, b"0123456789abcdef");
    assert_eq!(rig.sys.sys_write(p.pid, fd as i32, p.buf, 16), 16);
    assert_eq!(rig.sys.sys_lseek(p.pid, fd as i32, 0, 0), 0);
    assert_eq!(rig.sys.sys_read(p.pid, fd as i32, p.buf + 4096, 1024), 16);
    rig.sys.sys_close(p.pid, fd as i32);

    // The two files are byte-identical.
    let a = rig.sys.k_stat("/data.bin").unwrap();
    let b2 = rig.sys.k_stat("/data2.bin").unwrap();
    assert_eq!(a.size, b2.size);
}

#[test]
fn compound_beats_syscalls_on_cpu_time_for_repeated_work() {
    let (rig, p, cb, db) = rig_with_region();
    let prog = parse_program(APP).unwrap();
    let region = extract_compound(&prog, "process").unwrap();
    let mut caps = HashMap::new();
    caps.insert("flags".to_string(), 66i64);
    let mut b = CompoundBuilder::new(&cb, &db);
    region.instantiate(&mut b, &caps).unwrap();
    b.finish().unwrap();

    // Warm up both paths.
    rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    p.stage(&rig, b"0123456789abcdef");

    let cosy_cpu = {
        let t0 = rig.machine.clock.snapshot();
        for _ in 0..50 {
            rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
        }
        let iv = rig.machine.clock.snapshot().delta(&t0);
        iv.user + iv.sys
    };
    let sys_cpu = {
        let t0 = rig.machine.clock.snapshot();
        for _ in 0..50 {
            let fd = rig.sys.sys_open(p.pid, "/data.bin", OpenFlags::RDWR);
            rig.sys.sys_write(p.pid, fd as i32, p.buf, 16);
            rig.sys.sys_lseek(p.pid, fd as i32, 0, 0);
            rig.sys.sys_read(p.pid, fd as i32, p.buf + 4096, 1024);
            rig.sys.sys_close(p.pid, fd as i32);
        }
        let iv = rig.machine.clock.snapshot().delta(&t0);
        iv.user + iv.sys
    };
    let gain = improvement_pct(sys_cpu, cosy_cpu);
    assert!(
        (20.0..95.0).contains(&gain),
        "paper band is 20-90%; measured {gain:.1}% ({sys_cpu} vs {cosy_cpu})"
    );
}

#[test]
fn user_functions_execute_in_kernel_and_are_contained() {
    let (rig, p, cb, db) = rig_with_region();

    // Load a program with a pure function and a hostile one.
    let prog_id = rig
        .cosy
        .load_program(
            r#"
            int mix(int a, int b) { return a * 31 + b; }
            int hostile() {
                int *p = 77777777777;
                *p = 1;
                return 0;
            }
            "#,
        )
        .unwrap();
    assert_eq!(prog_id, kucode::cosy::ProgramId(0));

    // Chain: getpid feeds the user function.
    let mut b = CompoundBuilder::new(&cb, &db);
    let pidop = b.syscall(CosyCall::Getpid, vec![]);
    b.call_user(0, "mix", vec![CompoundBuilder::result_of(pidop), CompoundBuilder::lit(5)]);
    b.finish().unwrap();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert_eq!(results[1], results[0] * 31 + 5);

    // Hostile function: contained under both isolation modes.
    for mode in [IsolationMode::A, IsolationMode::B] {
        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(0, "hostile", vec![]);
        b.finish().unwrap();
        let err = rig
            .cosy
            .submit(p.pid, &cb, &db, &CosyOptions { isolation: mode, ..Default::default() })
            .unwrap_err();
        assert!(
            matches!(err, CosyError::Interp(InterpError::Segment { .. })),
            "{mode:?}: {err:?}"
        );
    }
}

#[test]
fn watchdog_terminates_runaway_compounds_and_kills_the_process() {
    let (rig, p, cb, db) = rig_with_region();
    rig.cosy
        .load_program("int spin() { int x = 0; while (1) { x = x + 1; } return x; }")
        .unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    b.call_user(0, "spin", vec![]);
    b.finish().unwrap();
    let opts = CosyOptions { watchdog_budget: Some(500_000), ..Default::default() };
    let err = rig.cosy.submit(p.pid, &cb, &db, &opts).unwrap_err();
    assert!(matches!(err, CosyError::WatchdogKilled { .. }), "{err:?}");
    // The paper: "the process is terminated".
    assert_eq!(rig.sys.sys_getpid(p.pid), -3, "ESRCH: process is gone");
}

#[test]
fn zero_copy_data_is_shared_not_copied() {
    let (rig, p, cb, db) = rig_with_region();
    // Prepare a file.
    p.stage(&rig, &[0xAB; 512]);
    let fd = rig.sys.sys_open(p.pid, "/shared.bin", OpenFlags::RDWR | OpenFlags::CREAT);
    rig.sys.sys_write(p.pid, fd as i32, p.buf, 512);
    rig.sys.sys_close(p.pid, fd as i32);

    let mut b = CompoundBuilder::new(&cb, &db);
    let path = b.stage_path("/shared.bin").unwrap();
    let buf = b.alloc_buf(512).unwrap();
    let fdop = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0)]);
    b.syscall(
        CosyCall::Read,
        vec![CompoundBuilder::result_of(fdop), buf, CompoundBuilder::lit(512)],
    );
    b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fdop)]);
    b.finish().unwrap();

    let s0 = rig.machine.stats.snapshot();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    let d = rig.machine.stats.snapshot().delta(&s0);
    assert_eq!(results[1], 512);
    assert_eq!(d.bytes_crossed(), 0, "the 512 bytes never crossed the boundary");

    // And the user genuinely sees them.
    let CosyArg::BufRef { offset, .. } = buf else { panic!() };
    let mut got = vec![0u8; 512];
    db.user_read(offset as usize, &mut got).unwrap();
    assert_eq!(got, vec![0xAB; 512]);
}

#[test]
fn cosy_subsumes_readdirplus_with_one_extra_crossing() {
    // The paper positions Cosy as the *general* mechanism and consolidated
    // syscalls as bespoke fast paths. Express the readdir+stat pattern all
    // three ways and verify the ordering: classic ≫ Cosy ≥ readdirplus.
    use kucode::ksyscall::wire;
    use kucode::kvfs::DIRENT_WIRE_BYTES;

    const N: usize = 40;
    let rig = Rig::memfs();
    let p = rig.user(1 << 20);
    rig.sys.sys_mkdir(p.pid, "/dir");
    for i in 0..N {
        let fd = rig
            .sys
            .sys_open(p.pid, &format!("/dir/f{i:03}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, i + 1);
        rig.sys.sys_close(p.pid, fd as i32);
    }

    // Warm the caches.
    rig.sys.sys_readdirplus(p.pid, "/dir", p.buf, 1000);

    // 1. Classic: readdir + stat per file.
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let dfd = rig.sys.sys_open(p.pid, "/dir", OpenFlags::RDONLY) as i32;
    let mut classic_sizes = Vec::new();
    loop {
        let n = rig.sys.sys_readdir(p.pid, dfd, p.buf, 512);
        if n <= 0 {
            break;
        }
        let raw = p.fetch(&rig, n as usize * DIRENT_WIRE_BYTES);
        for e in wire::parse_dirents(&raw, n as usize) {
            let stat_at = p.buf + 900_000;
            rig.sys.sys_stat(p.pid, &format!("/dir/{}", e.name), stat_at);
            let asid = rig.machine.proc_asid(p.pid).unwrap();
            let mut sw = [0u8; kucode::kvfs::STAT_WIRE_BYTES];
            rig.machine.mem.read_virt(asid, stat_at, &mut sw).unwrap();
            classic_sizes.push(Stat::from_wire(&sw).size);
        }
    }
    rig.sys.sys_close(p.pid, dfd);
    let classic = rig.machine.clock.snapshot().delta(&t0).elapsed();
    let classic_crossings = rig.machine.stats.snapshot().delta(&s0).crossings;

    // 2. Cosy: compound #1 lists the directory; compound #2 stats every
    // name discovered (two crossings total).
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 2, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 16, 1).unwrap();
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();

    let dfd = rig.sys.sys_open(p.pid, "/dir", OpenFlags::RDONLY);
    let mut b = CompoundBuilder::new(&cb, &db);
    let dirbuf = b.alloc_buf((N * DIRENT_WIRE_BYTES) as u32).unwrap();
    b.syscall(
        CosyCall::Readdir,
        vec![CompoundBuilder::lit(dfd), dirbuf, CompoundBuilder::lit(N as i64)],
    );
    b.syscall(CosyCall::Close, vec![CompoundBuilder::lit(dfd)]);
    b.finish().unwrap();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert_eq!(results[0] as usize, N);

    // Read the names from shared memory (no crossing) and stat them all in
    // one more compound.
    let CosyArg::BufRef { offset, .. } = dirbuf else { panic!() };
    let mut raw = vec![0u8; N * DIRENT_WIRE_BYTES];
    db.user_read(offset as usize, &mut raw).unwrap();
    let entries = wire::parse_dirents(&raw, N);

    let cb2 = SharedRegion::new(rig.machine.clone(), p.pid, 2, 2).unwrap();
    let db2 = SharedRegion::new(rig.machine.clone(), p.pid, 16, 3).unwrap();
    let mut b = CompoundBuilder::new(&cb2, &db2);
    let mut outs = Vec::new();
    for e in &entries {
        let path = b.stage_path(&format!("/dir/{}", e.name)).unwrap();
        let out = b.alloc_buf(96).unwrap();
        b.syscall(CosyCall::Stat, vec![path, out]);
        outs.push(out);
    }
    b.finish().unwrap();
    let results = rig.cosy.submit(p.pid, &cb2, &db2, &CosyOptions::default()).unwrap();
    assert!(results.iter().all(|&r| r == 0));
    let mut cosy_sizes = Vec::new();
    for out in &outs {
        let CosyArg::BufRef { offset, .. } = out else { panic!() };
        let mut sw = [0u8; kucode::kvfs::STAT_WIRE_BYTES];
        db2.user_read(*offset as usize, &mut sw).unwrap();
        cosy_sizes.push(Stat::from_wire(&sw).size);
    }
    let cosy = rig.machine.clock.snapshot().delta(&t0).elapsed();
    let cosy_crossings = rig.machine.stats.snapshot().delta(&s0).crossings;

    // 3. The bespoke consolidated call.
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let n = rig.sys.sys_readdirplus(p.pid, "/dir", p.buf, 1000);
    assert_eq!(n as usize, N);
    let raw = p.fetch(&rig, N * wire::RDP_ENTRY_WIRE_BYTES);
    let rdp_sizes: Vec<u64> =
        wire::parse_rdp_entries(&raw, N).into_iter().map(|(_, st)| st.size).collect();
    let rdp = rig.machine.clock.snapshot().delta(&t0).elapsed();
    let rdp_crossings = rig.machine.stats.snapshot().delta(&s0).crossings;

    // Identical answers.
    assert_eq!(classic_sizes, cosy_sizes);
    assert_eq!(classic_sizes, rdp_sizes);
    // Crossing counts: N+2 classic, 3 cosy (open + 2 compounds), 1 rdp.
    assert!(classic_crossings >= N as u64 + 2);
    assert_eq!(cosy_crossings, 3);
    assert_eq!(rdp_crossings, 1);
    // Cost ordering: the general mechanism recovers most of the bespoke
    // call's win.
    assert!(cosy < classic, "cosy {cosy} vs classic {classic}");
    assert!(rdp <= cosy, "rdp {rdp} vs cosy {cosy}");
    let cosy_recovers = (classic - cosy) as f64 / (classic - rdp) as f64;
    assert!(
        cosy_recovers > 0.5,
        "Cosy should recover most of readdirplus's win: {cosy_recovers:.2}"
    );
}

#[test]
fn cosy_win_scales_with_the_crossing_cost() {
    // Sensitivity analysis: the speedup must come from eliminated
    // crossings. Sweep the crossing price and verify the improvement moves
    // with it — with free crossings Cosy has nothing to win.
    use kucode::kworkloads::{scan_cosy, scan_user, setup_db, DbConfig};

    let run_with = |entry: u64, exit: u64, dispatch: u64| {
        let cost = CostModel {
            kernel_entry: entry,
            kernel_exit: exit,
            syscall_dispatch: dispatch,
            ..CostModel::default()
        };
        let rig = Rig::memfs_with_cost(cost);
        let p = rig.user(1 << 20);
        let cfg = DbConfig { records: 500, record_size: 128, batch: 32, ..Default::default() };
        setup_db(&rig, &p, "/db", &cfg);
        let u = scan_user(&rig, &p, "/db", &cfg);
        let c = scan_cosy(&rig, &p, "/db", &cfg);
        assert_eq!(u.checksum, c.checksum);
        improvement_pct(u.elapsed_cycles, c.elapsed_cycles)
    };

    let free = run_with(0, 0, 0);
    let normal = run_with(700, 600, 250);
    let pricey = run_with(2_800, 2_400, 1_000);

    assert!(normal > free, "crossing cost drives the win: {free:.1} vs {normal:.1}");
    assert!(pricey > normal, "4× crossings → bigger win: {normal:.1} vs {pricey:.1}");
    assert!(
        free.abs() < 15.0,
        "with free crossings the paths nearly tie: {free:.1}%"
    );
}

/// A process submitting a stream of distinct compounds (20x the 256-entry
/// per-process budget) keeps its share of the translation cache at the
/// budget, and evicts nothing another process has cached.
#[test]
fn compound_flood_is_bounded_per_process() {
    const BUDGET: usize = 256;
    let (rig, p, cb, db) = rig_with_region();
    let q = rig.user(1 << 16);
    let qcb = SharedRegion::new(rig.machine.clone(), q.pid, 1, 0).unwrap();
    let qdb = SharedRegion::new(rig.machine.clone(), q.pid, 1, 1).unwrap();
    let opts = CosyOptions::default();
    let mut b = CompoundBuilder::new(&qcb, &qdb);
    b.syscall(CosyCall::Getpid, vec![]);
    b.finish().unwrap();
    rig.cosy.submit(q.pid, &qcb, &qdb, &opts).unwrap();

    for i in 0..20 * BUDGET as i64 {
        let mut b = CompoundBuilder::new(&cb, &db);
        b.syscall(
            CosyCall::Lseek,
            vec![CompoundBuilder::lit(i), CompoundBuilder::lit(0), CompoundBuilder::lit(0)],
        );
        b.finish().unwrap();
        rig.cosy.submit(p.pid, &cb, &db, &opts).unwrap();
    }
    let stats = rig.cosy.cache_stats();
    assert_eq!(stats.misses, 1 + 20 * BUDGET as u64);
    assert_eq!(stats.entries, BUDGET + 1, "the flooder's budget plus the bystander");
    assert_eq!(stats.evictions, 19 * BUDGET as u64);

    rig.cosy.submit(q.pid, &qcb, &qdb, &opts).unwrap();
    assert_eq!(rig.cosy.cache_stats().hits, 1, "the bystander's compound survived");
}
