//! Integration: consolidated system calls (§2.2) across the full stack —
//! semantic equivalence with the classic sequences at multiple scales, and
//! the trace→graph→estimate pipeline on live syscall recordings.

use kucode::ksyscall::wire;
use kucode::kvfs::DIRENT_WIRE_BYTES;
use kucode::prelude::*;

fn build_dir(rig: &Rig, p: &UserProc, n: usize) {
    rig.sys.sys_mkdir(p.pid, "/d");
    for i in 0..n {
        let fd = rig
            .sys
            .sys_open(p.pid, &format!("/d/f{i:04}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, i + 1);
        rig.sys.sys_close(p.pid, fd as i32);
    }
}

#[test]
fn readdirplus_equals_readdir_stat_at_multiple_scales() {
    for n in [1usize, 10, 100, 500] {
        let rig = Rig::memfs();
        let p = rig.user(1 << 20);
        build_dir(&rig, &p, n);

        // Classic.
        let dfd = rig.sys.sys_open(p.pid, "/d", OpenFlags::RDONLY) as i32;
        let mut classic: Vec<(String, u64)> = Vec::new();
        loop {
            let got = rig.sys.sys_readdir(p.pid, dfd, p.buf, 128);
            if got <= 0 {
                break;
            }
            let raw = p.fetch(&rig, got as usize * DIRENT_WIRE_BYTES);
            for e in wire::parse_dirents(&raw, got as usize) {
                let stat_at = p.buf + 900_000;
                assert_eq!(rig.sys.sys_stat(p.pid, &format!("/d/{}", e.name), stat_at), 0);
                let asid = rig.machine.proc_asid(p.pid).unwrap();
                let mut sw = [0u8; kucode::kvfs::STAT_WIRE_BYTES];
                rig.machine.mem.read_virt(asid, stat_at, &mut sw).unwrap();
                classic.push((e.name, Stat::from_wire(&sw).size));
            }
        }
        rig.sys.sys_close(p.pid, dfd);

        // Consolidated.
        let got = rig.sys.sys_readdirplus(p.pid, "/d", p.buf, 10_000);
        assert_eq!(got as usize, n);
        let raw = p.fetch(&rig, got as usize * wire::RDP_ENTRY_WIRE_BYTES);
        let plus: Vec<(String, u64)> = wire::parse_rdp_entries(&raw, got as usize)
            .into_iter()
            .map(|(e, st)| (e.name, st.size))
            .collect();

        assert_eq!(classic, plus, "n={n}");
        // And each file's size is i+1 as written.
        for (i, (_, size)) in plus.iter().enumerate() {
            assert_eq!(*size, i as u64 + 1);
        }
    }
}

#[test]
fn readdirplus_wins_grow_with_directory_size() {
    let mut last_improvement = 0.0f64;
    for n in [10usize, 100, 1_000] {
        let rig = Rig::memfs();
        let p = rig.user(4 << 20);
        build_dir(&rig, &p, n);
        // Warm cache.
        let _ = rig.sys.sys_readdirplus(p.pid, "/d", p.buf, 10_000);

        let t0 = rig.machine.clock.snapshot();
        let dfd = rig.sys.sys_open(p.pid, "/d", OpenFlags::RDONLY) as i32;
        loop {
            let got = rig.sys.sys_readdir(p.pid, dfd, p.buf, 128);
            if got <= 0 {
                break;
            }
            let raw = p.fetch(&rig, got as usize * DIRENT_WIRE_BYTES);
            for e in wire::parse_dirents(&raw, got as usize) {
                rig.sys.sys_stat(p.pid, &format!("/d/{}", e.name), p.buf + 900_000);
            }
        }
        rig.sys.sys_close(p.pid, dfd);
        let classic = rig.machine.clock.snapshot().delta(&t0).elapsed();

        let t0 = rig.machine.clock.snapshot();
        rig.sys.sys_readdirplus(p.pid, "/d", p.buf, 10_000);
        let plus = rig.machine.clock.snapshot().delta(&t0).elapsed();

        let imp = improvement_pct(classic, plus);
        assert!(imp > 30.0, "n={n}: {imp:.1}%");
        assert!(imp >= last_improvement - 5.0, "wins should not shrink with n");
        last_improvement = imp;
    }
}

#[test]
fn open_read_close_and_open_write_close_compose() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, b"consolidated!");

    // OWC creates, ORC reads back, at one crossing each.
    let s0 = rig.machine.stats.snapshot();
    assert_eq!(rig.sys.sys_open_write_close(p.pid, "/owc", p.buf, 13, false), 13);
    assert_eq!(rig.sys.sys_open_read_close(p.pid, "/owc", p.buf + 4096, 13, 0), 13);
    let d = rig.machine.stats.snapshot().delta(&s0);
    assert_eq!(d.crossings, 2);
    let asid = rig.machine.proc_asid(p.pid).unwrap();
    let mut out = [0u8; 13];
    rig.machine.mem.read_virt(asid, p.buf + 4096, &mut out).unwrap();
    assert_eq!(&out, b"consolidated!");

    // Append mode accumulates.
    assert_eq!(rig.sys.sys_open_write_close(p.pid, "/owc", p.buf, 13, true), 13);
    assert_eq!(rig.sys.k_stat("/owc").unwrap().size, 26);
    // ORC with offset reads the second half.
    assert_eq!(rig.sys.sys_open_read_close(p.pid, "/owc", p.buf + 8192, 100, 13), 13);

    // Errors propagate: missing file.
    assert_eq!(rig.sys.sys_open_read_close(p.pid, "/nope", p.buf, 10, 0), -2);
    assert_eq!(rig.sys.open_fds(p.pid), 0, "consolidated calls leak no fds");
}

#[test]
fn live_trace_feeds_the_consolidation_analysis() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 20);
    build_dir(&rig, &p, 50);
    rig.sys.tracer().set_enabled(true);

    // An "interactive" session: three ls -l passes over the directory.
    for _ in 0..3 {
        let dfd = rig.sys.sys_open(p.pid, "/d", OpenFlags::RDONLY) as i32;
        loop {
            let got = rig.sys.sys_readdir(p.pid, dfd, p.buf, 512);
            if got <= 0 {
                break;
            }
            let raw = p.fetch(&rig, got as usize * DIRENT_WIRE_BYTES);
            for e in wire::parse_dirents(&raw, got as usize) {
                rig.sys.sys_stat(p.pid, &format!("/d/{}", e.name), p.buf + 900_000);
            }
        }
        rig.sys.sys_close(p.pid, dfd);
    }
    rig.sys.tracer().set_enabled(false);

    let events = rig.sys.tracer().events();
    let graph = SyscallGraph::from_trace(&events);
    assert!(graph.weight(Sysno::Readdir, Sysno::Stat) >= 3);
    assert!(graph.weight(Sysno::Stat, Sysno::Stat) > 100);

    let pats = mine_patterns(&events, 2, 3);
    assert!(pats.iter().any(|p| p.seq == vec![Sysno::Stat, Sysno::Stat]));

    let est = estimate_consolidation(&events, &rig.machine.cost);
    assert_eq!(est.crossings_saved, 150, "3 passes × 50 stats");
    assert!(est.bytes_after < est.bytes_before);
    assert!(est.calls_after < est.calls_before);
}

#[test]
fn fd_semantics_survive_mixed_classic_and_consolidated_use() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, b"0123456789");

    // open_fstat returns a usable fd.
    rig.sys.sys_open_write_close(p.pid, "/mix", p.buf, 10, false);
    let fd = rig.sys.sys_open_fstat(p.pid, "/mix", p.buf + 2048, OpenFlags::RDWR);
    assert!(fd >= 0);
    // Interleave: lseek via classic call on the consolidated-opened fd.
    assert_eq!(rig.sys.sys_lseek(p.pid, fd as i32, 4, 0), 4);
    assert_eq!(rig.sys.sys_read(p.pid, fd as i32, p.buf + 4096, 3), 3);
    let asid = rig.machine.proc_asid(p.pid).unwrap();
    let mut out = [0u8; 3];
    rig.machine.mem.read_virt(asid, p.buf + 4096, &mut out).unwrap();
    assert_eq!(&out, b"456");
    assert_eq!(rig.sys.sys_close(p.pid, fd as i32), 0);
}
