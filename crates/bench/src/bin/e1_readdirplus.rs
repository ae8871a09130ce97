//! E1 (§2.2): `readdirplus` vs `readdir` + N×`stat`, directories of 10 to
//! 100,000 files.
//!
//! Paper: improvements were "fairly consistent" across sizes — elapsed
//! 60.6–63.8 %, system 55.7–59.3 %, user 82.8–84.0 %.

use bench::{banner, Report};
use kucode::ksyscall::wire;
use kucode::kvfs::DIRENT_WIRE_BYTES;
use kucode::prelude::*;

/// User-side cycle cost of building a path string and calling stat (the
/// libc/loop work readdirplus eliminates).
const USER_PATH_BUILD: u64 = 1_200;
/// User-side cost of consuming one entry (both variants pay this).
const USER_CONSUME: u64 = 200;

pub fn run(report: &mut Report) {
    banner("E1", "readdirplus vs readdir+stat (paper: 60.6-63.8% elapsed)");
    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>10} {:>10}",
        "files", "elapsed%", "system%", "user%", "calls", "calls+"
    );

    let mut elapsed_range = (f64::MAX, f64::MIN);
    let mut sys_range = (f64::MAX, f64::MIN);
    let mut user_range = (f64::MAX, f64::MIN);

    for &nfiles in &[10usize, 100, 1_000, 10_000, 100_000] {
        let rig = Rig::memfs();
        let p = rig.user(64 << 20);
        rig.sys.sys_mkdir(p.pid, "/dir");
        for i in 0..nfiles {
            let fd = rig.sys.sys_open(
                p.pid,
                &format!("/dir/f{i:06}"),
                OpenFlags::WRONLY | OpenFlags::CREAT,
            );
            rig.sys.sys_write(p.pid, fd as i32, p.buf, (i % 64) + 1);
            rig.sys.sys_close(p.pid, fd as i32);
        }

        let classic = |rig: &Rig| {
            let t0 = rig.machine.clock.snapshot();
            let s0 = rig.machine.stats.snapshot();
            let dfd = rig.sys.sys_open(p.pid, "/dir", OpenFlags::RDONLY) as i32;
            loop {
                let n = rig.sys.sys_readdir(p.pid, dfd, p.buf, 512);
                if n <= 0 {
                    break;
                }
                let raw = p.fetch(rig, n as usize * DIRENT_WIRE_BYTES);
                for e in wire::parse_dirents(&raw, n as usize) {
                    rig.machine.charge_user(USER_PATH_BUILD);
                    let path = format!("/dir/{}", e.name);
                    rig.sys.sys_stat(p.pid, &path, p.buf + (60 << 20));
                    rig.machine.charge_user(USER_CONSUME);
                }
            }
            rig.sys.sys_close(p.pid, dfd);
            (rig.machine.clock.snapshot().delta(&t0), rig.machine.stats.snapshot().delta(&s0))
        };
        let plus = |rig: &Rig| {
            let t0 = rig.machine.clock.snapshot();
            let s0 = rig.machine.stats.snapshot();
            let n = rig.sys.sys_readdirplus(p.pid, "/dir", p.buf, 200_000);
            assert_eq!(n as usize, nfiles);
            let raw = p.fetch(rig, n as usize * wire::RDP_ENTRY_WIRE_BYTES);
            for _ in wire::parse_rdp_entries(&raw, n as usize) {
                rig.machine.charge_user(USER_CONSUME);
            }
            (rig.machine.clock.snapshot().delta(&t0), rig.machine.stats.snapshot().delta(&s0))
        };

        // Warm cache (the paper reports warm repeated runs).
        classic(&rig);
        let (c_iv, c_st) = classic(&rig);
        let (p_iv, p_st) = plus(&rig);

        let e = improvement_pct(c_iv.elapsed(), p_iv.elapsed());
        let s = improvement_pct(c_iv.sys, p_iv.sys);
        let u = improvement_pct(c_iv.user, p_iv.user);
        println!(
            "{:>8} | {:>8.1}% {:>8.1}% {:>8.1}% | {:>10} {:>10}",
            nfiles, e, s, u, c_st.syscalls, p_st.syscalls
        );
        elapsed_range = (elapsed_range.0.min(e), elapsed_range.1.max(e));
        sys_range = (sys_range.0.min(s), sys_range.1.max(s));
        user_range = (user_range.0.min(u), user_range.1.max(u));
    }

    report.add(
        "E1",
        "elapsed improvement",
        "60.6-63.8%",
        format!("{:.1}-{:.1}%", elapsed_range.0, elapsed_range.1),
        elapsed_range.0 > 40.0,
    );
    report.add(
        "E1",
        "system-time improvement",
        "55.7-59.3%",
        format!("{:.1}-{:.1}%", sys_range.0, sys_range.1),
        sys_range.0 > 35.0,
    );
    report.add(
        "E1",
        "user-time improvement",
        "82.8-84.0%",
        format!("{:.1}-{:.1}%", user_range.0, user_range.1),
        user_range.0 > 60.0,
    );
    report.add(
        "E1",
        "consistency across sizes",
        "fairly consistent",
        format!("spread {:.1}pp", elapsed_range.1 - elapsed_range.0),
        elapsed_range.1 - elapsed_range.0 < 25.0,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
