//! `ls -l` two ways (§2.2): `readdir` + one `stat` per file, versus the
//! consolidated `readdirplus` system call — the paper's E1 experiment in
//! miniature, printed as a table.
//!
//! ```sh
//! cargo run --release --example readdirplus
//! ```

use kucode::prelude::*;
use kucode::ksyscall::wire;
use kucode::kvfs::DIRENT_WIRE_BYTES;

fn build_tree(rig: &Rig, p: &UserProc, nfiles: usize) {
    rig.sys.sys_mkdir(p.pid, "/dir");
    for i in 0..nfiles {
        let path = format!("/dir/file{i:05}");
        let fd = rig.sys.sys_open(p.pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, (i % 100) + 1);
        rig.sys.sys_close(p.pid, fd as i32);
    }
}

/// Classic ls -l: readdir pages + stat per name.
fn ls_classic(rig: &Rig, p: &UserProc, nfiles: usize) -> (u64, u64, u64) {
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let dfd = rig.sys.sys_open(p.pid, "/dir", OpenFlags::RDONLY) as i32;
    let mut total_size = 0u64;
    loop {
        let n = rig.sys.sys_readdir(p.pid, dfd, p.buf, 64);
        if n <= 0 {
            break;
        }
        let raw = p.fetch(rig, n as usize * DIRENT_WIRE_BYTES);
        for e in wire::parse_dirents(&raw, n as usize) {
            // User-side path construction (the cost readdirplus removes).
            rig.machine.charge_user(1_200);
            let path = format!("/dir/{}", e.name);
            let statbuf = p.buf + 65_536;
            assert_eq!(rig.sys.sys_stat(p.pid, &path, statbuf), 0);
            rig.machine.charge_user(200); // consume the stat
            total_size += 1;
        }
    }
    rig.sys.sys_close(p.pid, dfd);
    assert_eq!(total_size as usize, nfiles);
    let iv = rig.machine.clock.snapshot().delta(&t0);
    let d = rig.machine.stats.snapshot().delta(&s0);
    (iv.elapsed(), d.syscalls, d.bytes_crossed())
}

/// One readdirplus call.
fn ls_plus(rig: &Rig, p: &UserProc, nfiles: usize) -> (u64, u64, u64) {
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let mut seen = 0usize;
    let n = rig.sys.sys_readdirplus(p.pid, "/dir", p.buf, 100_000);
    assert!(n >= 0);
    let raw = p.fetch(rig, n as usize * wire::RDP_ENTRY_WIRE_BYTES);
    for (_e, _st) in wire::parse_rdp_entries(&raw, n as usize) {
        rig.machine.charge_user(200); // consume the entry
        seen += 1;
    }
    assert_eq!(seen, nfiles);
    let iv = rig.machine.clock.snapshot().delta(&t0);
    let d = rig.machine.stats.snapshot().delta(&s0);
    (iv.elapsed(), d.syscalls, d.bytes_crossed())
}

fn main() {
    println!("E1: readdir+stat vs readdirplus (paper: 60.6-63.8% elapsed improvement)\n");
    println!(
        "{:>8} {:>14} {:>14} {:>9} {:>12} {:>12} {:>8}",
        "files", "classic(cyc)", "rdplus(cyc)", "faster", "calls", "calls+", "bytes%"
    );
    for nfiles in [10usize, 100, 1_000, 10_000] {
        let rig = Rig::memfs();
        let p = rig.user(4 << 20);
        build_tree(&rig, &p, nfiles);
        // Warm the caches once, as the paper's repeated runs did.
        ls_classic(&rig, &p, nfiles);
        let (classic, calls_c, bytes_c) = ls_classic(&rig, &p, nfiles);
        let (plus, calls_p, bytes_p) = ls_plus(&rig, &p, nfiles);
        println!(
            "{:>8} {:>14} {:>14} {:>8.1}% {:>12} {:>12} {:>7.1}%",
            nfiles,
            classic,
            plus,
            improvement_pct(classic, plus),
            calls_c,
            calls_p,
            100.0 * bytes_p as f64 / bytes_c as f64
        );
    }
    println!("\n(\"calls\" = syscalls per listing; bytes% = boundary bytes vs classic)");
}
