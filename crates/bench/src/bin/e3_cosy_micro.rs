//! E3 (§2.3): Cosy micro-benchmarks — individual system calls issued in
//! tight CPU-bound loops, classic vs compound-batched.
//!
//! Paper: "individual system calls are sped up by 40-90% for common
//! CPU-bound user applications."

use bench::{banner, Report};
use kucode::prelude::*;

const BATCH: usize = 64;
const CALLS: usize = 4_096;

struct Case {
    name: &'static str,
    classic: fn(&Rig, &UserProc) -> u64,
    compound: fn(&Rig, &UserProc) -> u64,
}

fn cpu_time(rig: &Rig, f: impl FnOnce()) -> u64 {
    let t0 = rig.machine.clock.snapshot();
    f();
    let iv = rig.machine.clock.snapshot().delta(&t0);
    iv.user + iv.sys
}

fn getpid_classic(rig: &Rig, p: &UserProc) -> u64 {
    cpu_time(rig, || {
        for _ in 0..CALLS {
            assert!(rig.sys.sys_getpid(p.pid) >= 0);
        }
    })
}

fn getpid_compound(rig: &Rig, p: &UserProc) -> u64 {
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 2, 4).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 5).unwrap();
    let t = cpu_time(rig, || {
        for _ in 0..CALLS / BATCH {
            let mut b = CompoundBuilder::new(&cb, &db);
            for _ in 0..BATCH {
                b.syscall(CosyCall::Getpid, vec![]);
            }
            b.finish().unwrap();
            let r = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
            assert_eq!(r.len(), BATCH);
        }
    });
    let _ = (cb.release(), db.release());
    t
}

fn read_classic(rig: &Rig, p: &UserProc) -> u64 {
    let fd = rig.sys.sys_open(p.pid, "/micro.dat", OpenFlags::RDONLY) as i32;
    let t = cpu_time(rig, || {
        for _ in 0..CALLS {
            rig.sys.sys_lseek(p.pid, fd, 0, 0);
            assert_eq!(rig.sys.sys_read(p.pid, fd, p.buf, 64), 64);
        }
    });
    rig.sys.sys_close(p.pid, fd);
    t
}

fn read_compound(rig: &Rig, p: &UserProc) -> u64 {
    let fd = rig.sys.sys_open(p.pid, "/micro.dat", OpenFlags::RDONLY);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 2, 4).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 5).unwrap();
    let t = cpu_time(rig, || {
        for _ in 0..CALLS / BATCH {
            let mut b = CompoundBuilder::new(&cb, &db);
            for _ in 0..BATCH {
                b.syscall(
                    CosyCall::Lseek,
                    vec![
                        CompoundBuilder::lit(fd),
                        CompoundBuilder::lit(0),
                        CompoundBuilder::lit(0),
                    ],
                );
                b.syscall(
                    CosyCall::Read,
                    vec![
                        CompoundBuilder::lit(fd),
                        CosyArg::BufRef { offset: 0, len: 64 },
                        CompoundBuilder::lit(64),
                    ],
                );
            }
            b.finish().unwrap();
            rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
        }
    });
    rig.sys.sys_close(p.pid, fd as i32);
    let _ = (cb.release(), db.release());
    t
}

fn write_classic(rig: &Rig, p: &UserProc) -> u64 {
    let fd = rig.sys.sys_open(p.pid, "/out.dat", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    // Touch once so block 0 exists (writes after that are page-cache hits).
    rig.sys.sys_write(p.pid, fd, p.buf, 64);
    let t = cpu_time(rig, || {
        for _ in 0..CALLS {
            rig.sys.sys_lseek(p.pid, fd, 0, 0);
            assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 64), 64);
        }
    });
    rig.sys.sys_close(p.pid, fd);
    t
}

fn write_compound(rig: &Rig, p: &UserProc) -> u64 {
    let fd = rig.sys.sys_open(p.pid, "/out.dat", OpenFlags::RDWR) as i32;
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 2, 4).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 5).unwrap();
    db.user_write(0, &[7u8; 64]).unwrap();
    let t = cpu_time(rig, || {
        for _ in 0..CALLS / BATCH {
            let mut b = CompoundBuilder::new(&cb, &db);
            for _ in 0..BATCH {
                b.syscall(
                    CosyCall::Lseek,
                    vec![
                        CompoundBuilder::lit(fd as i64),
                        CompoundBuilder::lit(0),
                        CompoundBuilder::lit(0),
                    ],
                );
                b.syscall(
                    CosyCall::Write,
                    vec![
                        CompoundBuilder::lit(fd as i64),
                        CosyArg::BufRef { offset: 0, len: 64 },
                        CompoundBuilder::lit(64),
                    ],
                );
            }
            b.finish().unwrap();
            rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
        }
    });
    rig.sys.sys_close(p.pid, fd);
    let _ = (cb.release(), db.release());
    t
}

fn stat_classic(rig: &Rig, p: &UserProc) -> u64 {
    cpu_time(rig, || {
        for _ in 0..CALLS {
            assert_eq!(rig.sys.sys_stat(p.pid, "/micro.dat", p.buf + 8192), 0);
        }
    })
}

fn stat_compound(rig: &Rig, p: &UserProc) -> u64 {
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 4, 4).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 8, 5).unwrap();
    let t = cpu_time(rig, || {
        for _ in 0..CALLS / BATCH {
            let mut b = CompoundBuilder::new(&cb, &db);
            let path = b.stage_path("/micro.dat").unwrap();
            for _ in 0..BATCH {
                let out = b.alloc_buf(96).unwrap();
                b.syscall(CosyCall::Stat, vec![path, out]);
            }
            b.finish().unwrap();
            rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
        }
    });
    let _ = (cb.release(), db.release());
    t
}

pub fn run(report: &mut Report) {
    banner("E3", "Cosy micro-benchmarks (paper: 40-90% per-syscall speedup)");
    let cases = [
        Case { name: "getpid", classic: getpid_classic, compound: getpid_compound },
        Case { name: "lseek+read(64B)", classic: read_classic, compound: read_compound },
        Case { name: "lseek+write(64B)", classic: write_classic, compound: write_compound },
        Case { name: "stat", classic: stat_classic, compound: stat_compound },
    ];

    println!(
        "{:<18} {:>14} {:>14} {:>9}",
        "syscall", "classic(cyc)", "cosy(cyc)", "speedup"
    );
    let mut worst = f64::MAX;
    let mut best = f64::MIN;
    for case in &cases {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        p.stage(&rig, &[1u8; 4096]);
        let fd = rig.sys.sys_open(p.pid, "/micro.dat", OpenFlags::WRONLY | OpenFlags::CREAT);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, 4096);
        rig.sys.sys_close(p.pid, fd as i32);

        let classic = (case.classic)(&rig, &p);
        let compound = (case.compound)(&rig, &p);
        let imp = improvement_pct(classic, compound);
        println!(
            "{:<18} {:>14} {:>14} {:>8.1}%",
            case.name, classic, compound, imp
        );
        worst = worst.min(imp);
        best = best.max(imp);
    }

    report.add(
        "E3",
        "per-syscall CPU speedup range",
        "40-90%",
        format!("{worst:.1}-{best:.1}%"),
        worst > 25.0 && best < 98.0,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
