//! Kefence (§3.2): a kernel module with an off-by-one heap overflow, run
//! once on vanilla kmalloc (silent corruption) and once under Kefence
//! (guardian PTE fault with a precise diagnosis), then in log-and-continue
//! mode (the debugging configuration).
//!
//! ```sh
//! cargo run --release --example kefence_demo
//! ```

use kucode::prelude::*;

fn exercise_fs(rig: &Rig, p: &UserProc, files: usize) -> Result<(), String> {
    for i in 0..files {
        let path = format!("/f{i}");
        let fd = rig.sys.sys_open(p.pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT);
        if fd < 0 {
            return Err(format!("open {path} failed: {fd}"));
        }
        let n = rig.sys.sys_write(p.pid, fd as i32, p.buf, 200);
        rig.sys.sys_close(p.pid, fd as i32);
        if n < 0 {
            return Err(format!("write to {path} failed: {n} (EFAULT = guard hit)"));
        }
    }
    Ok(())
}

fn main() {
    println!("== 1. vanilla Wrapfs (kmalloc), off-by-one private-data bug ==");
    {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
        match exercise_fs(&rig, &p, 20) {
            Ok(()) => println!(
                "   20 files written, zero errors — the overflow landed in slab \
                 slack and nobody noticed (this is the paper's motivation)"
            ),
            Err(e) => println!("   unexpected: {e}"),
        }
    }

    println!("\n== 2. Kefence-instrumented Wrapfs, same bug, Crash mode ==");
    {
        let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
        let p = rig.user(1 << 16);
        rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
        match exercise_fs(&rig, &p, 20) {
            Ok(()) => println!("   unexpected: bug not caught"),
            Err(e) => println!("   CAUGHT: {e}"),
        }
        for v in kef.violations().iter().take(3) {
            println!(
                "   kefence: {:?} at {:#x} — allocation base {:#x}, size {} B",
                v.kind, v.addr, v.alloc_base, v.size
            );
        }
        assert!(!kef.violations().is_empty());
    }

    println!("\n== 3. Same bug, LogRw mode (debugging configuration) ==");
    {
        let (rig, kef) = Rig::wrapfs_kefence(OnViolation::LogRw, Protect::Overflow);
        let p = rig.user(1 << 16);
        rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
        match exercise_fs(&rig, &p, 20) {
            Ok(()) => println!(
                "   workload completed (auto-mapped pages absorbed the writes), \
                 {} violations in the log for offline diagnosis",
                kef.violations().len()
            ),
            Err(e) => println!("   unexpected: {e}"),
        }
    }

    println!("\n== 4. clean module under Kefence: overhead accounting ==");
    {
        // kmalloc baseline.
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        let t0 = rig.machine.clock.snapshot();
        exercise_fs(&rig, &p, 300).unwrap();
        let kmalloc_cycles = rig.machine.clock.snapshot().delta(&t0).elapsed();

        // Kefence run, clean module.
        let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
        let p = rig.user(1 << 16);
        let t0 = rig.machine.clock.snapshot();
        exercise_fs(&rig, &p, 300).unwrap();
        let kefence_cycles = rig.machine.clock.snapshot().delta(&t0).elapsed();

        println!(
            "   kmalloc {kmalloc_cycles} cycles, kefence {kefence_cycles} cycles \
             → {:.1}% overhead (paper: 1.4% on the full compile workload)",
            overhead_pct(kmalloc_cycles, kefence_cycles)
        );
        println!(
            "   kefence stats: {} allocs, avg {:.0} B, peak {} outstanding pages, {} violations",
            kef.stats().allocs,
            kef.stats().avg_alloc_size(),
            kef.stats().max_outstanding_pages,
            kef.violations().len()
        );
        assert!(kef.violations().is_empty());
    }
}
