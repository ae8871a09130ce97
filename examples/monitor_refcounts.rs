//! The event-monitoring framework of §3.3 / Figure 1, end to end:
//! instrumented kernel objects → `log_event` → dispatcher → in-kernel
//! monitors (synchronous callbacks) and a lock-free ring → character
//! device → user-space `libkernevents` reader.
//!
//! The demo instruments the dcache_lock under file-system load, runs a
//! refcount monitor that catches an injected imbalance, and drains the
//! user-space log.
//!
//! ```sh
//! cargo run --release --example monitor_refcounts
//! ```

use std::sync::Arc;

use kucode::kevents::InstrumentedRefcount;
use kucode::prelude::*;

fn main() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);

    // Figure 1 wiring.
    let dispatcher = Arc::new(EventDispatcher::new(rig.machine.clone()));
    let lock_mon = Arc::new(BalanceMonitor::spinlock());
    let ref_mon = Arc::new(BalanceMonitor::refcount());
    dispatcher.register(lock_mon.clone());
    dispatcher.register(ref_mon.clone());
    let ring = Arc::new(EventRing::with_capacity(1 << 14));
    dispatcher.attach_ring(ring.clone());

    // Instrument the dentry-cache lock, exactly like the paper.
    rig.vfs.dcache().set_dispatcher(Some(dispatcher.clone()));

    // Some file-system load: every path walk hits dcache_lock.
    for i in 0..50 {
        let path = format!("/file{i}");
        let fd = rig.sys.sys_open(p.pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, 64);
        rig.sys.sys_close(p.pid, fd as i32);
        rig.sys.sys_stat(p.pid, &path, p.buf + 4096);
    }

    println!("dcache_lock acquires observed: {}", lock_mon.stats().opens);
    println!("lock balance violations: {}", lock_mon.violations().len());
    println!("locks still held: {:?}", lock_mon.outstanding());
    assert!(lock_mon.violations().is_empty());

    // An instrumented inode refcount with an injected imbalance: one dec
    // too many — the bug class the monitor exists for.
    let rc = InstrumentedRefcount::new(0, 0x140DE, "fs/inode.c", 211);
    rc.set_dispatcher(Some(dispatcher.clone()));
    rc.inc();
    rc.inc();
    rc.dec();
    rc.dec();
    rc.dec(); // BUG: drops below zero
    let violations = ref_mon.violations();
    println!("\nrefcount monitor caught {} violation(s):", violations.len());
    for v in &violations {
        println!("  obj {:#x} at {}:{} — {}", v.obj, v.file, v.line, v.what);
    }
    assert_eq!(violations.len(), 1);

    // User-space side: bulk-drain the log through the chardev.
    let dev = Arc::new(CharDev::new(rig.machine.clone(), ring));
    let mut lib = LibKernEvents::new(dev.clone(), p.pid, 128, ReadMode::Polling);
    let mut acquires = 0u64;
    let mut ref_events = 0u64;
    let drained = lib
        .drain(|rec| match rec.event {
            EventType::LockAcquire => acquires += 1,
            EventType::RefInc | EventType::RefDec => ref_events += 1,
            _ => {}
        })
        .expect("drain");
    let st = dev.stats();
    println!(
        "\nuser-space logger drained {drained} events in {} bulk reads \
         ({} returned empty): {acquires} lock acquires, {ref_events} refcount events",
        st.reads, st.empty_reads
    );
    assert_eq!(ref_events, 5);
}
