//! A8: the fault-injection sweep — robustness as a measured result.
//!
//! Four claims are checked:
//!
//! 1. **Coverage** — every registered injection site, under every policy
//!    kind (fail-nth, every-nth, seeded probability), actually fires
//!    against a targeted workload, and no injected failure ever escapes as
//!    a host panic: each one surfaces as an errno / `Err` at the boundary.
//! 2. **Atomicity** — a compound aborted mid-flight by an injected fault
//!    leaves the file-system image bit-identical to the pre-submit
//!    snapshot.
//! 3. **Degradation** — with the op-by-op fallback enabled, a faulted run
//!    converges to exactly the results and final state of a no-fault twin.
//! 4. **Determinism** — the same seed reproduces the same fault trace and
//!    the same final state, and the whole sweep reduces to one trace
//!    hash, pinned below: any change to which faults fire, or where,
//!    shows up as a DIFF row.

use std::sync::Arc;

use bench::{banner, Report};
use kucode::kfault::{sites, Policy};
use kucode::ksim::{fnv1a, fnv1a_continue};
use kucode::kvfs::{BlockAddr, VfsSnapshot};
use kucode::prelude::*;

fn regions(rig: &Rig, p: &UserProc, slot: u64) -> (SharedRegion, SharedRegion) {
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, slot).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 4, slot + 1).unwrap();
    (cb, db)
}

fn snap(rig: &Rig) -> VfsSnapshot {
    let was = rig.machine.faults.suspend();
    let s = VfsSnapshot::capture(rig.vfs.fs().as_ref()).unwrap();
    rig.machine.faults.resume(was);
    s
}

/// Consult `site` up to `attempts` times under whatever policy is armed,
/// swallowing every injected failure. Each arm exercises the real call
/// path; none may panic.
fn drive_site(rig: &Rig, site: &'static str, attempts: u64) {
    match site {
        s if s == sites::KSIM_FRAME_ALLOC => {
            // The scratch-buffer map consults this very site: set up the
            // process with injection suspended, then drive the site proper.
            let was = rig.machine.faults.suspend();
            let p = rig.user(4096);
            rig.machine.faults.resume(was);
            for i in 0..attempts {
                let _ = rig.machine.map_user(p.pid, 0x70_0000 + i * 4096, 4096);
            }
        }
        s if s == sites::KSIM_TLB_FILL => {
            let p = rig.user(4096);
            let asid = rig.machine.proc_asid(p.pid).unwrap();
            let mut buf = [0u8; 8];
            for i in 0..attempts {
                // A freshly mapped, never-touched page per attempt keeps the
                // TLB cold so every access goes through the fill path.
                let va = 0x70_0000 + i * 4096;
                if rig.machine.map_user(p.pid, va, 4096).is_ok() {
                    let _ = rig.machine.mem.read_virt(asid, va, &mut buf);
                }
            }
        }
        s if s == sites::KSIM_PREEMPT_TICK => {
            // A kill leaves the process dead, so every attempt gets a fresh
            // one; each 4-op compound passes four preemption points.
            for i in 0..attempts {
                let p = rig.user(4096);
                let (cb, db) = regions(rig, &p, 2 * i + 10);
                let mut b = CompoundBuilder::new(&cb, &db);
                for _ in 0..4 {
                    b.syscall(CosyCall::Getpid, vec![]);
                }
                b.finish().unwrap();
                let _ = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default());
            }
        }
        s if s == sites::KALLOC_VMALLOC => {
            let vm = Vmalloc::new(rig.machine.clone(), VfreeIndex::HashTable);
            for _ in 0..attempts {
                let _ = vm.vmalloc(4096);
            }
        }
        s if s == sites::KALLOC_SLAB => {
            let slab = SlabAllocator::new(rig.machine.clone());
            for _ in 0..attempts {
                let _ = slab.kmalloc(64);
            }
        }
        s if s == sites::KVFS_BLOCKDEV_READ => {
            for i in 0..attempts {
                // Fresh object per attempt: never cached, always a miss.
                let _ = rig.dev.read_block(
                    BlockAddr {
                        obj: 5_000 + i,
                        index: 0,
                    },
                    4096,
                );
            }
        }
        s if s == sites::KVFS_BLOCKDEV_WRITE => {
            for i in 0..attempts {
                let _ = rig.dev.write_block(
                    BlockAddr {
                        obj: 6_000 + i,
                        index: 0,
                    },
                    4096,
                );
            }
        }
        s if s == sites::KVFS_NOSPC => {
            let p = rig.user(4096);
            for i in 0..attempts {
                let _ = rig.sys.sys_open(
                    p.pid,
                    &format!("/sweep{i}"),
                    OpenFlags::WRONLY | OpenFlags::CREAT,
                );
            }
        }
        s if s == sites::KEVENTS_RING_FULL => {
            let disp = EventDispatcher::new(rig.machine.clone());
            let ring = Arc::new(EventRing::with_capacity(64));
            disp.attach_ring(ring);
            for i in 0..attempts {
                disp.log_event(EventRecord::new(i, EventType::Custom(1), "a8", 1, 0));
            }
        }
        s if s == sites::NET_ACCEPT_OVERFLOW => {
            // Every connect consults the site; each attempt tears its
            // socket down so the backlog never genuinely fills.
            let p = rig.user(4096);
            let net = rig.sys.net();
            let l = net.socket(p.pid).unwrap();
            net.bind_listen(p.pid, l, 80, attempts as usize + 1)
                .unwrap();
            for _ in 0..attempts {
                let c = net.socket(p.pid).unwrap();
                let _ = net.connect(p.pid, c, 80);
                let _ = net.shutdown(p.pid, c);
            }
        }
        s if s == sites::URING_CQ_OVERFLOW => {
            // Every CQ post consults the site. Drain after each enter so
            // the CQ never genuinely fills — only the injector diverts.
            let p = rig.user(4096);
            assert_eq!(rig.sys.sys_ring_setup(p.pid, 4, 4), 0);
            let ring = rig.sys.uring(p.pid).unwrap();
            for i in 0..attempts {
                ring.push_sqe(kucode::kuring::Sqe::nop(i)).unwrap();
                let _ = rig.sys.sys_ring_enter(p.pid, 1, 0);
                let _ = rig.sys.sys_ring_enter(p.pid, 0, 0); // flush overflow
                while ring.reap_cqe().is_some() {}
            }
        }
        s if s == sites::NET_SEND_AGAIN || s == sites::NET_PEER_RESET => {
            // Both sites are consulted on send. A fresh connection per
            // attempt keeps the consult count stable: a reset socket
            // would short-circuit before reaching the sites.
            let p = rig.user(4096);
            let net = rig.sys.net();
            let l = net.socket(p.pid).unwrap();
            net.bind_listen(p.pid, l, 80, 4).unwrap();
            for _ in 0..attempts {
                let c = net.socket(p.pid).unwrap();
                net.connect(p.pid, c, 80).unwrap();
                let s = net.accept(p.pid, l).unwrap();
                let _ = net.send(p.pid, c, &[0x5A; 32]);
                let _ = net.shutdown(p.pid, c);
                let _ = net.shutdown(p.pid, s);
            }
        }
        other => panic!("no sweep workload for unknown site {other}"),
    }
}

/// The whole sweep's trace hash. It moves only when the fault plane, the
/// sweep workloads or a faulted code path changes what fires; re-pin it
/// in the change that does so, and say why.
const PINNED_TRACE_HASH: u64 = 0xe0da_d2dd_f695_2ad3;

/// The whole-sweep `TRACE_HASH` (FNV-1a) continued over `word`.
fn mix(agg: u64, word: u64) -> u64 {
    fnv1a_continue(agg, &word.to_le_bytes())
}

fn sweep(report: &mut Report, agg: &mut u64) {
    // Enough attempts that the seeded p=0.20 policy fires on every site
    // (below 32, one seed's draw stream stays dry).
    let attempts: u64 = 48;
    let policies: &[(&str, Policy)] = &[
        ("fail-nth(1)", Policy::FailNth(1)),
        ("every-nth(2)", Policy::EveryNth(2)),
        ("p=0.20", Policy::Probability(200)),
    ];

    let mut combos = 0u64;
    let mut fired_combos = 0u64;
    let mut total_fired = 0u64;
    println!(
        "{:<24} {:>14} {:>8} {:>8}",
        "site", "policy", "hits", "fired"
    );
    for (pi, (pname, policy)) in policies.iter().enumerate() {
        for (si, &site) in sites::ALL.iter().enumerate() {
            // Scheduler sites are exercised by A12 and integration_smp, the
            // kjfs power-cut sites (and the torn-write device site that
            // backs them) by A13 and the crash harness, and the kprog
            // load/run sites by A14 and integration_kprog, not by the
            // syscall driver here; skipping them keeps every (policy,
            // site) seed — and the A8 trace hash — byte-identical to PR 5.
            if site.starts_with("sched.")
                || site.starts_with("kjfs.")
                || site.starts_with("kprog.")
                || site == sites::KVFS_BLOCKDEV_TORN
            {
                continue;
            }
            let rig = Rig::memfs();
            let seed = 0xFA11_0000 + (pi as u64) * 64 + si as u64;
            rig.machine.faults.arm(seed);
            rig.machine.faults.add_policy(Some(site), *policy);
            drive_site(&rig, site, attempts);
            let st = rig.machine.faults.site_stats();
            let entry = st.iter().find(|e| e.site == site).unwrap();
            println!(
                "{:<24} {:>14} {:>8} {:>8}",
                site, pname, entry.hits, entry.fired
            );
            combos += 1;
            if entry.fired > 0 {
                fired_combos += 1;
            }
            total_fired += entry.fired;
            *agg = mix(*agg, rig.machine.faults.trace_hash());
            rig.machine.faults.disarm();
        }
    }

    report.add(
        "A8",
        "sweep: every site x policy fires",
        format!("{combos}/{combos} combos"),
        format!("{fired_combos}/{combos} combos, {total_fired} faults"),
        fired_combos == combos,
    );
    report.add(
        "A8",
        "sweep: no injected fault panics host",
        "0 panics",
        format!("0 panics / {total_fired} faults"),
        true, // reaching this line is the proof
    );
}

fn rollback(report: &mut Report, agg: &mut u64) {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let fd = rig
        .sys
        .sys_open(p.pid, "/victim", OpenFlags::RDWR | OpenFlags::CREAT);
    p.stage(&rig, b"victim content");
    rig.sys.sys_write(p.pid, fd as i32, p.buf, 14);
    rig.sys.sys_close(p.pid, fd as i32);
    let before = snap(&rig);

    let (cb, db) = regions(&rig, &p, 0);
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
    b.finish().unwrap();

    rig.machine.faults.arm(0x0DDB);
    // ENOSPC consults: create(1), then fail the write(2) — after the mkdir,
    // the create, and the unlink staging have all mutated the tree.
    rig.machine
        .faults
        .add_policy(Some(sites::KVFS_NOSPC), Policy::FailNth(2));
    let err = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default());
    *agg = mix(*agg, rig.machine.faults.trace_hash());
    rig.machine.faults.disarm();
    let after = snap(&rig);

    let equal = before.hash() == after.hash();
    report.add(
        "A8",
        "rollback: aborted compound restores image",
        "snapshot bit-exact",
        if equal {
            "bit-exact".to_string()
        } else {
            format!("DIVERGED {:?}", before.diff(&after))
        },
        err.is_err() && equal,
    );
}

fn fallback(report: &mut Report, agg: &mut u64) {
    let run = |with_faults: bool| {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let (cb, db) = regions(&rig, &p, 0);
        let mut b = CompoundBuilder::new(&cb, &db);
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
        if with_faults {
            rig.machine.faults.arm(9);
            rig.machine
                .faults
                .add_policy(Some(sites::KVFS_NOSPC), Policy::EveryNth(2));
        }
        let opts = CosyOptions {
            fallback: FallbackMode::Replay {
                max_retries: 3,
                backoff_cycles: 250,
            },
            ..Default::default()
        };
        let results = rig.cosy.submit(p.pid, &cb, &db, &opts);
        let fired = rig.machine.faults.fired_count();
        let trace = rig.machine.faults.trace_hash();
        rig.machine.faults.disarm();
        (results, fired, trace, snap(&rig).hash())
    };

    let (clean, _, _, clean_img) = run(false);
    let (faulted, fired, trace, faulted_img) = run(true);
    *agg = mix(*agg, trace);
    let ok = clean.is_ok() && clean == faulted && clean_img == faulted_img && fired >= 2;
    report.add(
        "A8",
        "fallback: faulted run equals no-fault run",
        "identical results+image",
        format!(
            "{fired} faults retried, identical: {}",
            clean == faulted && clean_img == faulted_img
        ),
        ok,
    );
}

fn determinism(report: &mut Report, agg: &mut u64) {
    let compounds = 24;
    let episode = |seed: u64| {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
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
        let mut outcomes = 0u64;
        for i in 0..compounds {
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
            b.finish().unwrap();
            if rig.cosy.submit(p.pid, &cb, &db, &opts).is_ok() {
                outcomes += 1;
            }
        }
        let trace = rig.machine.faults.trace_hash();
        rig.machine.faults.disarm();
        (trace, snap(&rig).hash(), outcomes)
    };

    let a = episode(0x5EED);
    let b = episode(0x5EED);
    let c = episode(0xBADD);
    *agg = mix(*agg, a.0);
    *agg = mix(*agg, c.0);
    report.add(
        "A8",
        "determinism: same seed, same episode",
        "trace+image+outcomes equal",
        format!("equal: {}, other seed diverges: {}", a == b, a.0 != c.0),
        a == b && a.0 != c.0,
    );
}

pub fn run(report: &mut Report) {
    banner(
        "A8",
        "Deterministic fault sweep: coverage, rollback, fallback",
    );
    let mut agg = fnv1a(&[]);
    sweep(report, &mut agg);
    rollback(report, &mut agg);
    fallback(report, &mut agg);
    determinism(report, &mut agg);
    report.add(
        "A8",
        "whole-sweep TRACE_HASH matches the pin",
        format!("{PINNED_TRACE_HASH:016x}"),
        format!("{agg:016x}"),
        agg == PINNED_TRACE_HASH,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
