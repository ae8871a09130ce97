//! Integration: Kefence under the real workloads (§3.2's evaluation
//! design) — clean runs are clean, injected bugs are caught, overhead
//! stays in the small single digits on the CPU-bound compile.

use kucode::prelude::*;

#[test]
fn compile_workload_runs_clean_under_kefence() {
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let cfg = CompileConfig {
        source_files: 20,
        header_count: 10,
        headers_per_file: 5,
        ..Default::default()
    };
    let r = run_compile(&rig, &p, &cfg);
    assert_eq!(r.files_compiled, 20);
    assert!(kef.violations().is_empty(), "{:?}", kef.violations());
    let st = kef.stats();
    assert!(st.allocs > 200);
    assert!(st.frees > 0);
    assert!(st.max_outstanding_pages > 0);
}

#[test]
fn kefence_overhead_on_compile_is_small_single_digits() {
    let cfg = CompileConfig {
        source_files: 30,
        header_count: 12,
        headers_per_file: 6,
        ..Default::default()
    };

    let base = {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        run_compile(&rig, &p, &cfg).elapsed.elapsed()
    };
    let guarded = {
        let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
        let p = rig.user(1 << 16);
        let e = run_compile(&rig, &p, &cfg).elapsed.elapsed();
        assert!(kef.violations().is_empty());
        e
    };
    let overhead = overhead_pct(base, guarded);
    assert!(
        (0.0..10.0).contains(&overhead),
        "paper measured 1.4%; simulated overhead {overhead:.2}% ({base} → {guarded})"
    );
}

#[test]
fn injected_overflow_is_caught_under_kefence_but_not_kmalloc() {
    // kmalloc: silent.
    let rig = Rig::wrapfs_kmalloc();
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    let fd = rig.sys.sys_open(p.pid, "/x", OpenFlags::WRONLY | OpenFlags::CREAT);
    assert!(fd >= 0, "slab rounding hides the off-by-one");
    rig.sys.sys_close(p.pid, fd as i32);

    // Kefence: guard fault surfaces as EFAULT at the syscall boundary.
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    let ret = rig.sys.sys_open(p.pid, "/x", OpenFlags::WRONLY | OpenFlags::CREAT);
    assert_eq!(ret, -14, "EFAULT from the guardian PTE");
    let v = kef.violations();
    assert!(!v.is_empty());
    assert_eq!(v[0].kind, kucode::kefence::ViolationKind::Overflow);
    assert_eq!(v[0].size, kucode::kvfs::wrapfs::PRIVATE_DATA_BYTES);
    assert_eq!(
        v[0].addr,
        v[0].alloc_base + v[0].size as u64,
        "flagged at exactly one byte past the end"
    );
}

#[test]
fn log_mode_lets_the_workload_finish_while_recording() {
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::LogRw, Protect::Overflow);
    let p = rig.user(1 << 16);
    rig.wrapfs.as_ref().unwrap().set_overflow_bug(true);
    for i in 0..10 {
        let fd = rig.sys.sys_open(p.pid, &format!("/f{i}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0, "LogRw mode absorbs the overflow");
        rig.sys.sys_close(p.pid, fd as i32);
    }
    assert_eq!(kef.violations().len(), 10, "one violation per private-data alloc");
}

#[test]
fn kefence_memory_cost_is_page_granular() {
    // The paper's trade-off: 80-byte allocations consume whole pages.
    let (rig, kef) = Rig::wrapfs_kefence(OnViolation::Crash, Protect::Overflow);
    let p = rig.user(1 << 16);
    let cfg = PostmarkConfig {
        file_count: 30,
        transactions: 60,
        subdirs: 3,
        min_size: 256,
        max_size: 1_024,
        ..Default::default()
    };
    run_postmark(&rig, &p, &cfg);
    // Average Wrapfs allocation is small (page buffers skew it up from the
    // 80-byte private data), yet every allocation burned ≥1 page.
    let st = kef.stats();
    let avg = st.avg_alloc_size();
    assert!(avg < 4096.0, "avg alloc {avg:.0} B");
    assert!(st.max_outstanding_pages >= 30, "one page per live private data");
}

/// One scripted alloc/free sequence through every allocator that keeps the
/// §3.2 ledger, pinned after each phase. The page allocators round each
/// request up to whole pages (Kefence's guardian is not counted).
mod alloc_ledger {
    use kucode::kalloc::AllocSnapshot;
    use kucode::prelude::*;
    use std::sync::Arc;

    enum Phase {
        Alloc(&'static [usize]),
        Free(&'static [usize]), // indices into the allocations so far
    }
    use Phase::*;

    const SCRIPT: [Phase; 4] =
        [Alloc(&[80, 4096, 4097, 12_000]), Free(&[1]), Alloc(&[33, 8192]), Free(&[0, 2, 3, 4, 5])];

    /// (allocs, frees, bytes requested, avg size, outstanding pages, high water)
    type Row = (u64, u64, u64, f64, u64, u64);

    const PAGE_ROWS: [Row; 4] = [
        (4, 0, 20_273, 20_273.0 / 4.0, 7, 7),
        (4, 1, 20_273, 20_273.0 / 4.0, 6, 7),
        (6, 1, 28_498, 28_498.0 / 6.0, 9, 9),
        (6, 6, 28_498, 28_498.0 / 6.0, 0, 9),
    ];

    fn run(alloc: &dyn KernelAllocator, stats: impl Fn() -> AllocSnapshot) -> Vec<Row> {
        let mut addrs = Vec::new();
        let mut rows = Vec::new();
        for phase in &SCRIPT {
            match phase {
                Alloc(sizes) => addrs.extend(sizes.iter().map(|&n| alloc.alloc(n).ok())),
                Free(idx) => {
                    for a in idx.iter().filter_map(|&i| addrs[i].take()) {
                        alloc.free(a).unwrap();
                    }
                }
            }
            let s = stats();
            let (hw, avg) = (s.max_outstanding_pages, s.avg_alloc_size());
            rows.push((s.allocs, s.frees, s.bytes_requested, avg, s.outstanding_pages, hw));
        }
        rows
    }

    fn machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::default()))
    }

    #[test]
    fn kmalloc_ledger() {
        // Slab refuses requests above 4 KiB before counting them, and its
        // objects share pages, so its page columns stay 0.
        let s = SlabAllocator::new(machine());
        let rows: [Row; 4] = [
            (2, 0, 4_176, 4_176.0 / 2.0, 0, 0),
            (2, 1, 4_176, 4_176.0 / 2.0, 0, 0),
            (3, 1, 4_209, 4_209.0 / 3.0, 0, 0),
            (3, 3, 4_209, 4_209.0 / 3.0, 0, 0),
        ];
        assert_eq!(run(&s, || s.stats()), rows);
    }

    #[test]
    fn vmalloc_ledger_in_both_index_modes() {
        for index in [VfreeIndex::LinearList, VfreeIndex::HashTable] {
            let v = Vmalloc::new(machine(), index);
            assert_eq!(run(&v, || v.stats()), PAGE_ROWS, "{index:?}");
        }
    }

    #[test]
    fn kefence_ledger() {
        let k = Kefence::new(machine(), OnViolation::Crash, Protect::Overflow);
        assert_eq!(run(k.as_ref(), || k.stats()), PAGE_ROWS);
    }
}
