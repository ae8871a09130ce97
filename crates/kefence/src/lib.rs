//! `kefence` — hardware-assisted kernel buffer bounds checking (§3.2).
//!
//! Kefence brings the Electric Fence idea into the (simulated) kernel:
//! every allocation is page-aligned in the vmalloc area and flushed against
//! a page boundary, with a **guardian PTE** planted in the adjacent page.
//! The guardian PTE has read and write permissions disabled, so any
//! overflow (or, in underflow mode, underflow) access takes a hardware page
//! fault; the modified page-fault handler then reports the violation with
//! the exact address and allocation context.
//!
//! Configurable fault behaviour, as in the paper:
//! * [`OnViolation::Crash`] — deny the access and fail the operation
//!   ("when security is critical ... preventing further malicious
//!   operations").
//! * [`OnViolation::LogRw`] / [`OnViolation::LogRo`] — auto-map a page over
//!   the guardian PTE so the offending code continues (writing or only
//!   reading the out-of-bounds area), while the violation is logged —
//!   the debugging configuration.
//!
//! Freed allocations are unmapped and their address range is never reused,
//! so use-after-free also faults. The trade-offs the paper documents are
//! real here too: every allocation consumes whole pages (tracked by the
//! high-water statistic) and extra PTE/TLB traffic is charged by the
//! simulator — that is exactly where the measured 1.4 % Am-utils overhead
//! comes from.

#![forbid(unsafe_code)]

pub mod sampling;

pub use sampling::SamplingKefence;

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use kalloc::{AllocSnapshot, AllocStats, KernelAllocator, VaAllocator};
use kevents::{EventDispatcher, EventRecord, EventType, Probe};
use ksim::{
    AccessKind, Fault, FaultHandler, FaultResolution, Machine, MemSys, Pte, PteFlags,
    SimError, SimResult, PAGE_SIZE,
};

/// Event tag used when violations are reported through `kevents`.
pub const KEFENCE_EVENT: EventType = EventType::Custom(0xFE);

/// Base of the Kefence arena in kernel VA space.
const KEFENCE_BASE: u64 = 0xffff_d000_0000_0000;
/// 64 GiB of VA: "a virtually inexhaustible resource".
const KEFENCE_END: u64 = KEFENCE_BASE + (64 << 30);

/// What the modified fault handler does on a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnViolation {
    /// Deny the access: the faulting operation fails (module "crash").
    Crash,
    /// Log and auto-map a read-write page: execution continues, even
    /// writes land.
    LogRw,
    /// Log and auto-map a read-only page: reads continue, writes still
    /// fault.
    LogRo,
}

/// Which side of the buffer is protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protect {
    /// Buffer flushed against the **end** of its pages; guard after it.
    /// Detects overflows (the common case the paper found sufficient).
    Overflow,
    /// Buffer at the **start**; guard before it. Detects underflows.
    Underflow,
}

/// Why an access was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    Overflow,
    Underflow,
    UseAfterFree,
}

/// One detected violation (the syslog line of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KefenceViolation {
    pub kind: ViolationKind,
    /// The faulting address.
    pub addr: u64,
    /// Base of the allocation involved.
    pub alloc_base: u64,
    /// Requested size of that allocation.
    pub size: usize,
    pub access: AccessKind,
}

#[derive(Debug, Clone, Copy)]
struct Allocation {
    /// Start of the VA range (page-aligned).
    range_base: u64,
    /// Mapped data pages.
    npages: usize,
    /// Address handed to the caller.
    addr: u64,
    /// Requested bytes.
    size: usize,
    /// VA of the guardian page.
    guard: u64,
    freed: bool,
    /// LogRo: a denied write to this guard page has already been logged.
    /// Further denied writes repeat silently so a retry loop cannot flood
    /// the violation log.
    ro_write_logged: bool,
}

struct State {
    machine: Arc<Machine>,
    mode: OnViolation,
    /// Allocation records keyed by range base (BTreeMap: range lookup by
    /// faulting address).
    allocs: Mutex<BTreeMap<u64, Allocation>>,
    violations: Mutex<Vec<KefenceViolation>>,
    probe: Probe,
    stats: AllocStats,
}

impl State {
    /// Find the allocation whose range (data pages + guard) covers `addr`.
    fn find(&self, addr: u64) -> Option<Allocation> {
        let allocs = self.allocs.lock();
        let (_, a) = allocs.range(..=addr).next_back()?;
        let range_pages = a.npages as u64 + 1;
        if addr < a.range_base + range_pages * PAGE_SIZE as u64 {
            Some(*a)
        } else {
            None
        }
    }

    fn report(&self, v: KefenceViolation) {
        let rec = EventRecord::new(v.alloc_base, KEFENCE_EVENT, "kefence", 0, v.addr as i64);
        self.probe.emit(rec);
        self.violations.lock().push(v);
    }
}

/// The fault handler registered with the machine.
struct KefenceFaultHandler {
    state: Arc<State>,
}

impl FaultHandler for KefenceFaultHandler {
    fn handle(&self, mem: &MemSys, fault: &Fault) -> FaultResolution {
        if fault.asid != self.state.machine.kernel_asid() {
            return FaultResolution::NotMine;
        }
        let Some(alloc) = self.state.find(fault.vaddr) else {
            return FaultResolution::NotMine;
        };

        let fault_page = fault.vaddr & !(PAGE_SIZE as u64 - 1);
        let kind = if alloc.freed {
            ViolationKind::UseAfterFree
        } else if fault_page == alloc.guard {
            if alloc.guard > alloc.addr {
                ViolationKind::Overflow
            } else {
                ViolationKind::Underflow
            }
        } else {
            // A fault inside the data pages of a live allocation is not
            // ours to explain.
            return FaultResolution::NotMine;
        };

        let mode = self.state.mode;
        // LogRo write dedup: every write to the read-only auto-mapped page
        // is denied, but only the first one per page is reported.
        let already_logged = mode == OnViolation::LogRo
            && fault.access == AccessKind::Write
            && kind != ViolationKind::UseAfterFree
            && {
                let mut allocs = self.state.allocs.lock();
                let a = allocs.get_mut(&alloc.range_base).expect("allocation vanished");
                std::mem::replace(&mut a.ro_write_logged, true)
            };
        if !already_logged {
            self.state.report(KefenceViolation {
                kind,
                addr: fault.vaddr,
                alloc_base: alloc.addr,
                size: alloc.size,
                access: fault.access,
            });
        }

        match (mode, kind) {
            (OnViolation::Crash, _) => FaultResolution::Deny,
            // Use-after-free pages are gone; only guard pages can be
            // auto-mapped over.
            (_, ViolationKind::UseAfterFree) => FaultResolution::Deny,
            (OnViolation::LogRw, _) => {
                let flags = PteFlags::rw();
                if mem.map_anon(fault.asid, alloc.guard, flags).is_ok() {
                    FaultResolution::Retry
                } else {
                    FaultResolution::Deny
                }
            }
            (OnViolation::LogRo, _) => {
                if fault.access == AccessKind::Write {
                    return FaultResolution::Deny;
                }
                if mem.map_anon(fault.asid, alloc.guard, PteFlags::ro()).is_ok() {
                    FaultResolution::Retry
                } else {
                    FaultResolution::Deny
                }
            }
        }
    }

    fn name(&self) -> &str {
        "kefence"
    }
}

/// The Kefence allocator: a drop-in [`KernelAllocator`] whose allocations
/// are guarded.
pub struct Kefence {
    machine: Arc<Machine>,
    va: VaAllocator,
    protect: Protect,
    /// Byte alignment of returned addresses (1 = exact overflow detection;
    /// efence historically used the word size).
    pub alignment: usize,
    state: Arc<State>,
}

impl Kefence {
    /// Create a Kefence allocator and register its fault handler.
    pub fn new(machine: Arc<Machine>, mode: OnViolation, protect: Protect) -> Arc<Self> {
        let state = Arc::new(State {
            machine: machine.clone(),
            mode,
            allocs: Mutex::new(BTreeMap::new()),
            violations: Mutex::new(Vec::new()),
            probe: Probe::new(),
            stats: AllocStats::default(),
        });
        machine
            .mem
            .register_fault_handler(Arc::new(KefenceFaultHandler { state: state.clone() }));
        Arc::new(Kefence {
            machine,
            va: VaAllocator::new(KEFENCE_BASE, KEFENCE_END),
            protect,
            alignment: 1,
            state,
        })
    }

    /// Report violations through an event dispatcher (syslog stand-in).
    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        self.state.probe.set_dispatcher(d);
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> Vec<KefenceViolation> {
        self.state.violations.lock().clone()
    }

    /// The allocation ledger. Its page columns count data pages only, not
    /// guardians (the paper reports 2,085 outstanding for the Am-utils
    /// compile).
    pub fn stats(&self) -> AllocSnapshot {
        self.state.stats.snapshot()
    }

    /// The guarded allocation path (`kefence_vmalloc`).
    pub fn kefence_alloc(&self, size: usize) -> SimResult<u64> {
        if size == 0 {
            return Err(SimError::Invalid("kefence alloc of 0 bytes"));
        }
        let m = &self.machine;
        let npages = size.div_ceil(PAGE_SIZE);
        // One extra page slot for the guardian. The VA is never returned to
        // the allocator on free (UAF detection), so no gap is needed.
        let range = self.va.alloc(npages + 1, 0)?;
        m.charge_sys(m.cost.vmalloc_op);

        let (data_base, guard, addr) = match self.protect {
            Protect::Overflow => {
                let data_base = range;
                let guard = range + (npages * PAGE_SIZE) as u64;
                let raw = data_base + (npages * PAGE_SIZE - size) as u64;
                let addr = raw & !(self.alignment as u64 - 1);
                (data_base, guard, addr)
            }
            Protect::Underflow => {
                let guard = range;
                let data_base = range + PAGE_SIZE as u64;
                (data_base, guard, data_base)
            }
        };

        for i in 0..npages {
            m.mem.map_anon(m.kernel_asid(), data_base + (i * PAGE_SIZE) as u64, PteFlags::rw())?;
        }
        // The guardian PTE: present, permissionless.
        m.mem.map_page(m.kernel_asid(), guard, Pte { pfn: None, flags: PteFlags::guardian() })?;

        self.state.allocs.lock().insert(
            range,
            Allocation {
                range_base: range,
                npages,
                addr,
                size,
                guard,
                freed: false,
                ro_write_logged: false,
            },
        );
        self.state.stats.on_alloc(size, npages);
        Ok(addr)
    }

    /// The guarded free path: pages are unmapped (so later touches fault as
    /// use-after-free) and the range is retired, never reused.
    pub fn kefence_free(&self, addr: u64) -> SimResult<()> {
        let m = &self.machine;
        let mut allocs = self.state.allocs.lock();
        let rec = allocs
            .values_mut()
            .find(|a| a.addr == addr && !a.freed)
            .ok_or(SimError::Invalid("kefence free of unknown address"))?;
        rec.freed = true;
        let (range_base, npages, guard) = (rec.range_base, rec.npages, rec.guard);
        drop(allocs);

        m.charge_sys(m.cost.vmalloc_op);
        let data_base = match self.protect {
            Protect::Overflow => range_base,
            Protect::Underflow => range_base + PAGE_SIZE as u64,
        };
        for i in 0..npages {
            if let Some(pte) = m.mem.unmap_page(m.kernel_asid(), data_base + (i * PAGE_SIZE) as u64)? {
                if let Some(pfn) = pte.pfn {
                    m.mem.phys.free_frame(pfn);
                }
            }
        }
        // Unmap the guardian too if it was auto-mapped with a real frame.
        if let Some(pte) = m.mem.unmap_page(m.kernel_asid(), guard)? {
            if let Some(pfn) = pte.pfn {
                m.mem.phys.free_frame(pfn);
            }
        }
        self.state.stats.on_free(npages);
        Ok(())
    }
}

impl KernelAllocator for Kefence {
    fn alloc(&self, size: usize) -> SimResult<u64> {
        self.kefence_alloc(size)
    }

    fn free(&self, addr: u64) -> SimResult<()> {
        self.kefence_free(addr)
    }

    fn name(&self) -> &str {
        "kefence"
    }
}

impl std::fmt::Debug for Kefence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.stats();
        f.debug_struct("Kefence")
            .field("allocs", &st.allocs)
            .field("frees", &st.frees)
            .field("violations", &self.violations().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{FaultKind, MachineConfig};
    use std::sync::atomic::Ordering::Relaxed;

    fn setup(mode: OnViolation, protect: Protect) -> (Arc<Machine>, Arc<Kefence>) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let k = Kefence::new(m.clone(), mode, protect);
        (m, k)
    }

    fn write(m: &Machine, addr: u64, data: &[u8]) -> SimResult<()> {
        m.mem.write_virt(m.kernel_asid(), addr, data)
    }

    fn read(m: &Machine, addr: u64, len: usize) -> SimResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        m.mem.read_virt(m.kernel_asid(), addr, &mut buf)?;
        Ok(buf)
    }

    #[test]
    fn in_bounds_access_is_clean() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let a = k.kefence_alloc(80).unwrap();
        write(&m, a, &[0xAB; 80]).unwrap();
        assert_eq!(read(&m, a, 80).unwrap(), vec![0xAB; 80]);
        assert!(k.violations().is_empty());
        // The very last byte is accessible.
        write(&m, a + 79, &[1]).unwrap();
    }

    #[test]
    fn one_byte_overflow_is_caught_exactly() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let a = k.kefence_alloc(80).unwrap();
        let err = write(&m, a + 80, &[1]).unwrap_err();
        assert!(matches!(err, SimError::MemFault { kind: FaultKind::Guard, .. }));
        let v = k.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Overflow);
        assert_eq!(v[0].alloc_base, a);
        assert_eq!(v[0].size, 80);
        assert_eq!(v[0].addr, a + 80);
        assert_eq!(m.stats.guard_hits.load(Relaxed), 1);
    }

    #[test]
    fn underflow_mode_catches_reads_before_the_buffer() {
        let (m, k) = setup(OnViolation::Crash, Protect::Underflow);
        let a = k.kefence_alloc(100).unwrap();
        write(&m, a, &[1; 100]).unwrap();
        let err = read(&m, a - 1, 1).unwrap_err();
        assert!(matches!(err, SimError::MemFault { kind: FaultKind::Guard, .. }));
        assert_eq!(k.violations()[0].kind, ViolationKind::Underflow);
    }

    #[test]
    fn log_rw_mode_lets_the_overflow_proceed_but_records_it() {
        let (m, k) = setup(OnViolation::LogRw, Protect::Overflow);
        let a = k.kefence_alloc(64).unwrap();
        // Overflowing write succeeds (auto-mapped page) and is logged.
        write(&m, a + 64, &[7; 16]).unwrap();
        assert_eq!(read(&m, a + 64, 16).unwrap(), vec![7; 16]);
        let v = k.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Overflow);
    }

    #[test]
    fn log_ro_mode_allows_reads_denies_writes() {
        let (m, k) = setup(OnViolation::LogRo, Protect::Overflow);
        let a = k.kefence_alloc(64).unwrap();
        assert!(read(&m, a + 64, 4).is_ok(), "OOB read tolerated");
        assert!(write(&m, a + 64, &[1]).is_err(), "OOB write still denied");
        assert!(k.violations().len() >= 2);
    }

    #[test]
    fn log_ro_mode_logs_denied_writes_exactly_once_per_page() {
        let (m, k) = setup(OnViolation::LogRo, Protect::Overflow);
        let a = k.kefence_alloc(64).unwrap();
        let b = k.kefence_alloc(64).unwrap();
        // Reads auto-map both guard pages read-only (one logged read each).
        assert!(read(&m, a + 64, 4).is_ok());
        assert!(read(&m, b + 64, 4).is_ok());
        // Hammer the mapped pages with writes: all denied, one log apiece.
        for _ in 0..5 {
            assert!(write(&m, a + 64, &[1]).is_err(), "OOB write still denied");
            assert!(write(&m, b + 64, &[1]).is_err());
        }
        let writes: Vec<_> = k
            .violations()
            .into_iter()
            .filter(|v| v.access == AccessKind::Write)
            .collect();
        assert_eq!(writes.len(), 2, "one write violation per guard page");
        assert_ne!(writes[0].alloc_base, writes[1].alloc_base);
    }

    #[test]
    fn use_after_free_faults() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let a = k.kefence_alloc(128).unwrap();
        write(&m, a, &[1; 128]).unwrap();
        k.kefence_free(a).unwrap();
        let err = read(&m, a, 1).unwrap_err();
        assert!(err != SimError::Invalid("x"), "some memory fault: {err:?}");
        let v = k.violations();
        assert_eq!(v.last().unwrap().kind, ViolationKind::UseAfterFree);
        // Double free is rejected.
        assert!(k.kefence_free(a).is_err());
    }

    #[test]
    fn multi_page_allocations_guard_after_the_last_page() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let size = 3 * PAGE_SIZE; // exactly page-multiple: both ends aligned
        let a = k.kefence_alloc(size).unwrap();
        write(&m, a, &vec![9u8; size]).unwrap();
        assert!(write(&m, a + size as u64, &[1]).is_err());
        assert_eq!(k.violations()[0].kind, ViolationKind::Overflow);
    }

    #[test]
    fn works_as_a_kernel_allocator_for_wrapfs_style_users() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let alloc: Arc<dyn KernelAllocator> = k.clone();
        let a = alloc.alloc(80).unwrap();
        write(&m, a, &[1; 80]).unwrap();
        alloc.free(a).unwrap();
        assert_eq!(alloc.name(), "kefence");
    }

    #[test]
    fn frames_are_released_on_free() {
        let (m, k) = setup(OnViolation::Crash, Protect::Overflow);
        let before = m.mem.phys.allocated();
        let a = k.kefence_alloc(2 * PAGE_SIZE).unwrap();
        assert_eq!(m.mem.phys.allocated(), before + 2);
        k.kefence_free(a).unwrap();
        assert_eq!(m.mem.phys.allocated(), before);
    }

    #[test]
    fn violations_flow_to_the_event_dispatcher() {
        let (m, k) = setup(OnViolation::LogRw, Protect::Overflow);
        let d = Arc::new(EventDispatcher::new(m.clone()));
        let ring = Arc::new(kevents::EventRing::with_capacity(16));
        d.attach_ring(ring.clone());
        k.set_dispatcher(Some(d));
        let a = k.kefence_alloc(32).unwrap();
        write(&m, a + 32, &[1]).unwrap();
        let ev = ring.pop().expect("violation logged");
        assert_eq!(ev.event, KEFENCE_EVENT);
        assert_eq!(ev.obj, a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ksim::MachineConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// For any allocation size, every in-bounds byte is accessible and
        /// the first byte past the end faults — exact overflow detection.
        #[test]
        fn detection_is_exact_for_any_size(size in 1usize..20_000) {
            let m = Arc::new(Machine::new(MachineConfig::default()));
            let k = Kefence::new(m.clone(), OnViolation::Crash, Protect::Overflow);
            let a = k.kefence_alloc(size).unwrap();
            let kas = m.kernel_asid();
            // First, last byte writable.
            m.mem.write_virt(kas, a, &[1]).unwrap();
            m.mem.write_virt(kas, a + size as u64 - 1, &[2]).unwrap();
            // One past the end faults.
            prop_assert!(m.mem.write_virt(kas, a + size as u64, &[3]).is_err());
            let v = k.violations();
            prop_assert_eq!(v.len(), 1);
            prop_assert_eq!(v[0].kind, ViolationKind::Overflow);
            prop_assert_eq!(v[0].addr, a + size as u64);
            // Free: the whole range faults afterwards.
            k.kefence_free(a).unwrap();
            prop_assert!(m.mem.write_virt(kas, a, &[4]).is_err());
        }

        /// Alloc/free interleavings keep page accounting exact.
        #[test]
        fn page_accounting_is_exact(
            sizes in proptest::collection::vec(1usize..10_000, 1..40)
        ) {
            let m = Arc::new(Machine::new(MachineConfig::default()));
            let k = Kefence::new(m.clone(), OnViolation::Crash, Protect::Overflow);
            let frames0 = m.mem.phys.allocated();
            let mut addrs = Vec::new();
            let mut expect_pages = 0u64;
            for &s in &sizes {
                addrs.push(k.kefence_alloc(s).unwrap());
                expect_pages += s.div_ceil(ksim::PAGE_SIZE) as u64;
            }
            prop_assert_eq!(m.mem.phys.allocated() - frames0, expect_pages);
            for a in addrs {
                k.kefence_free(a).unwrap();
            }
            prop_assert_eq!(m.mem.phys.allocated(), frames0);
            prop_assert!(k.stats().max_outstanding_pages >= expect_pages.min(1));
        }
    }
}
