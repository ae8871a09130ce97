//! `vmalloc`/`vfree`: page-granular kernel allocations.
//!
//! Each allocation takes at least one page of VA and physical memory — the
//! space cost the paper accepts in exchange for Kefence's page-level
//! protection. `vfree` must find the allocation record for a bare address;
//! vanilla Linux 2.6 walked the `vmlist` linearly, and the paper reports
//! adding a hash table to speed this up. [`VfreeIndex`] selects either
//! behaviour so ablation A4 can measure the difference.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

use ksim::{FxHashMap, Machine, PteFlags, SimError, SimResult, PAGE_SIZE};

use crate::varange::VaAllocator;
use crate::{AllocSnapshot, AllocStats, VMALLOC_BASE, VMALLOC_END};

/// How `vfree` locates the record for an address (ablation A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfreeIndex {
    /// Walk the allocation list linearly (vanilla Linux 2.6 `vmlist`).
    LinearList,
    /// Hash-table lookup (the paper's optimization).
    HashTable,
}

#[derive(Debug, Clone, Copy)]
struct VmAlloc {
    va: u64,
    npages: usize,
    /// Pages of guard hole owned by the allocation (Kefence-style users).
    gap_pages: usize,
}

/// The vmalloc arena.
pub struct Vmalloc {
    machine: Arc<Machine>,
    va: VaAllocator,
    index: VfreeIndex,
    /// Insertion-ordered allocation list (the `vmlist`).
    list: Mutex<Vec<VmAlloc>>,
    /// Hash index over the same records (when enabled).
    hash: Mutex<FxHashMap<u64, VmAlloc>>,
    stats: AllocStats,
    /// Cycles spent locating records in `vfree` (A4's measured quantity).
    vfree_lookup_cycles: AtomicU64,
}

/// Cycles to inspect one `vmlist` node during a linear `vfree` walk.
const LIST_NODE_COST: u64 = 8;
/// Cycles for one hash probe.
const HASH_PROBE_COST: u64 = 12;

impl Vmalloc {
    pub fn new(machine: Arc<Machine>, index: VfreeIndex) -> Self {
        Vmalloc {
            machine,
            va: VaAllocator::new(VMALLOC_BASE, VMALLOC_END),
            index,
            list: Mutex::new(Vec::new()),
            hash: Mutex::new(FxHashMap::default()),
            stats: AllocStats::default(),
            vfree_lookup_cycles: AtomicU64::new(0),
        }
    }

    /// Allocate `size` bytes, rounded up to whole pages, with one page of
    /// unmapped guard hole after the mapping (vanilla vmalloc leaves such a
    /// hole too). Returns the base VA of the mapping.
    pub fn vmalloc(&self, size: usize) -> SimResult<u64> {
        self.vmalloc_with_gap(size, 1)
    }

    /// As [`Vmalloc::vmalloc`] but with an explicit guard-hole size; Kefence
    /// passes 0 here because it manages its own guardian PTE.
    pub fn vmalloc_with_gap(&self, size: usize, gap_pages: usize) -> SimResult<u64> {
        if size == 0 {
            return Err(SimError::Invalid("vmalloc(0)"));
        }
        if self.machine.faults.should_fail(kfault::sites::KALLOC_VMALLOC) {
            return Err(SimError::OutOfMemory);
        }
        let npages = size.div_ceil(PAGE_SIZE);
        let va = self.va.alloc(npages, gap_pages)?;
        let m = &self.machine;
        m.charge_sys(m.cost.vmalloc_op);

        // Map frames; unwind on partial OOM.
        for i in 0..npages {
            let vaddr = va + (i * PAGE_SIZE) as u64;
            if let Err(e) = m.mem.map_anon(m.kernel_asid(), vaddr, PteFlags::rw()) {
                for j in 0..i {
                    let addr = va + (j * PAGE_SIZE) as u64;
                    if let Ok(Some(pte)) = m.mem.unmap_page(m.kernel_asid(), addr) {
                        if let Some(pfn) = pte.pfn {
                            m.mem.phys.free_frame(pfn);
                        }
                    }
                }
                self.va.free(va, npages, gap_pages);
                return Err(e);
            }
        }

        let rec = VmAlloc { va, npages, gap_pages };
        self.list.lock().push(rec);
        if self.index == VfreeIndex::HashTable {
            self.hash.lock().insert(va, rec);
        }

        self.stats.on_alloc(size, npages);
        Ok(va)
    }

    fn locate(&self, va: u64) -> SimResult<VmAlloc> {
        match self.index {
            VfreeIndex::LinearList => {
                let list = self.list.lock();
                let mut cost = 0u64;
                for rec in list.iter() {
                    cost += LIST_NODE_COST;
                    if rec.va == va {
                        self.vfree_lookup_cycles.fetch_add(cost, Relaxed);
                        self.machine.charge_sys(cost);
                        return Ok(*rec);
                    }
                }
                self.vfree_lookup_cycles.fetch_add(cost, Relaxed);
                self.machine.charge_sys(cost);
                Err(SimError::Invalid("vfree of unknown address"))
            }
            VfreeIndex::HashTable => {
                self.vfree_lookup_cycles.fetch_add(HASH_PROBE_COST, Relaxed);
                self.machine.charge_sys(HASH_PROBE_COST);
                self.hash
                    .lock()
                    .get(&va)
                    .copied()
                    .ok_or(SimError::Invalid("vfree of unknown address"))
            }
        }
    }

    /// Free a vmalloc'ed allocation: unmap and release every frame, return
    /// the VA range (including its guard hole).
    pub fn vfree(&self, va: u64) -> SimResult<()> {
        let rec = self.locate(va)?;
        let m = &self.machine;
        m.charge_sys(m.cost.vmalloc_op);

        for i in 0..rec.npages {
            let vaddr = va + (i * PAGE_SIZE) as u64;
            if let Some(pte) = m.mem.unmap_page(m.kernel_asid(), vaddr)? {
                if let Some(pfn) = pte.pfn {
                    m.mem.phys.free_frame(pfn);
                }
            }
        }

        self.list.lock().retain(|r| r.va != va);
        if self.index == VfreeIndex::HashTable {
            self.hash.lock().remove(&va);
        }
        self.va.free(va, rec.npages, rec.gap_pages);
        self.stats.on_free(rec.npages);
        Ok(())
    }

    /// The record's mapped page count, if `va` is a live allocation base.
    pub fn pages_of(&self, va: u64) -> Option<usize> {
        self.list.lock().iter().find(|r| r.va == va).map(|r| r.npages)
    }

    /// Live allocation count.
    pub fn live(&self) -> usize {
        self.list.lock().len()
    }

    /// The allocation ledger (§3.2's statistics).
    pub fn stats(&self) -> AllocSnapshot {
        self.stats.snapshot()
    }

    /// Cycles spent locating records in `vfree` so far.
    pub fn vfree_lookup_cycles(&self) -> u64 {
        self.vfree_lookup_cycles.load(Relaxed)
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }
}

impl std::fmt::Debug for Vmalloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vmalloc")
            .field("index", &self.index)
            .field("live", &self.live())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn vm(index: VfreeIndex) -> Vmalloc {
        Vmalloc::new(Arc::new(Machine::new(MachineConfig::small_free())), index)
    }

    #[test]
    fn vmalloc_consumes_whole_pages() {
        let v = vm(VfreeIndex::HashTable);
        let m = v.machine.clone();
        let before = m.mem.phys.allocated();
        let a = v.vmalloc(80).unwrap(); // the paper's average Wrapfs size
        assert_eq!(m.mem.phys.allocated() - before, 1, "80 B costs a full page");
        assert_eq!(v.pages_of(a), Some(1));
        let b = v.vmalloc(PAGE_SIZE + 1).unwrap();
        assert_eq!(v.pages_of(b), Some(2));
    }

    #[test]
    fn data_round_trips_and_guard_hole_faults() {
        let v = vm(VfreeIndex::HashTable);
        let m = v.machine.clone();
        let a = v.vmalloc(100).unwrap();
        m.mem.write_virt(m.kernel_asid(), a, &[7u8; 100]).unwrap();
        let mut out = [0u8; 100];
        m.mem.read_virt(m.kernel_asid(), a, &mut out).unwrap();
        assert_eq!(out, [7u8; 100]);
        // One page past the mapping is the unmapped hole.
        let mut b = [0u8; 1];
        assert!(m.mem.read_virt(m.kernel_asid(), a + PAGE_SIZE as u64, &mut b).is_err());
    }

    #[test]
    fn vfree_releases_frames_and_va() {
        let v = vm(VfreeIndex::HashTable);
        let m = v.machine.clone();
        let a = v.vmalloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(m.mem.phys.allocated(), 3);
        v.vfree(a).unwrap();
        assert_eq!(m.mem.phys.allocated(), 0);
        assert_eq!(v.live(), 0);
        // The VA range is reusable.
        let b = v.vmalloc(3 * PAGE_SIZE).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn vfree_unknown_address_is_an_error_in_both_modes() {
        for idx in [VfreeIndex::LinearList, VfreeIndex::HashTable] {
            let v = vm(idx);
            assert!(v.vfree(VMALLOC_BASE).is_err());
            let a = v.vmalloc(10).unwrap();
            v.vfree(a).unwrap();
            assert!(v.vfree(a).is_err(), "double vfree detected ({idx:?})");
        }
    }

    #[test]
    fn linear_vfree_cost_grows_with_live_allocations() {
        let v = vm(VfreeIndex::LinearList);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(v.vmalloc(16).unwrap());
        }
        // Free the last-allocated (deepest in the list) and compare with
        // freeing when the list is nearly empty.
        v.vfree(*addrs.last().unwrap()).unwrap();
        let deep = v.vfree_lookup_cycles();
        for &a in &addrs[1..63] {
            v.vfree(a).unwrap();
        }
        let before = v.vfree_lookup_cycles();
        v.vfree(addrs[0]).unwrap();
        let shallow = v.vfree_lookup_cycles() - before;
        assert!(deep > 4 * shallow, "deep={deep} shallow={shallow}");
    }

    #[test]
    fn hash_vfree_cost_is_constant() {
        let v = vm(VfreeIndex::HashTable);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(v.vmalloc(16).unwrap());
        }
        let s0 = v.vfree_lookup_cycles();
        v.vfree(addrs[63]).unwrap();
        let first = v.vfree_lookup_cycles() - s0;
        assert_eq!(first, HASH_PROBE_COST);
    }

    #[test]
    fn zero_size_rejected() {
        let v = vm(VfreeIndex::HashTable);
        assert!(v.vmalloc(0).is_err());
    }
}
