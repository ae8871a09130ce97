//! `kmalloc`/`kfree`: size-class slab caches over direct-mapped frames.
//!
//! Vanilla Wrapfs (the Kefence baseline in §3.2) allocates every object —
//! inode/file private data, temporary page buffers, name strings — with
//! `kmalloc`. The slab packs many objects per page, so it is fast and
//! memory-dense but offers no overflow detection: an overflowing write
//! lands in the neighbouring object. Kefence trades this density for
//! page-granular protection (see the `kefence` crate).

use std::sync::Arc;

use parking_lot::Mutex;

use ksim::{FxHashMap, Machine, Pte, PteFlags, SimError, SimResult, PAGE_SIZE};

use crate::{AllocSnapshot, AllocStats, DIRECT_MAP_BASE};

/// Power-of-two size classes, 32 B … 4096 B (Linux's kmalloc-32 … kmalloc-4k).
const CLASSES: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The slab allocator. Clone the surrounding `Arc` to share.
pub struct SlabAllocator {
    machine: Arc<Machine>,
    /// Per-class free object addresses, LIFO for cache warmth.
    free: [Mutex<Vec<u64>>; CLASSES.len()],
    /// Live object address → its size-class index.
    live: Mutex<FxHashMap<u64, u8>>,
    stats: AllocStats,
}

impl SlabAllocator {
    pub fn new(machine: Arc<Machine>) -> Self {
        SlabAllocator {
            machine,
            free: Default::default(),
            live: Mutex::new(FxHashMap::default()),
            stats: AllocStats::default(),
        }
    }

    fn class_for(size: usize) -> Option<usize> {
        CLASSES.iter().position(|&c| c >= size)
    }

    /// Map one fresh frame at its direct-map address and return the VA.
    fn grow(&self, machine: &Machine) -> SimResult<u64> {
        let pfn = machine.mem.phys.alloc_frame()?;
        let va = DIRECT_MAP_BASE + (pfn.0 as u64) * PAGE_SIZE as u64;
        machine
            .mem
            .map_page(machine.kernel_asid(), va, Pte { pfn: Some(pfn), flags: PteFlags::rw() })?;
        Ok(va)
    }

    /// Allocate `size` bytes of kernel memory; returns its kernel VA.
    ///
    /// Sizes above 4 KiB are rejected (real kmalloc tops out per-slab too;
    /// the paper's Wrapfs allocations average 80 bytes).
    pub fn kmalloc(&self, size: usize) -> SimResult<u64> {
        if size == 0 {
            return Err(SimError::Invalid("kmalloc(0)"));
        }
        let ci = Self::class_for(size).ok_or(SimError::Invalid("kmalloc size > 4096"))?;
        if self.machine.faults.should_fail(kfault::sites::KALLOC_SLAB) {
            return Err(SimError::OutOfMemory);
        }
        self.machine.charge_sys(self.machine.cost.kmalloc_op);

        let addr = {
            let mut free = self.free[ci].lock();
            if free.is_empty() {
                let va = self.grow(&self.machine)?;
                let obj = CLASSES[ci];
                // Carve the page into objects; push in reverse so the
                // lowest address pops first.
                for k in (0..PAGE_SIZE / obj).rev() {
                    free.push(va + (k * obj) as u64);
                }
            }
            free.pop().expect("class was just refilled")
        };

        self.live.lock().insert(addr, ci as u8);
        self.stats.on_alloc(size, 0);
        Ok(addr)
    }

    /// Free a `kmalloc`ed object.
    pub fn kfree(&self, addr: u64) -> SimResult<()> {
        let class = self
            .live
            .lock()
            .remove(&addr)
            .ok_or(SimError::Invalid("kfree of unknown address"))?;
        self.machine.charge_sys(self.machine.cost.kmalloc_op);
        self.free[class as usize].lock().push(addr);
        self.stats.on_free(0);
        Ok(())
    }

    /// The usable size of the class `addr` was served from.
    pub fn usable_size(&self, addr: u64) -> Option<usize> {
        self.live.lock().get(&addr).map(|&c| CLASSES[c as usize])
    }

    /// Objects currently live.
    pub fn live_objects(&self) -> usize {
        self.live.lock().len()
    }

    /// The allocation ledger. Slab objects share pages, so its page
    /// columns stay 0.
    pub fn stats(&self) -> AllocSnapshot {
        self.stats.snapshot()
    }
}

impl std::fmt::Debug for SlabAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabAllocator")
            .field("live_objects", &self.live_objects())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn slab() -> SlabAllocator {
        SlabAllocator::new(Arc::new(Machine::new(MachineConfig::small_free())))
    }

    #[test]
    fn kmalloc_returns_distinct_writable_addresses() {
        let s = slab();
        let a = s.kmalloc(80).unwrap();
        let b = s.kmalloc(80).unwrap();
        assert_ne!(a, b);
        // The backing memory is mapped in the kernel address space.
        let m = &s.machine;
        m.mem.write_virt(m.kernel_asid(), a, &[0xAA; 80]).unwrap();
        m.mem.write_virt(m.kernel_asid(), b, &[0xBB; 80]).unwrap();
        let mut buf = [0u8; 80];
        m.mem.read_virt(m.kernel_asid(), a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAA), "neighbour write must not leak");
    }

    #[test]
    fn objects_pack_many_per_page() {
        let s = slab();
        let frames_before = s.machine.mem.phys.allocated();
        for _ in 0..128 {
            s.kmalloc(32).unwrap();
        }
        let frames_used = s.machine.mem.phys.allocated() - frames_before;
        assert_eq!(frames_used, 1, "128 × 32B fits one 4 KiB page");
    }

    #[test]
    fn kfree_recycles_objects() {
        let s = slab();
        let a = s.kmalloc(100).unwrap();
        s.kfree(a).unwrap();
        let b = s.kmalloc(100).unwrap();
        assert_eq!(a, b, "LIFO free list reuses the hot object");
        assert_eq!(s.live_objects(), 1);
    }

    #[test]
    fn size_class_rounding() {
        let s = slab();
        let a = s.kmalloc(33).unwrap();
        assert_eq!(s.usable_size(a), Some(64));
        let b = s.kmalloc(4096).unwrap();
        assert_eq!(s.usable_size(b), Some(4096));
    }

    #[test]
    fn invalid_sizes_and_double_free_are_errors() {
        let s = slab();
        assert!(s.kmalloc(0).is_err());
        assert!(s.kmalloc(4097).is_err());
        let a = s.kmalloc(64).unwrap();
        s.kfree(a).unwrap();
        assert!(s.kfree(a).is_err(), "double kfree must be detected");
        assert!(s.kfree(0xdead).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ksim::MachineConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;
    
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Under arbitrary alloc/free interleavings, live objects never
        /// overlap and every address stays within its class's bounds.
        #[test]
        fn live_objects_never_overlap(
            ops in proptest::collection::vec((any::<bool>(), 1usize..4096, any::<u8>()), 1..120)
        ) {
            let s = SlabAllocator::new(Arc::new(Machine::new(MachineConfig::small_free())));
            // addr -> usable length of the slot
            let mut live: HashMap<u64, usize> = HashMap::new();
            let mut order: Vec<u64> = Vec::new();
            for (is_alloc, size, pick) in ops {
                if is_alloc || order.is_empty() {
                    let addr = s.kmalloc(size).unwrap();
                    let usable = s.usable_size(addr).unwrap();
                    prop_assert!(usable >= size);
                    // No overlap with any live object.
                    for (&base, &len) in &live {
                        let disjoint = addr + usable as u64 <= base
                            || base + len as u64 <= addr;
                        prop_assert!(disjoint, "{addr:#x}+{usable} overlaps {base:#x}+{len}");
                    }
                    live.insert(addr, usable);
                    order.push(addr);
                } else {
                    let idx = pick as usize % order.len();
                    let addr = order.swap_remove(idx);
                    live.remove(&addr);
                    s.kfree(addr).unwrap();
                }
            }
            prop_assert_eq!(s.live_objects(), live.len());
        }
    }
}
