//! Sampling Kefence — the paper's §3.5 future work, implemented.
//!
//! *"Because converting all kmalloc calls to vmalloc calls consumes more
//! memory, we are investigating methods to dynamically decide which memory
//! should be protected at runtime."*
//!
//! [`SamplingKefence`] protects every `rate`-th allocation with a guarded
//! Kefence allocation and serves the rest from the ordinary slab: memory
//! cost and fault-handling overhead drop by roughly `1/rate`, while a
//! recurring overflow at a given allocation site is still caught with
//! probability ≈ `1/rate` per occurrence — the modern KFENCE trade-off,
//! anticipated by this paper.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::HashSet;

use kalloc::{KernelAllocator, SlabAllocator};
use ksim::{Machine, SimError, SimResult};

use crate::{Kefence, OnViolation, Protect};

/// A [`KernelAllocator`] that guards a deterministic 1-in-`rate` sample of
/// allocations.
pub struct SamplingKefence {
    guarded: Arc<Kefence>,
    slab: Arc<SlabAllocator>,
    rate: u64,
    counter: AtomicU64,
    guarded_now: Mutex<HashSet<u64>>,
}

impl SamplingKefence {
    /// Guard one in `rate` allocations (rate 1 = full Kefence).
    pub fn new(machine: Arc<Machine>, rate: u64, mode: OnViolation) -> Arc<Self> {
        assert!(rate >= 1, "rate must be at least 1");
        Arc::new(SamplingKefence {
            guarded: Kefence::new(machine.clone(), mode, Protect::Overflow),
            slab: Arc::new(SlabAllocator::new(machine)),
            rate,
            counter: AtomicU64::new(0),
            guarded_now: Mutex::new(HashSet::new()),
        })
    }

    /// The underlying guarded allocator (violation log, statistics).
    pub fn kefence(&self) -> &Arc<Kefence> {
        &self.guarded
    }

    /// (guarded allocations, plain allocations) so far: the two
    /// allocators' own ledgers, since each serves only this sampler.
    pub fn split(&self) -> (u64, u64) {
        (self.guarded.stats().allocs, self.slab.stats().allocs)
    }

    /// Is this live allocation currently guarded?
    pub fn is_guarded(&self, addr: u64) -> bool {
        self.guarded_now.lock().contains(&addr)
    }
}

impl KernelAllocator for SamplingKefence {
    fn alloc(&self, size: usize) -> SimResult<u64> {
        let n = self.counter.fetch_add(1, Relaxed);
        if n.is_multiple_of(self.rate) {
            let addr = self.guarded.kefence_alloc(size)?;
            self.guarded_now.lock().insert(addr);
            Ok(addr)
        } else {
            // Slab tops out at a page; large requests fall back to guarded
            // allocations (which are page-granular anyway).
            match self.slab.kmalloc(size) {
                Err(SimError::Invalid(_)) => {
                    let addr = self.guarded.kefence_alloc(size)?;
                    self.guarded_now.lock().insert(addr);
                    Ok(addr)
                }
                r => r,
            }
        }
    }

    fn free(&self, addr: u64) -> SimResult<()> {
        if self.guarded_now.lock().remove(&addr) {
            self.guarded.kefence_free(addr)
        } else {
            self.slab.kfree(addr)
        }
    }

    fn name(&self) -> &str {
        "kefence-sampling"
    }
}

impl std::fmt::Debug for SamplingKefence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (g, p) = self.split();
        f.debug_struct("SamplingKefence")
            .field("rate", &self.rate)
            .field("guarded", &g)
            .field("plain", &p)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::default()))
    }

    #[test]
    fn guards_exactly_one_in_rate() {
        let s = SamplingKefence::new(machine(), 8, OnViolation::Crash);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(s.alloc(80).unwrap());
        }
        let (guarded, plain) = s.split();
        assert_eq!(guarded, 8);
        assert_eq!(plain, 56);
        for a in addrs {
            s.free(a).unwrap();
        }
        assert_eq!(s.kefence().stats().frees, 8, "guarded frees routed correctly");
    }

    #[test]
    fn rate_one_guards_everything() {
        let s = SamplingKefence::new(machine(), 1, OnViolation::Crash);
        for _ in 0..10 {
            s.alloc(64).unwrap();
        }
        assert_eq!(s.split(), (10, 0));
    }

    #[test]
    fn guarded_allocations_still_catch_overflows() {
        let m = machine();
        let s = SamplingKefence::new(m.clone(), 4, OnViolation::Crash);
        let mut caught = 0;
        for _ in 0..16 {
            let a = s.alloc(100).unwrap();
            // Overflow by one byte on every allocation.
            if m.mem.write_virt(m.kernel_asid(), a + 100, &[1]).is_err() {
                caught += 1;
            }
            s.free(a).unwrap();
        }
        assert_eq!(caught, 4, "1-in-4 sampling catches 1-in-4 overflows");
        assert_eq!(s.kefence().violations().len(), 4);
    }

    #[test]
    fn memory_cost_scales_down_with_rate() {
        let m = machine();
        let frames0 = m.mem.phys.allocated();
        let full = SamplingKefence::new(m.clone(), 1, OnViolation::Crash);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(full.alloc(80).unwrap());
        }
        let full_frames = m.mem.phys.allocated() - frames0;
        for a in addrs {
            full.free(a).unwrap();
        }

        let frames1 = m.mem.phys.allocated();
        let sampled = SamplingKefence::new(m.clone(), 16, OnViolation::Crash);
        let mut addrs = Vec::new();
        for _ in 0..64 {
            addrs.push(sampled.alloc(80).unwrap());
        }
        let sampled_frames = m.mem.phys.allocated() - frames1;
        for a in addrs {
            sampled.free(a).unwrap();
        }
        assert!(
            sampled_frames * 4 < full_frames,
            "sampling must slash page cost: {sampled_frames} vs {full_frames}"
        );
    }

    #[test]
    fn large_allocations_fall_back_to_guarded_path() {
        let s = SamplingKefence::new(machine(), 1000, OnViolation::Crash);
        // First allocation is guarded (n=0); the next large one exceeds the
        // slab and must take the guarded path despite the sampling rate.
        let _first = s.alloc(64).unwrap();
        let big = s.alloc(20_000).unwrap();
        assert!(s.is_guarded(big));
        s.free(big).unwrap();
    }
}
