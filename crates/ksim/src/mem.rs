//! Simulated physical memory, page tables, faults, and the TLB.
//!
//! The design mirrors the parts of the x86 MMU the paper's mechanisms need:
//!
//! * **Guard PTEs** — Kefence (§3.2) plants a present-but-inaccessible PTE
//!   adjacent to every `vmalloc` buffer; touching it raises a [`FaultKind::Guard`]
//!   fault, which a registered [`FaultHandler`] (the modified page-fault
//!   handler of the paper) can log, deny, or resolve by auto-mapping a page.
//! * **Fault-handler chain** — handlers are consulted in registration order;
//!   the first one that claims the fault decides its outcome, exactly like a
//!   hook chain in the Linux fault path.
//! * **TLB** — a small direct-mapped translation cache with hit/miss cycle
//!   charging. Kefence's page-granular allocations increase TLB pressure
//!   (the paper names TLB contention as one of its two overhead sources),
//!   and this model is what makes that overhead appear in our numbers.

use std::collections::BTreeMap;
use std::sync::atomic::{
    fence, AtomicU64, AtomicU8,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::Clock;
use crate::cost::CostModel;
use crate::error::{SimError, SimResult};
use crate::stats::Stats;

/// Simulated page size: 4 KiB, matching the paper's i386 target.
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Physical frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pfn(pub u32);

/// Address-space identifier (one per process, plus one for the kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// Page-table entry permission/status flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags {
    pub present: bool,
    pub read: bool,
    pub write: bool,
    /// Guardian PTE (Kefence): present in the table, but any access faults.
    pub guard: bool,
}

impl PteFlags {
    /// Normal read-write data page.
    pub const fn rw() -> Self {
        PteFlags { present: true, read: true, write: true, guard: false }
    }

    /// Read-only page.
    pub const fn ro() -> Self {
        PteFlags { present: true, read: true, write: false, guard: false }
    }

    /// A guardian PTE: mapped, but every access raises a guard fault.
    pub const fn guardian() -> Self {
        PteFlags { present: true, read: false, write: false, guard: true }
    }
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Backing frame. Guardian PTEs may carry `None`.
    pub pfn: Option<Pfn>,
    pub flags: PteFlags,
}

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No PTE for the page.
    NotPresent,
    /// PTE present but the access kind is not permitted.
    Protection,
    /// A guardian PTE was touched (Kefence overflow/underflow detection).
    Guard,
}

/// A page fault, delivered to the handler chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    pub asid: AsId,
    pub vaddr: u64,
    pub access: AccessKind,
    pub kind: FaultKind,
}

/// The outcome a fault handler reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// Not this handler's fault; try the next handler.
    NotMine,
    /// The handler fixed the mapping; re-walk the page table and retry.
    Retry,
    /// The access is denied; the faulting operation fails.
    Deny,
}

/// A page-fault handler hook (e.g. Kefence's modified fault handler).
pub trait FaultHandler: Send + Sync {
    /// Inspect `fault`; may modify mappings through `mem` before returning.
    fn handle(&self, mem: &MemSys, fault: &Fault) -> FaultResolution;

    /// Diagnostic name for error messages and logs.
    fn name(&self) -> &str {
        "anonymous-fault-handler"
    }
}

/// Words per 4 KiB frame in the flat guest-RAM array.
const WORDS_PER_FRAME: usize = PAGE_SIZE / 8;

// The flat RAM is allocated as zeroed `u64`s and viewed as `AtomicU64`s;
// that view is only sound while the two types share size and alignment.
const _: () = assert!(
    std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
);

/// Simulated physical memory: a pool of 4 KiB frames.
///
/// Guest RAM is a single flat array of relaxed atomic words, so the
/// load/store fast path — the hottest operation in the whole simulator —
/// takes no lock at all. A per-frame allocation byte turns accesses to
/// unallocated frames into panics (those are simulator bugs, not guest
/// errors). Racing guest threads see word-level tearing at worst, the same
/// guarantee real hardware gives racing CPUs. The backing allocation comes
/// from the zeroed allocator, so untouched frames cost no resident memory.
pub struct PhysMemory {
    ram: Box<[AtomicU64]>,
    /// 1 = allocated, 0 = free.
    state: Box<[AtomicU8]>,
    free: Mutex<Vec<u32>>,
    allocated: AtomicU64,
    high_water: AtomicU64,
}

impl PhysMemory {
    /// Create a pool with `nframes` frames (lazily committed by the OS).
    pub fn new(nframes: usize) -> Self {
        let free: Vec<u32> = (0..nframes as u32).rev().collect();
        // `vec![0u64; n]` goes through the zeroed allocator (no page is
        // touched until written); the size/align assertion above makes the
        // reinterpretation as atomic words valid.
        let words = Box::into_raw(vec![0u64; nframes * WORDS_PER_FRAME].into_boxed_slice());
        // SAFETY: `words` came from `Box::into_raw` just above and is
        // reclaimed exactly once; AtomicU64 has u64's size and alignment
        // (the const assertion), so the slice is a valid [AtomicU64].
        let ram = unsafe { Box::from_raw(words as *mut [AtomicU64]) };
        PhysMemory {
            ram,
            state: (0..nframes).map(|_| AtomicU8::new(0)).collect(),
            free: Mutex::new(free),
            allocated: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// Number of frames in the pool.
    pub fn capacity(&self) -> usize {
        self.state.len()
    }

    /// Frames currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Relaxed)
    }

    /// Maximum number of simultaneously allocated frames observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Relaxed)
    }

    /// Allocate one zeroed frame.
    pub fn alloc_frame(&self) -> SimResult<Pfn> {
        let idx = self.free.lock().pop().ok_or(SimError::OutOfMemory)?;
        let base = idx as usize * WORDS_PER_FRAME;
        for w in &self.ram[base..base + WORDS_PER_FRAME] {
            w.store(0, Relaxed);
        }
        self.state[idx as usize].store(1, Release);
        let now = self.allocated.fetch_add(1, Relaxed) + 1;
        self.high_water.fetch_max(now, Relaxed);
        Ok(Pfn(idx))
    }

    /// Release a frame back to the pool.
    ///
    /// # Panics
    /// Panics on double free — that is a simulator bug, not a guest error.
    pub fn free_frame(&self, pfn: Pfn) {
        let was = self.state[pfn.0 as usize].swap(0, AcqRel);
        assert!(was == 1, "double free of frame {:?}", pfn);
        self.allocated.fetch_sub(1, Relaxed);
        self.free.lock().push(pfn.0);
    }

    /// First word index of `pfn`, panicking if the frame is not allocated.
    #[inline]
    fn base_word(&self, pfn: Pfn) -> usize {
        assert!(
            self.state[pfn.0 as usize].load(Acquire) == 1,
            "access to unallocated frame {pfn:?}"
        );
        pfn.0 as usize * WORDS_PER_FRAME
    }

    /// Copy `dst.len()` bytes out of the frame, starting at byte `offset`.
    pub fn read_frame(&self, pfn: Pfn, offset: usize, dst: &mut [u8]) {
        assert!(offset + dst.len() <= PAGE_SIZE, "frame read out of range");
        let base = self.base_word(pfn);
        // Aligned-word fast path: interpreter/VM scalars.
        if dst.len() == 8 && offset & 7 == 0 {
            let w = self.ram[base + (offset >> 3)].load(Relaxed);
            dst.copy_from_slice(&w.to_le_bytes());
            return;
        }
        let (mut o, mut i) = (offset, 0);
        while i < dst.len() && o & 7 != 0 {
            let w = self.ram[base + (o >> 3)].load(Relaxed);
            dst[i] = (w >> ((o & 7) * 8)) as u8;
            o += 1;
            i += 1;
        }
        while dst.len() - i >= 8 {
            let w = self.ram[base + (o >> 3)].load(Relaxed);
            dst[i..i + 8].copy_from_slice(&w.to_le_bytes());
            o += 8;
            i += 8;
        }
        while i < dst.len() {
            let w = self.ram[base + (o >> 3)].load(Relaxed);
            dst[i] = (w >> ((o & 7) * 8)) as u8;
            o += 1;
            i += 1;
        }
    }

    /// Copy `src` into the frame, starting at byte `offset`. Sub-word edges
    /// are read-modify-write: racing byte-granularity guest writes to one
    /// word may tear, exactly as on real hardware.
    pub fn write_frame(&self, pfn: Pfn, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= PAGE_SIZE, "frame write out of range");
        let base = self.base_word(pfn);
        if src.len() == 8 && offset & 7 == 0 {
            let w = u64::from_le_bytes(src.try_into().unwrap());
            self.ram[base + (offset >> 3)].store(w, Relaxed);
            return;
        }
        let put_byte = |o: usize, b: u8| {
            let cell = &self.ram[base + (o >> 3)];
            let shift = (o & 7) * 8;
            let w = cell.load(Relaxed);
            cell.store((w & !(0xffu64 << shift)) | ((b as u64) << shift), Relaxed);
        };
        let (mut o, mut i) = (offset, 0);
        while i < src.len() && o & 7 != 0 {
            put_byte(o, src[i]);
            o += 1;
            i += 1;
        }
        while src.len() - i >= 8 {
            let w = u64::from_le_bytes(src[i..i + 8].try_into().unwrap());
            self.ram[base + (o >> 3)].store(w, Relaxed);
            o += 8;
            i += 8;
        }
        while i < src.len() {
            put_byte(o, src[i]);
            o += 1;
            i += 1;
        }
    }
}

impl std::fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMemory")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .field("high_water", &self.high_water())
            .finish()
    }
}

/// One per-process (or kernel) page table.
#[derive(Debug, Default)]
pub struct AddressSpace {
    table: BTreeMap<u64, Pte>,
}

impl AddressSpace {
    pub fn lookup(&self, vpn: u64) -> Option<Pte> {
        self.table.get(&vpn).copied()
    }

    pub fn map(&mut self, vpn: u64, pte: Pte) {
        self.table.insert(vpn, pte);
    }

    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        self.table.remove(&vpn)
    }

    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Iterate over mapped (vpn, pte) pairs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.table.iter().map(|(&v, &p)| (v, p))
    }
}

const TLB_WAYS: usize = 64;

/// One direct-mapped TLB slot, published through a tiny seqlock so the hit
/// path — taken once per simulated memory access — is lock-free. `tag`
/// packs `vpn << 2 | write_ok << 1 | valid`; `data` packs `asid << 32 | pfn`.
#[derive(Default)]
struct TlbSlot {
    seq: AtomicU64,
    tag: AtomicU64,
    data: AtomicU64,
}

impl TlbSlot {
    /// Read a consistent (tag, data) snapshot.
    #[inline]
    fn read(&self) -> (u64, u64) {
        loop {
            let s0 = self.seq.load(Acquire);
            let tag = self.tag.load(Relaxed);
            let data = self.data.load(Relaxed);
            fence(Acquire);
            if s0 & 1 == 0 && self.seq.load(Relaxed) == s0 {
                return (tag, data);
            }
            std::hint::spin_loop();
        }
    }

    /// Publish a new (tag, data) pair. Callers serialise through
    /// [`Tlb::write_side`].
    fn publish(&self, tag: u64, data: u64) {
        let s = self.seq.load(Relaxed);
        self.seq.store(s.wrapping_add(1), Relaxed);
        fence(Release);
        self.tag.store(tag, Relaxed);
        self.data.store(data, Relaxed);
        self.seq.store(s.wrapping_add(2), Release);
    }
}

/// A small direct-mapped TLB with cycle accounting.
pub struct Tlb {
    slots: [TlbSlot; TLB_WAYS],
    /// Serialises insert/invalidate/flush; lookups never take it.
    write_side: Mutex<()>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb {
            slots: std::array::from_fn(|_| TlbSlot::default()),
            write_side: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl Tlb {
    #[inline]
    fn slot(asid: AsId, vpn: u64) -> usize {
        ((vpn ^ asid.0 as u64) & (TLB_WAYS as u64 - 1)) as usize
    }

    /// Look up a translation; returns the cached pfn on a hit.
    #[inline]
    fn lookup(&self, asid: AsId, vpn: u64, access: AccessKind) -> Option<Pfn> {
        let (tag, data) = self.slots[Self::slot(asid, vpn)].read();
        if tag & 1 != 0 && tag >> 2 == vpn && (data >> 32) as u32 == asid.0 {
            if access == AccessKind::Write && tag & 2 == 0 {
                return None; // permission upgrade requires a walk
            }
            // Statistics-only counter (no correctness consumers): a plain
            // load+store keeps the lock prefix off the per-access hot path.
            // Concurrent lookups may drop an increment; the hit *charge*
            // below in `translate` is per-thread-batched and stays exact.
            self.hits.store(self.hits.load(Relaxed) + 1, Relaxed);
            Some(Pfn(data as u32))
        } else {
            None
        }
    }

    fn insert(&self, asid: AsId, vpn: u64, pfn: Pfn, write_ok: bool) {
        self.misses.fetch_add(1, Relaxed);
        let _g = self.write_side.lock();
        let tag = vpn << 2 | (write_ok as u64) << 1 | 1;
        let data = (asid.0 as u64) << 32 | pfn.0 as u64;
        self.slots[Self::slot(asid, vpn)].publish(tag, data);
    }

    /// Invalidate one translation (on unmap/protect: a TLB shootdown).
    pub fn invalidate(&self, asid: AsId, vpn: u64) {
        let _g = self.write_side.lock();
        let slot = &self.slots[Self::slot(asid, vpn)];
        let tag = slot.tag.load(Relaxed);
        let data = slot.data.load(Relaxed);
        if tag & 1 != 0 && tag >> 2 == vpn && (data >> 32) as u32 == asid.0 {
            slot.publish(tag & !1, data);
        }
    }

    /// Invalidate everything (address-space teardown).
    pub fn flush(&self) {
        let _g = self.write_side.lock();
        for slot in &self.slots {
            slot.publish(slot.tag.load(Relaxed) & !1, slot.data.load(Relaxed));
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Relaxed)
    }
}

impl std::fmt::Debug for Tlb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tlb")
            .field("ways", &TLB_WAYS)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// The complete memory subsystem: frames + address spaces + TLB + faults.
pub struct MemSys {
    pub phys: PhysMemory,
    pub tlb: Tlb,
    cost: CostModel,
    clock: Arc<Clock>,
    stats: Arc<Stats>,
    faults: Arc<kfault::FaultPlane>,
    spaces: RwLock<Vec<Option<AddressSpace>>>,
    handlers: RwLock<Vec<Arc<dyn FaultHandler>>>,
}

impl MemSys {
    pub fn new(
        nframes: usize,
        cost: CostModel,
        clock: Arc<Clock>,
        stats: Arc<Stats>,
        faults: Arc<kfault::FaultPlane>,
    ) -> Self {
        MemSys {
            phys: PhysMemory::new(nframes),
            tlb: Tlb::default(),
            cost,
            clock,
            stats,
            faults,
            spaces: RwLock::new(Vec::new()),
            handlers: RwLock::new(Vec::new()),
        }
    }

    /// Create a fresh, empty address space.
    pub fn create_space(&self) -> AsId {
        let mut spaces = self.spaces.write();
        spaces.push(Some(AddressSpace::default()));
        AsId(spaces.len() as u32 - 1)
    }

    /// Destroy an address space, releasing every frame it maps.
    pub fn destroy_space(&self, asid: AsId) -> SimResult<()> {
        self.release_space(asid)?;
        self.tlb.flush();
        Ok(())
    }

    /// [`MemSys::destroy_space`] without the full TLB flush: only `asid`'s
    /// own translations are shot down, one per mapped page, so every other
    /// space keeps its cached translations (and the cycles of its next
    /// accesses). Charges nothing.
    pub fn destroy_space_local(&self, asid: AsId) -> SimResult<()> {
        for (vpn, _) in self.release_space(asid)?.iter() {
            self.tlb.invalidate(asid, vpn);
        }
        Ok(())
    }

    /// Detach `asid`'s page table and free every frame it maps.
    fn release_space(&self, asid: AsId) -> SimResult<AddressSpace> {
        let space = {
            let mut spaces = self.spaces.write();
            spaces
                .get_mut(asid.0 as usize)
                .and_then(Option::take)
                .ok_or(SimError::NoSuchAddressSpace(asid.0))?
        };
        for (_, pte) in space.iter() {
            if let Some(pfn) = pte.pfn {
                self.phys.free_frame(pfn);
            }
        }
        Ok(space)
    }

    /// Register a page-fault handler at the end of the chain.
    pub fn register_fault_handler(&self, h: Arc<dyn FaultHandler>) {
        self.handlers.write().push(h);
    }

    /// Run `f` with a shared view of the address space.
    pub fn with_space<R>(&self, asid: AsId, f: impl FnOnce(&AddressSpace) -> R) -> SimResult<R> {
        let spaces = self.spaces.read();
        let space = spaces
            .get(asid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(SimError::NoSuchAddressSpace(asid.0))?;
        Ok(f(space))
    }

    /// Run `f` with a mutable view of the address space.
    pub fn with_space_mut<R>(
        &self,
        asid: AsId,
        f: impl FnOnce(&mut AddressSpace) -> R,
    ) -> SimResult<R> {
        let mut spaces = self.spaces.write();
        let space = spaces
            .get_mut(asid.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(SimError::NoSuchAddressSpace(asid.0))?;
        Ok(f(space))
    }

    /// Install a PTE; charges the PTE-update cost and shoots down the TLB.
    pub fn map_page(&self, asid: AsId, vaddr: u64, pte: Pte) -> SimResult<()> {
        let vpn = vaddr >> PAGE_SHIFT;
        self.with_space_mut(asid, |s| s.map(vpn, pte))?;
        self.tlb.invalidate(asid, vpn);
        self.clock.charge_sys(self.cost.pte_update);
        Ok(())
    }

    /// Allocate a zeroed frame and map it read-write at `vaddr`.
    pub fn map_anon(&self, asid: AsId, vaddr: u64, flags: PteFlags) -> SimResult<Pfn> {
        if self.faults.should_fail(kfault::sites::KSIM_FRAME_ALLOC) {
            return Err(SimError::OutOfMemory);
        }
        let pfn = self.phys.alloc_frame()?;
        self.map_page(asid, vaddr, Pte { pfn: Some(pfn), flags })?;
        Ok(pfn)
    }

    /// Remove the mapping at `vaddr`, returning the PTE that was there.
    pub fn unmap_page(&self, asid: AsId, vaddr: u64) -> SimResult<Option<Pte>> {
        let vpn = vaddr >> PAGE_SHIFT;
        let pte = self.with_space_mut(asid, |s| s.unmap(vpn))?;
        self.tlb.invalidate(asid, vpn);
        self.clock.charge_sys(self.cost.pte_update);
        Ok(pte)
    }

    /// Change permissions of an existing mapping in place.
    pub fn protect_page(&self, asid: AsId, vaddr: u64, flags: PteFlags) -> SimResult<()> {
        let vpn = vaddr >> PAGE_SHIFT;
        self.with_space_mut(asid, |s| {
            if let Some(mut pte) = s.lookup(vpn) {
                pte.flags = flags;
                s.map(vpn, pte);
                Ok(())
            } else {
                Err(SimError::MemFault {
                    kind: FaultKind::NotPresent,
                    access: AccessKind::Read,
                    vaddr,
                })
            }
        })??;
        self.tlb.invalidate(asid, vpn);
        self.clock.charge_sys(self.cost.pte_update);
        Ok(())
    }

    /// Walk the page table; on success also reports whether the PTE permits
    /// writes (cached in the TLB so later write hits skip the walk).
    fn walk(
        &self,
        asid: AsId,
        vpn: u64,
        access: AccessKind,
    ) -> SimResult<Result<(Pfn, bool), FaultKind>> {
        self.with_space(asid, |s| match s.lookup(vpn) {
            None => Err(FaultKind::NotPresent),
            Some(pte) => {
                if pte.flags.guard {
                    return Err(FaultKind::Guard);
                }
                if !pte.flags.present {
                    return Err(FaultKind::NotPresent);
                }
                let permitted = match access {
                    AccessKind::Read => pte.flags.read,
                    AccessKind::Write => pte.flags.write,
                };
                if !permitted {
                    return Err(FaultKind::Protection);
                }
                pte.pfn.map(|p| (p, pte.flags.write)).ok_or(FaultKind::NotPresent)
            }
        })
    }

    /// Translate one page, taking faults through the handler chain.
    ///
    /// The TLB hit is inlined into callers (it runs once per simulated
    /// memory access); a miss takes the out-of-line `translate_miss`.
    #[inline]
    pub fn translate(&self, asid: AsId, vaddr: u64, access: AccessKind) -> SimResult<Pfn> {
        let vpn = vaddr >> PAGE_SHIFT;
        if let Some(pfn) = self.tlb.lookup(asid, vpn, access) {
            self.clock.charge_sys(self.cost.tlb_hit);
            return Ok(pfn);
        }
        self.translate_miss(asid, vaddr, access)
    }

    /// The TLB-miss half of [`Self::translate`]: walk the page table and
    /// fill the TLB. Retries after a handler reports
    /// [`FaultResolution::Retry`], bounded to keep a buggy handler from
    /// looping the simulator forever.
    #[cold]
    #[inline(never)]
    fn translate_miss(&self, asid: AsId, vaddr: u64, access: AccessKind) -> SimResult<Pfn> {
        let vpn = vaddr >> PAGE_SHIFT;
        self.clock.charge_sys(self.cost.tlb_miss);
        // Injected TLB-fill failure: surfaces as a spurious memory fault
        // without consulting the handler chain (a hardware-level error, not
        // a page-table condition a handler could fix).
        if self.faults.should_fail(kfault::sites::KSIM_TLB_FILL) {
            return Err(SimError::MemFault { kind: FaultKind::NotPresent, access, vaddr });
        }

        const MAX_FAULT_RETRIES: usize = 8;
        for _ in 0..=MAX_FAULT_RETRIES {
            match self.walk(asid, vpn, access)? {
                Ok((pfn, write_ok)) => {
                    self.tlb.insert(asid, vpn, pfn, write_ok);
                    return Ok(pfn);
                }
                Err(kind) => {
                    self.clock.charge_sys(self.cost.page_fault);
                    self.stats.page_faults.fetch_add(1, Relaxed);
                    if kind == FaultKind::Guard {
                        self.stats.guard_hits.fetch_add(1, Relaxed);
                    }
                    let fault = Fault { asid, vaddr, access, kind };
                    match self.dispatch_fault(&fault) {
                        FaultResolution::Retry => continue,
                        FaultResolution::Deny | FaultResolution::NotMine => {
                            return Err(SimError::MemFault { kind, access, vaddr });
                        }
                    }
                }
            }
        }
        Err(SimError::MemFault {
            kind: FaultKind::NotPresent,
            access,
            vaddr,
        })
    }

    fn dispatch_fault(&self, fault: &Fault) -> FaultResolution {
        let handlers: Vec<_> = self.handlers.read().clone();
        for h in handlers {
            match h.handle(self, fault) {
                FaultResolution::NotMine => continue,
                r => return r,
            }
        }
        FaultResolution::NotMine
    }

    /// Read `buf.len()` bytes from `vaddr` in `asid`.
    pub fn read_virt(&self, asid: AsId, vaddr: u64, buf: &mut [u8]) -> SimResult<()> {
        let off = (vaddr as usize) & (PAGE_SIZE - 1);
        if !buf.is_empty() && buf.len() <= PAGE_SIZE - off {
            // Single-page fast path: one translation, one frame copy.
            let pfn = self.translate(asid, vaddr, AccessKind::Read)?;
            self.phys.read_frame(pfn, off, buf);
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let off = (va as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            let pfn = self.translate(asid, va, AccessKind::Read)?;
            self.phys.read_frame(pfn, off, &mut buf[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }

    /// Write `buf` to `vaddr` in `asid`.
    pub fn write_virt(&self, asid: AsId, vaddr: u64, buf: &[u8]) -> SimResult<()> {
        let off = (vaddr as usize) & (PAGE_SIZE - 1);
        if !buf.is_empty() && buf.len() <= PAGE_SIZE - off {
            let pfn = self.translate(asid, vaddr, AccessKind::Write)?;
            self.phys.write_frame(pfn, off, buf);
            return Ok(());
        }
        let mut done = 0usize;
        while done < buf.len() {
            let va = vaddr + done as u64;
            let off = (va as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - off).min(buf.len() - done);
            let pfn = self.translate(asid, va, AccessKind::Write)?;
            self.phys.write_frame(pfn, off, &buf[done..done + chunk]);
            done += chunk;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MemSys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSys")
            .field("frames_allocated", &self.phys.allocated())
            .field("tlb_hits", &self.tlb.hits())
            .field("tlb_misses", &self.tlb.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memsys(frames: usize) -> MemSys {
        MemSys::new(
            frames,
            CostModel::default(),
            Arc::new(Clock::new()),
            Arc::new(Stats::default()),
            Arc::new(kfault::FaultPlane::new()),
        )
    }

    #[test]
    fn frame_alloc_free_roundtrip() {
        let phys = PhysMemory::new(4);
        let a = phys.alloc_frame().unwrap();
        let b = phys.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(phys.allocated(), 2);
        phys.write_frame(a, 0, &[0xAB]);
        let mut b0 = [0u8; 1];
        phys.read_frame(a, 0, &mut b0);
        assert_eq!(b0[0], 0xAB);
        phys.free_frame(a);
        assert_eq!(phys.allocated(), 1);
        // Freed frames are reusable — and zeroed again on alloc.
        let c = phys.alloc_frame().unwrap();
        phys.read_frame(c, 0, &mut b0);
        assert_eq!(b0[0], 0, "frames are zeroed on alloc");
        assert_eq!(phys.high_water(), 2);
    }

    #[test]
    fn frame_pool_exhaustion_is_an_error() {
        let phys = PhysMemory::new(2);
        phys.alloc_frame().unwrap();
        phys.alloc_frame().unwrap();
        assert!(phys.alloc_frame().is_err());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let phys = PhysMemory::new(2);
        let a = phys.alloc_frame().unwrap();
        phys.free_frame(a);
        phys.free_frame(a);
    }

    #[test]
    fn map_write_read_across_pages() {
        let m = memsys(8);
        let asid = m.create_space();
        let base = 0x10_0000u64;
        m.map_anon(asid, base, PteFlags::rw()).unwrap();
        m.map_anon(asid, base + PAGE_SIZE as u64, PteFlags::rw()).unwrap();
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        // Straddles the page boundary.
        m.write_virt(asid, base + 100, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        m.read_virt(asid, base + 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn unmapped_access_faults() {
        let m = memsys(4);
        let asid = m.create_space();
        let mut b = [0u8; 4];
        let err = m.read_virt(asid, 0xdead_0000, &mut b).unwrap_err();
        assert!(matches!(err, SimError::MemFault { kind: FaultKind::NotPresent, .. }));
    }

    #[test]
    fn readonly_page_rejects_writes_but_allows_reads() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_anon(asid, 0x2000, PteFlags::ro()).unwrap();
        let mut b = [0u8; 4];
        m.read_virt(asid, 0x2000, &mut b).unwrap();
        let err = m.write_virt(asid, 0x2000, &b).unwrap_err();
        assert!(matches!(err, SimError::MemFault { kind: FaultKind::Protection, .. }));
    }

    #[test]
    fn guard_pte_raises_guard_fault_and_counts_it() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_page(asid, 0x3000, Pte { pfn: None, flags: PteFlags::guardian() })
            .unwrap();
        let mut b = [0u8; 1];
        let err = m.read_virt(asid, 0x3000, &mut b).unwrap_err();
        assert!(matches!(err, SimError::MemFault { kind: FaultKind::Guard, .. }));
    }

    struct AutoMapper;
    impl FaultHandler for AutoMapper {
        fn handle(&self, mem: &MemSys, fault: &Fault) -> FaultResolution {
            if fault.kind == FaultKind::NotPresent {
                mem.map_anon(fault.asid, fault.vaddr, PteFlags::rw()).unwrap();
                FaultResolution::Retry
            } else {
                FaultResolution::NotMine
            }
        }
    }

    #[test]
    fn fault_handler_can_resolve_demand_paging() {
        let m = memsys(8);
        let asid = m.create_space();
        m.register_fault_handler(Arc::new(AutoMapper));
        // No explicit mapping: handler demand-maps on first touch.
        m.write_virt(asid, 0x8000, &[1, 2, 3]).unwrap();
        let mut b = [0u8; 3];
        m.read_virt(asid, 0x8000, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3]);
    }

    struct Denier;
    impl FaultHandler for Denier {
        fn handle(&self, _mem: &MemSys, fault: &Fault) -> FaultResolution {
            if fault.kind == FaultKind::Guard {
                FaultResolution::Deny
            } else {
                FaultResolution::NotMine
            }
        }
    }

    #[test]
    fn handler_chain_ordering_first_claim_wins() {
        let m = memsys(8);
        let asid = m.create_space();
        m.register_fault_handler(Arc::new(Denier));
        m.register_fault_handler(Arc::new(AutoMapper));
        // Guard fault: Denier claims and denies.
        m.map_page(asid, 0x3000, Pte { pfn: None, flags: PteFlags::guardian() })
            .unwrap();
        let mut b = [0u8; 1];
        assert!(m.read_virt(asid, 0x3000, &mut b).is_err());
        // NotPresent fault: Denier passes, AutoMapper resolves.
        assert!(m.read_virt(asid, 0x9000, &mut b).is_ok());
    }

    #[test]
    fn tlb_hits_after_first_walk() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_anon(asid, 0x4000, PteFlags::rw()).unwrap();
        let mut b = [0u8; 1];
        m.read_virt(asid, 0x4000, &mut b).unwrap();
        let misses_after_first = m.tlb.misses();
        m.read_virt(asid, 0x4000, &mut b).unwrap();
        m.read_virt(asid, 0x4000, &mut b).unwrap();
        assert_eq!(m.tlb.misses(), misses_after_first, "subsequent accesses hit");
        assert!(m.tlb.hits() >= 2);
    }

    #[test]
    fn tlb_invalidated_on_unmap() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_anon(asid, 0x4000, PteFlags::rw()).unwrap();
        let mut b = [0u8; 1];
        m.read_virt(asid, 0x4000, &mut b).unwrap();
        let pte = m.unmap_page(asid, 0x4000).unwrap().unwrap();
        m.phys.free_frame(pte.pfn.unwrap());
        assert!(m.read_virt(asid, 0x4000, &mut b).is_err(), "stale TLB entry used");
    }

    #[test]
    fn destroy_space_releases_frames() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_anon(asid, 0x1000, PteFlags::rw()).unwrap();
        m.map_anon(asid, 0x2000, PteFlags::rw()).unwrap();
        assert_eq!(m.phys.allocated(), 2);
        m.destroy_space(asid).unwrap();
        assert_eq!(m.phys.allocated(), 0);
        assert!(m.with_space(asid, |_| ()).is_err());
    }

    #[test]
    fn protect_page_changes_permissions() {
        let m = memsys(4);
        let asid = m.create_space();
        m.map_anon(asid, 0x5000, PteFlags::rw()).unwrap();
        m.write_virt(asid, 0x5000, &[9]).unwrap();
        m.protect_page(asid, 0x5000, PteFlags::ro()).unwrap();
        assert!(m.write_virt(asid, 0x5000, &[9]).is_err());
        let mut b = [0u8; 1];
        m.read_virt(asid, 0x5000, &mut b).unwrap();
        assert_eq!(b[0], 9);
    }
}
