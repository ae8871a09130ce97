//! The dentry cache and its global `dcache_lock`.
//!
//! §3.3: *"we added instrumentation for the dentry cache lock, dcache_lock,
//! which prevents race conditions in file-system name-space operations such
//! as renames. During our benchmark, this lock was hit an average of 8,805
//! times a second."* The lock here is a `kevents::InstrumentedSpinLock`, so
//! experiment E6 can attach the dispatcher and reproduce exactly that
//! measurement ladder.
//!
//! # Epoch-based read path (SMP)
//!
//! On a multi-CPU machine the dcache_lock is the single hottest shared
//! line in path resolution: every component of every `open` bounces it.
//! Lookups therefore go through an `EpochTable` first — a fixed-size
//! open-addressed array of atomic slots validated by a global seqlock
//! epoch. Readers load the epoch (must be even), probe with plain atomic
//! loads, and re-check the epoch; any concurrent write forces a fall-back
//! to the locked path, so a **lookup hit takes no lock and charges no
//! spinlock cycles**. All mutation happens under the existing dcache_lock
//! (single writer), which bumps the epoch odd around the write. Misses,
//! probe-chain overflows, and epoch races fall back to the authoritative
//! map under the lock, so the table is purely an accelerator — it can
//! never invent or lose an entry.
//!
//! When a dispatcher is attached (E6), the fast path is disabled so the
//! monitor observes every acquire/release pair, exactly as before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kevents::{EventDispatcher, InstrumentedSpinLock};
use ksim::{FxHashMap, Machine};

use crate::name::Name;

/// Stable event-object identity for the dcache lock (its "address").
pub const DCACHE_LOCK_OBJ: u64 = 0xDCAC_4E10;

/// Slots in the lock-free read table (power of two).
const TABLE_SLOTS: usize = 2048;
/// Linear-probe bound; a chain longer than this leaves the entry
/// map-only (the locked fall-back still finds it).
const PROBE_LIMIT: usize = 16;

/// Slot tag states, packed with the interned name id in the low 32 bits.
const TAG_EMPTY: u64 = 0;
const TAG_OCCUPIED: u64 = 1 << 32;
const TAG_TOMB: u64 = 2 << 32;

struct Slot {
    parent: AtomicU64,
    /// `TAG_EMPTY`, `TAG_TOMB`, or `TAG_OCCUPIED | name.id()`.
    tag: AtomicU64,
    ino: AtomicU64,
}

/// Lock-free read accelerator for the dcache: an open-addressed table of
/// atomic slots guarded by a seqlock-style epoch. Readers never block;
/// writers (who must hold the dcache_lock, making them single-file) bump
/// the epoch odd, mutate, and bump it even again.
struct EpochTable {
    slots: Box<[Slot]>,
    epoch: AtomicU64,
}

fn slot_hash(parent: u64, name: Name) -> usize {
    // Fx-style multiplicative mix of the 12 significant key bytes.
    let k = parent ^ ((name.id() as u64) << 32) ^ name.id() as u64;
    (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
}

impl EpochTable {
    fn new() -> Self {
        EpochTable {
            slots: (0..TABLE_SLOTS)
                .map(|_| Slot {
                    parent: AtomicU64::new(0),
                    tag: AtomicU64::new(TAG_EMPTY),
                    ino: AtomicU64::new(0),
                })
                .collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Lock-free probe. `Some(ino)` only when a matching occupied slot was
    /// read under a stable, even epoch; every other outcome (miss, torn
    /// read, write in progress, chain overflow) returns `None` and the
    /// caller falls back to the locked map.
    fn get(&self, parent: u64, name: Name) -> Option<u64> {
        let e1 = self.epoch.load(Ordering::Acquire);
        if e1 & 1 == 1 {
            return None; // write in progress
        }
        let want = TAG_OCCUPIED | name.id() as u64;
        let mask = self.slots.len() - 1;
        let mut idx = slot_hash(parent, name) & mask;
        for _ in 0..PROBE_LIMIT {
            let slot = &self.slots[idx];
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == TAG_EMPTY {
                return None; // end of chain: not in the table
            }
            if tag == want && slot.parent.load(Ordering::Acquire) == parent {
                let ino = slot.ino.load(Ordering::Acquire);
                // Epoch unchanged ⇒ no writer touched the table while we
                // probed, so (parent, tag, ino) are one consistent entry.
                if self.epoch.load(Ordering::Acquire) == e1 {
                    return Some(ino);
                }
                return None;
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// Run `f` inside an odd-epoch write window. Callers must hold the
    /// dcache_lock: the seqlock protocol assumes a single writer.
    fn write<R>(&self, f: impl FnOnce(&Self) -> R) -> R {
        self.epoch.fetch_add(1, Ordering::AcqRel); // even → odd
        let r = f(self);
        self.epoch.fetch_add(1, Ordering::Release); // odd → even
        r
    }

    /// Insert or update. Silently skipped when the probe chain is full —
    /// the entry then lives only in the authoritative map.
    fn upsert(&self, parent: u64, name: Name, ino: u64) {
        let want = TAG_OCCUPIED | name.id() as u64;
        let mask = self.slots.len() - 1;
        let mut idx = slot_hash(parent, name) & mask;
        let mut free: Option<usize> = None;
        for _ in 0..PROBE_LIMIT {
            let slot = &self.slots[idx];
            let tag = slot.tag.load(Ordering::Relaxed);
            if tag == want && slot.parent.load(Ordering::Relaxed) == parent {
                slot.ino.store(ino, Ordering::Release);
                return;
            }
            if tag == TAG_EMPTY {
                let at = free.unwrap_or(idx);
                let slot = &self.slots[at];
                slot.parent.store(parent, Ordering::Release);
                slot.ino.store(ino, Ordering::Release);
                slot.tag.store(want, Ordering::Release);
                return;
            }
            if tag == TAG_TOMB && free.is_none() {
                free = Some(idx);
            }
            idx = (idx + 1) & mask;
        }
        if let Some(at) = free {
            let slot = &self.slots[at];
            slot.parent.store(parent, Ordering::Release);
            slot.ino.store(ino, Ordering::Release);
            slot.tag.store(want, Ordering::Release);
        }
    }

    /// Tombstone one entry, if present in the table.
    fn remove(&self, parent: u64, name: Name) {
        let want = TAG_OCCUPIED | name.id() as u64;
        let mask = self.slots.len() - 1;
        let mut idx = slot_hash(parent, name) & mask;
        for _ in 0..PROBE_LIMIT {
            let slot = &self.slots[idx];
            let tag = slot.tag.load(Ordering::Relaxed);
            if tag == TAG_EMPTY {
                return;
            }
            if tag == want && slot.parent.load(Ordering::Relaxed) == parent {
                slot.tag.store(TAG_TOMB, Ordering::Release);
                return;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Tombstone every entry under `parent`.
    fn remove_parent(&self, parent: u64) {
        for slot in self.slots.iter() {
            if slot.tag.load(Ordering::Relaxed) & TAG_OCCUPIED != 0
                && slot.parent.load(Ordering::Relaxed) == parent
            {
                slot.tag.store(TAG_TOMB, Ordering::Release);
            }
        }
    }

    /// Reset every slot to empty.
    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.tag.store(TAG_EMPTY, Ordering::Release);
        }
    }
}

/// The authoritative name map, under the one dcache_lock.
#[derive(Default)]
struct DcacheInner {
    map: FxHashMap<(u64, Name), u64>,
}

/// Name-lookup cache: `(parent ino, interned name) → child ino`.
///
/// Keys are `(u64, Name)` — the name bytes were hashed once at intern
/// time, so a lookup hashes 12 fixed bytes with the Fx mix and never
/// allocates. The `&str` convenience methods intern on the way in; the
/// resolution hot loop in [`crate::vfs::Vfs`] interns each component once
/// and uses the `*_name` variants directly.
pub struct DentryCache {
    lock: InstrumentedSpinLock<DcacheInner>,
    table: EpochTable,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DentryCache {
    pub fn new(machine: Arc<Machine>) -> Self {
        DentryCache {
            lock: InstrumentedSpinLock::new(
                machine,
                DcacheInner::default(),
                DCACHE_LOCK_OBJ,
                "fs/dcache.c",
                324,
            ),
            table: EpochTable::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Attach or detach event instrumentation on the dcache_lock. While a
    /// dispatcher is attached the lock-free read path is bypassed, so
    /// monitors see every lookup's acquire/release.
    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        self.lock.set_dispatcher(d);
    }

    /// Cached lookup of `name` in `parent`.
    pub fn lookup(&self, parent: u64, name: &str) -> Option<u64> {
        self.lookup_name(parent, Name::intern(name))
    }

    /// [`Self::lookup`] with a pre-interned name. Hits resolve through the
    /// epoch table without touching the dcache_lock (unless instrumented).
    pub fn lookup_name(&self, parent: u64, name: Name) -> Option<u64> {
        if !self.lock.is_instrumented() {
            if let Some(ino) = self.table.get(parent, name) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(ino);
            }
        }
        let inner = self.lock.lock();
        match inner.map.get(&(parent, name)).copied() {
            Some(ino) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(ino)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Populate after a successful file-system lookup.
    pub fn insert(&self, parent: u64, name: &str, ino: u64) {
        self.insert_name(parent, Name::intern(name), ino);
    }

    /// [`Self::insert`] with a pre-interned name.
    pub fn insert_name(&self, parent: u64, name: Name, ino: u64) {
        let mut inner = self.lock.lock();
        inner.map.insert((parent, name), ino);
        self.table.write(|t| t.upsert(parent, name, ino));
    }

    /// Invalidate one entry (unlink, rename source/target).
    pub fn remove(&self, parent: u64, name: &str) {
        let name = Name::intern(name);
        let mut inner = self.lock.lock();
        inner.map.remove(&(parent, name));
        self.table.write(|t| t.remove(parent, name));
    }

    /// Invalidate everything under a directory (rmdir, recursive ops).
    pub fn invalidate_dir(&self, parent: u64) {
        let mut inner = self.lock.lock();
        inner.map.retain(|(p, _), _| *p != parent);
        self.table.write(|t| t.remove_parent(parent));
    }

    /// Drop the whole cache.
    pub fn clear(&self) {
        let mut inner = self.lock.lock();
        inner.map.clear();
        self.table.write(|t| t.clear());
    }

    /// (cache hits, cache misses).
    pub fn counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for DentryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, m) = self.counters();
        f.debug_struct("DentryCache")
            .field("hits", &h)
            .field("misses", &m)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kevents::BalanceMonitor;
    use ksim::MachineConfig;

    fn dcache() -> DentryCache {
        DentryCache::new(Arc::new(Machine::new(MachineConfig::default())))
    }

    #[test]
    fn miss_then_hit() {
        let d = dcache();
        assert_eq!(d.lookup(1, "a"), None);
        d.insert(1, "a", 42);
        assert_eq!(d.lookup(1, "a"), Some(42));
        assert_eq!(d.counters(), (1, 1));
    }

    #[test]
    fn remove_and_invalidate_dir() {
        let d = dcache();
        d.insert(1, "a", 2);
        d.insert(1, "b", 3);
        d.insert(9, "c", 4);
        d.remove(1, "a");
        assert_eq!(d.lookup(1, "a"), None);
        d.invalidate_dir(1);
        assert_eq!(d.lookup(1, "b"), None);
        assert_eq!(d.lookup(9, "c"), Some(4));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.lookup(9, "c"), None, "clear must purge the fast table too");
    }

    #[test]
    fn same_name_different_parents_are_distinct() {
        let d = dcache();
        d.insert(1, "x", 10);
        d.insert(2, "x", 20);
        assert_eq!(d.lookup(1, "x"), Some(10));
        assert_eq!(d.lookup(2, "x"), Some(20));
    }

    #[test]
    fn dcache_lock_events_flow_to_monitor() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let d = DentryCache::new(m.clone());
        let disp = Arc::new(EventDispatcher::new(m));
        let mon = Arc::new(BalanceMonitor::spinlock());
        disp.register(mon.clone());
        d.set_dispatcher(Some(disp));
        d.insert(1, "a", 2);
        d.lookup(1, "a");
        d.remove(1, "a");
        assert_eq!(mon.opens(), 3, "every dcache op hits the lock");
        assert!(mon.violations().is_empty());
        assert!(mon.outstanding().is_empty());
    }

    #[test]
    fn lookup_hit_takes_no_lock_and_charges_no_cycles() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let d = DentryCache::new(m.clone());
        d.insert(1, "hot", 77);
        let before = m.clock.sys_cycles();
        for _ in 0..100 {
            assert_eq!(d.lookup(1, "hot"), Some(77));
        }
        assert_eq!(
            m.clock.sys_cycles(),
            before,
            "epoch-table hits must not charge the spinlock cost"
        );
        // A miss still goes through the lock and pays for it.
        assert_eq!(d.lookup(1, "cold"), None);
        assert!(m.clock.sys_cycles() > before);
    }

    #[test]
    fn instrumented_lookups_bypass_the_fast_table() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let d = DentryCache::new(m.clone());
        d.insert(1, "a", 2);
        let disp = Arc::new(EventDispatcher::new(m.clone()));
        let mon = Arc::new(BalanceMonitor::spinlock());
        disp.register(mon.clone());
        d.set_dispatcher(Some(disp));
        assert_eq!(d.lookup(1, "a"), Some(2));
        assert_eq!(mon.opens(), 1, "instrumented hit must take the real lock");
        d.set_dispatcher(None);
        let before = m.clock.sys_cycles();
        assert_eq!(d.lookup(1, "a"), Some(2));
        assert_eq!(m.clock.sys_cycles(), before, "fast path resumes after detach");
    }

    #[test]
    fn probe_chain_overflow_falls_back_to_the_map() {
        let d = dcache();
        // Far more entries than the table can hold forces chain overflows;
        // every entry must still resolve via the locked fall-back.
        let n = (TABLE_SLOTS * 2) as u64;
        for i in 0..n {
            d.insert(i % 7, &format!("f{i}"), 1000 + i);
        }
        for i in 0..n {
            assert_eq!(d.lookup(i % 7, &format!("f{i}")), Some(1000 + i));
        }
    }

    #[test]
    fn concurrent_readers_never_see_torn_entries() {
        let d = Arc::new(dcache());
        d.insert(1, "flip", 10);
        let stop = Arc::new(AtomicU64::new(0));
        let start = Arc::new(std::sync::Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = d.clone();
                let stop = stop.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    start.wait();
                    // Check `stop` only after a read: on a single-core host
                    // the writer can finish before a reader is rescheduled,
                    // and every reader must still observe at least once.
                    let mut seen = 0u64;
                    loop {
                        match d.lookup(1, "flip") {
                            Some(10) | None => seen += 1,
                            Some(other) => panic!("torn read: ino {other}"),
                        }
                        if stop.load(Ordering::Relaxed) != 0 {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        start.wait();
        for _ in 0..20_000 {
            d.remove(1, "flip");
            d.insert(1, "flip", 10);
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}
