//! A fast, non-cryptographic hasher for the simulator's hot-path maps.
//!
//! The default `std` hasher (SipHash 1-3) is keyed against HashDoS — a
//! property none of the simulator's internal tables need: keys are inode
//! numbers, descriptor indexes, interned symbols, and block addresses, all
//! generated by the simulator itself. The one table keyed on bytes a
//! (simulated) user chooses, [`ByteCache`], bounds what crafted collisions
//! can cost with its per-owner budget instead: however an owner's keys
//! collide, they share at most 256 entries. The multiply-rotate mix below
//! (the Firefox/rustc "Fx" construction) hashes a `u64` key in a couple of
//! cycles, which matters on paths consulted per simulated syscall (dcache,
//! fd tables, socket tables, the page cache).
//!
//! Determinism: the hash of a given key is a pure function of its bytes —
//! no per-process random state — so map *iteration* order is stable across
//! runs. Nothing observable may depend on iteration order anyway (memfs
//! directories keep a `BTreeMap` precisely because `readdir` is sorted),
//! but stability keeps accidental order dependencies from flaking.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Zero-state builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher (the rustc/Firefox construction).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" differ.
            tail[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// FNV-1a over a byte string: the one-word digest with published
/// reference vectors that `VfsSnapshot` hashes and the A8/A13 sweep hashes
/// are built on (the fault plane, below ksim, keeps its own copy of the
/// same function). It consumes one byte per multiply, which is why
/// [`ByteCache`] keys and kjfs's on-disk checksums hash with [`FxHasher`]
/// a word at a time instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a digest `h` over more bytes (start from
/// `fnv1a(&[])`): the digest of several slices is the digest of their
/// concatenation.
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Most entries one owner may keep in a [`ByteCache`].
const OWNER_MAX_ENTRIES: usize = 256;
/// Most key bytes one owner may keep in a [`ByteCache`] (1 MiB).
const OWNER_MAX_BYTES: usize = 1 << 20;

/// Bucket hash of a cache key: [`FxHasher`] a word at a time, length
/// folded in.
fn key_hash(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(bytes.len());
    h.write(bytes);
    h.finish()
}

/// One cached translation: the exact input bytes plus the value derived
/// from them.
#[derive(Debug)]
pub struct ByteCacheEntry<V> {
    bytes: Vec<u8>,
    value: V,
    hash: u64,
    /// CLOCK's referenced bit: set by [`ByteCache::lookup`], cleared as
    /// the owner's hand passes.
    referenced: AtomicBool,
}

impl<V> ByteCacheEntry<V> {
    /// The exact bytes this entry was keyed on.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The cached derived value.
    pub fn value(&self) -> &V {
        &self.value
    }
}

/// Hit/miss/eviction counters, snapshotted by [`ByteCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
}

/// One owner's entries in CLOCK order, with its share of the budget.
#[derive(Debug)]
struct OwnerClock<V> {
    ring: Vec<Arc<ByteCacheEntry<V>>>,
    hand: usize,
    bytes: usize,
}

impl<V> Default for OwnerClock<V> {
    fn default() -> Self {
        OwnerClock { ring: Vec::new(), hand: 0, bytes: 0 }
    }
}

impl<V> OwnerClock<V> {
    fn over_budget(&self, incoming: usize) -> bool {
        self.ring.len() >= OWNER_MAX_ENTRIES || self.bytes + incoming > OWNER_MAX_BYTES
    }

    /// Second chance: sweep from the hand, clearing referenced bits, and
    /// remove the first entry whose bit was already clear. Ends within one
    /// lap of the ring, since lookups (which set bits) hold the read lock
    /// and cannot run meanwhile.
    fn evict(&mut self) -> Arc<ByteCacheEntry<V>> {
        loop {
            if self.ring[self.hand].referenced.swap(false, Relaxed) {
                self.hand = (self.hand + 1) % self.ring.len();
                continue;
            }
            let victim = self.ring.remove(self.hand);
            if self.hand == self.ring.len() {
                self.hand = 0;
            }
            self.bytes -= victim.bytes.len();
            return victim;
        }
    }

    /// Place `entry` just behind the hand: the last slot the next sweep
    /// reaches.
    fn admit(&mut self, entry: Arc<ByteCacheEntry<V>>) {
        self.bytes += entry.bytes.len();
        self.ring.insert(self.hand, entry);
        self.hand = (self.hand + 1) % self.ring.len();
    }
}

#[derive(Debug)]
struct Shelves<V> {
    buckets: FxHashMap<u64, Vec<Arc<ByteCacheEntry<V>>>>,
    owners: FxHashMap<u64, OwnerClock<V>>,
}

impl<V> Default for Shelves<V> {
    fn default() -> Self {
        Shelves { buckets: FxHashMap::default(), owners: FxHashMap::default() }
    }
}

impl<V> Shelves<V> {
    fn find(&self, hash: u64, bytes: &[u8]) -> Option<&Arc<ByteCacheEntry<V>>> {
        self.buckets.get(&hash)?.iter().find(|e| e.bytes == bytes)
    }
}

/// A translation cache keyed on raw input bytes: an [`FxHasher`] digest
/// picks the bucket, byte-for-byte equality confirms the entry, so hash
/// collisions can never alias two different inputs. The pattern Cosy
/// introduced for compound decode+validate — do work whose outcome is a
/// pure function of the input bytes once, and share the result —
/// generalised so kprog can cache verified programs the same way.
///
/// Lookups are shared, but every entry is charged to the owner that
/// inserted it (Cosy: the submitting pid), and each owner may keep at most
/// 256 entries and 1 MiB of key bytes. At budget, a CLOCK (second-chance)
/// hand over that owner's entries evicts the first one not looked up since
/// the hand last passed, so a flood of one-off inputs from one process
/// costs a bounded amount of kernel memory and never displaces another
/// process's entries. A key larger than the whole byte budget is
/// translated but not kept. Evicted entries stay alive through their
/// `Arc` for whoever still holds them.
///
/// A hit is counted by [`ByteCache::lookup`]; a miss only by
/// [`ByteCache::insert`], so a failed translation (which is never cached)
/// is neither.
#[derive(Debug)]
pub struct ByteCache<V> {
    shelves: RwLock<Shelves<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> Default for ByteCache<V> {
    fn default() -> Self {
        ByteCache {
            shelves: RwLock::new(Shelves::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl<V> ByteCache<V> {
    pub fn new() -> Self {
        ByteCache::default()
    }

    /// Look up previously translated bytes; counts a hit and sets the
    /// entry's referenced bit on success.
    pub fn lookup(&self, bytes: &[u8]) -> Option<Arc<ByteCacheEntry<V>>> {
        let hash = key_hash(bytes);
        let shelves = self.shelves.read();
        let entry = shelves.find(hash, bytes)?;
        if !entry.referenced.load(Relaxed) {
            entry.referenced.store(true, Relaxed);
        }
        self.hits.fetch_add(1, Relaxed);
        Some(entry.clone())
    }

    /// Record a successful translation on `owner`'s budget, evicting that
    /// owner's coldest entries to make room; counts a miss. Returns the
    /// shared entry (the one already present, if a racing caller inserted
    /// first).
    pub fn insert(&self, owner: u64, bytes: Vec<u8>, value: V) -> Arc<ByteCacheEntry<V>> {
        self.misses.fetch_add(1, Relaxed);
        let hash = key_hash(&bytes);
        let entry =
            Arc::new(ByteCacheEntry { bytes, value, hash, referenced: AtomicBool::new(false) });
        if entry.bytes.len() > OWNER_MAX_BYTES {
            return entry;
        }
        let mut guard = self.shelves.write();
        if let Some(e) = guard.find(hash, &entry.bytes) {
            return e.clone();
        }
        let Shelves { buckets, owners } = &mut *guard;
        let clock = owners.entry(owner).or_default();
        while clock.over_budget(entry.bytes.len()) {
            let victim = clock.evict();
            let bucket = buckets.get_mut(&victim.hash).expect("every kept entry is bucketed");
            bucket.retain(|e| !Arc::ptr_eq(e, &victim));
            if bucket.is_empty() {
                buckets.remove(&victim.hash);
            }
            self.evictions.fetch_add(1, Relaxed);
        }
        clock.admit(entry.clone());
        buckets.entry(hash).or_default().push(entry.clone());
        entry
    }

    pub fn stats(&self) -> ByteCacheStats {
        ByteCacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            entries: self.shelves.read().owners.values().map(|c| c.ring.len()).sum(),
        }
    }

    /// Drop every entry (counters keep accumulating; a clear is not an
    /// eviction).
    pub fn clear(&self) {
        *self.shelves.write() = Shelves::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(bytes: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn distinct_keys_hash_differently() {
        assert_ne!(hash_of(b"a"), hash_of(b"b"));
        assert_ne!(hash_of(b"ab"), hash_of(b"ab\0"));
        assert_ne!(hash_of(b"12345678"), hash_of(b"123456789"));
        let mut h1 = FxHasher::default();
        h1.write_u64(7);
        let mut h2 = FxHasher::default();
        h2.write_u64(8);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn maps_behave_like_std() {
        let mut m: FxHashMap<(u64, u32), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i, (i * 7) as u32), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i, (i * 7) as u32)), Some(&i));
        }
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(&42));
    }

    #[test]
    fn byte_cache_miss_then_hit() {
        let cache: ByteCache<u64> = ByteCache::new();
        assert!(cache.lookup(b"key").is_none());
        cache.insert(0, b"key".to_vec(), 7);
        let e = cache.lookup(b"key").expect("must hit after insert");
        assert_eq!(*e.value(), 7);
        assert_eq!(e.bytes(), b"key");
        assert_eq!(cache.stats(), ByteCacheStats { hits: 1, misses: 1, evictions: 0, entries: 1 });
    }

    #[test]
    fn byte_cache_dedups_racing_inserts() {
        let cache: ByteCache<u64> = ByteCache::new();
        let a = cache.insert(0, b"k".to_vec(), 1);
        let b = cache.insert(1, b"k".to_vec(), 2);
        assert!(Arc::ptr_eq(&a, &b), "second insert returns the first entry");
        assert_eq!(*b.value(), 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn byte_cache_clear_keeps_counters() {
        let cache: ByteCache<u64> = ByteCache::new();
        cache.insert(0, b"x".to_vec(), 1);
        assert!(cache.lookup(b"x").is_some());
        cache.clear();
        assert!(cache.lookup(b"x").is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 0));
    }

    /// Distinct 16-byte keys (the index in the first word).
    fn key(i: u64) -> Vec<u8> {
        let mut k = i.to_le_bytes().to_vec();
        k.extend_from_slice(b"compound");
        k
    }

    /// `(entries, key bytes)` charged to `owner`.
    fn usage<V>(cache: &ByteCache<V>, owner: u64) -> (usize, usize) {
        let shelves = cache.shelves.read();
        shelves.owners.get(&owner).map_or((0, 0), |c| (c.ring.len(), c.bytes))
    }

    #[test]
    fn hot_key_survives_a_flood_of_one_off_inserts() {
        let cache: ByteCache<u64> = ByteCache::new();
        cache.insert(1, b"hot".to_vec(), 0);
        let flood = 100 * OWNER_MAX_ENTRIES as u64;
        for i in 0..flood {
            if i % 32 == 0 {
                assert!(cache.lookup(b"hot").is_some(), "hot key evicted after {i} inserts");
            }
            cache.insert(1, key(i), i);
        }
        let s = cache.stats();
        assert_eq!(s.misses, flood + 1, "the hot key never missed again");
        assert_eq!(s.hits, flood / 32);
        assert_eq!(s.entries, OWNER_MAX_ENTRIES);
    }

    #[test]
    fn one_owners_flood_evicts_nothing_of_another() {
        let cache: ByteCache<u64> = ByteCache::new();
        for i in 0..100 {
            cache.insert(7, key(1_000_000 + i), i);
        }
        for i in 0..20 * OWNER_MAX_ENTRIES as u64 {
            cache.insert(8, key(i), i);
        }
        for i in 0..100 {
            assert_eq!(*cache.lookup(&key(1_000_000 + i)).unwrap().value(), i);
        }
        assert_eq!(usage(&cache, 7), (100, 100 * 16));
        assert_eq!(usage(&cache, 8).0, OWNER_MAX_ENTRIES);
    }

    #[test]
    fn oversized_key_is_translated_but_not_kept() {
        let cache: ByteCache<u64> = ByteCache::new();
        cache.insert(1, b"small".to_vec(), 1);
        let big = vec![0xa5u8; OWNER_MAX_BYTES + 1];
        let e = cache.insert(1, big.clone(), 2);
        assert_eq!(*e.value(), 2, "the caller still gets its translation");
        assert!(cache.lookup(&big).is_none());
        assert!(cache.lookup(b"small").is_some(), "nothing evicted to make room");
        let s = cache.stats();
        assert_eq!((s.misses, s.evictions, s.entries), (2, 0, 1));
        assert_eq!(usage(&cache, 1), (1, 5));
    }

    #[test]
    fn every_insert_leaves_each_owner_within_budget() {
        let cache: ByteCache<u64> = ByteCache::new();
        // Key sizes cycle through small and page-sized, so both the entry
        // cap and the byte cap bind at different times.
        let sizes = [16usize, 4096, 40, 9000, 300_000, 8];
        for i in 0..3_000u64 {
            let owner = i % 3;
            let mut k = key(i);
            k.resize(sizes[i as usize % sizes.len()], (i % 251) as u8);
            cache.insert(owner, k, i);
            if i % 5 == 0 {
                cache.lookup(&key(i.saturating_sub(3)));
            }
            for o in 0..3 {
                let (n, bytes) = usage(&cache, o);
                assert!(n <= OWNER_MAX_ENTRIES, "owner {o}: {n} entries");
                assert!(bytes <= OWNER_MAX_BYTES, "owner {o}: {bytes} key bytes");
            }
            let shelves = cache.shelves.read();
            let bucketed: usize = shelves.buckets.values().map(Vec::len).sum();
            assert_eq!(bucketed, cache_entries(&shelves), "buckets and clocks agree");
        }
    }

    fn cache_entries<V>(shelves: &Shelves<V>) -> usize {
        shelves.owners.values().map(|c| c.ring.len()).sum()
    }

    #[test]
    fn evictions_are_counted_exactly() {
        let cache: ByteCache<u64> = ByteCache::new();
        let n = 3 * OWNER_MAX_ENTRIES as u64 + 17;
        for i in 0..n {
            cache.insert(1, key(i), i);
        }
        let s = cache.stats();
        assert_eq!(s.evictions, n - OWNER_MAX_ENTRIES as u64);
        assert_eq!(s.entries, OWNER_MAX_ENTRIES);
        // Unreferenced entries leave in insertion order: the newest 256
        // are the ones kept.
        assert!(cache.lookup(&key(n - OWNER_MAX_ENTRIES as u64 - 1)).is_none());
        assert!(cache.lookup(&key(n - OWNER_MAX_ENTRIES as u64)).is_some());

        // The byte cap: four 300 KB keys fit under 1 MiB only three at a
        // time, so the fourth evicts exactly one.
        let bytes: ByteCache<u64> = ByteCache::new();
        for i in 0..4 {
            bytes.insert(2, vec![i; 300_000], i as u64);
        }
        assert_eq!(bytes.stats().evictions, 1);
        assert_eq!(usage(&bytes, 2), (3, 900_000));
    }

    #[test]
    fn evicted_entry_stays_alive_for_its_holder() {
        let cache: ByteCache<u64> = ByteCache::new();
        let held = cache.insert(1, key(0), 42);
        for i in 1..=OWNER_MAX_ENTRIES as u64 {
            cache.insert(1, key(i), i);
        }
        assert!(cache.lookup(&key(0)).is_none(), "the oldest cold entry went first");
        assert_eq!(*held.value(), 42);
        assert_eq!(held.bytes(), &key(0)[..]);
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a 64-bit test vectors: "" and "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_continue(fnv1a(b""), b"a"), fnv1a(b"a"));
    }
}
