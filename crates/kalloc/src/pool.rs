//! Free-list pools for short-lived host objects, sharded per CPU.
//!
//! The simulator's hot paths used to allocate a fresh `Vec<u8>` (or inode
//! body, or ring entry) per operation and drop it microseconds later —
//! pure host-allocator churn that the simulated cost model never sees.
//! These pools are the host-side analogue of the slab allocator one file
//! over: objects are recycled LIFO so the warmest (cache-resident) object
//! is handed out next, and nothing here touches the simulated clock.
//!
//! # Magazines
//!
//! A single spinlocked free list serializes every CPU on one cache line.
//! Each pool therefore fronts the global list with per-CPU **magazines**
//! (indexed by [`ksim::thread_cpu`]): a checkout pops the local magazine,
//! refilling from the global list in a batch only when the magazine is
//! dry; a return pushes locally, draining half the magazine to the global
//! list only when it is full. Uncontended single-CPU behaviour — and all
//! counter values observable from one thread — is unchanged.
//!
//! Leak accounting (`outstanding`, `high_water`) is atomic (fetch-add /
//! fetch-max), fixing the pre-SMP scheme where both were read and written
//! non-atomically relative to the free list: under concurrent magazines
//! the peak could be under-recorded. Hit/miss counters are per-CPU and
//! summed on read.
//!
//! One pool, two shapes:
//!
//! * [`ObjPool`] — arbitrary recycled objects (inode data vectors, socket
//!   byte rings). The caller resets the object; the pool only stores it.
//! * [`BufPool`] — an `ObjPool<Vec<u8>>` of scratch buffers for
//!   user↔kernel copies, plus leak accounting. [`BufPool::take`] returns a
//!   guard that hands the buffer back on drop, so early returns on error
//!   paths cannot leak a buffer.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

use ksim::SpinMutex;

/// Upper bound on idle objects kept in a pool's *global* free list;
/// beyond this, drained returns drop. Each magazine holds up to
/// [`MAG_CAP`] more, so a pool's total idle bound is
/// `MAX_IDLE + MAGS * MAG_CAP`.
const MAX_IDLE: usize = 64;

/// Per-CPU magazine shards. A power of two so the CPU index masks; CPUs
/// beyond the shard count share shards (correct, just more contended).
const MAGS: usize = 8;

/// Objects a magazine holds before draining half to the global list.
const MAG_CAP: usize = 16;

#[inline]
fn shard() -> usize {
    ksim::thread_cpu() & (MAGS - 1)
}

ksim::counters! {
    /// Checkouts that recycled an object (`hits`) or built a fresh one
    /// (`misses`), kept per magazine under its lock and summed on read.
    pub struct PoolStats {
        hits,
        misses,
    }
}

/// One per-CPU front-end free list with its share of the counters.
struct Magazine<T> {
    free: Vec<T>,
    stats: PoolStats,
}

impl<T> Magazine<T> {
    const fn new() -> SpinMutex<Magazine<T>> {
        SpinMutex::new(Magazine { free: Vec::new(), stats: PoolStats { hits: 0, misses: 0 } })
    }
}

/// Free list of recycled objects of one type, magazine-sharded per CPU.
/// [`ObjPool::take`] pops the most recently returned local object (or
/// builds a fresh one); the caller is responsible for resetting it before
/// reuse.
pub struct ObjPool<T> {
    mags: [SpinMutex<Magazine<T>>; MAGS],
    global: SpinMutex<Vec<T>>,
}

impl<T> Default for ObjPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ObjPool<T> {
    pub const fn new() -> Self {
        ObjPool {
            mags: [const { Magazine::new() }; MAGS],
            global: SpinMutex::new(Vec::new()),
        }
    }

    /// Feed this pool's lock contention (global list + every magazine,
    /// aggregated under `name`) into the `ksim::stats` lock table.
    /// Recording happens only on contended acquires, so the uncontended
    /// fast path is unchanged.
    pub fn monitor(&self, name: &'static str) {
        let stats = ksim::register_lock(name);
        self.global.set_contention(stats);
        for mag in &self.mags {
            mag.set_contention(stats);
        }
    }

    /// Pop a recycled object, or build one with `fresh`.
    pub fn take(&self, fresh: impl FnOnce() -> T) -> T {
        {
            let mut mag = self.mags[shard()].lock();
            if let Some(obj) = mag.free.pop() {
                mag.stats.hits += 1;
                return obj;
            }
            // Batch refill: move up to half a magazine's worth from the
            // global list under one global acquire.
            let mut global = self.global.lock();
            let take = (MAG_CAP / 2).min(global.len());
            for _ in 0..take {
                if let Some(obj) = global.pop() {
                    mag.free.push(obj);
                }
            }
            drop(global);
            if let Some(obj) = mag.free.pop() {
                mag.stats.hits += 1;
                return obj;
            }
            mag.stats.misses += 1;
        }
        // Build outside the lock: `fresh` may allocate.
        fresh()
    }

    /// Return an object for reuse; dropped once the lists are full.
    pub fn put(&self, obj: T) {
        let mut mag = self.mags[shard()].lock();
        if mag.free.len() >= MAG_CAP {
            // Batch drain: move the colder half to the global list; the
            // global list drops beyond its own cap.
            let mut global = self.global.lock();
            for _ in 0..MAG_CAP / 2 {
                if let Some(o) = mag.free.pop() {
                    if global.len() < MAX_IDLE {
                        global.push(o);
                    }
                }
            }
        }
        mag.free.push(obj);
    }

    /// Checkout counters, summed across CPUs.
    pub fn stats(&self) -> PoolStats {
        self.mags.iter().fold(PoolStats::default(), |sum, m| {
            let s = m.lock().stats;
            PoolStats { hits: sum.hits + s.hits, misses: sum.misses + s.misses }
        })
    }

    /// Objects idle across the magazines and the global free list.
    pub fn idle(&self) -> usize {
        self.mags.iter().map(|m| m.lock().free.len()).sum::<usize>() + self.global.lock().len()
    }
}

/// Pool of zero-initialised `Vec<u8>` scratch buffers: an
/// [`ObjPool<Vec<u8>>`] plus atomic leak accounting.
///
/// A checkout is one CAS on the local magazine plus the zeroing memset and
/// two relaxed atomics for leak accounting; the global free-list lock is
/// touched only on batch refill/drain.
pub struct BufPool {
    pool: ObjPool<Vec<u8>>,
    outstanding: AtomicI64,
    high_water: AtomicU64,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufPool {
    pub const fn new() -> Self {
        BufPool {
            pool: ObjPool::new(),
            outstanding: AtomicI64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// See [`ObjPool::monitor`].
    pub fn monitor(&self, name: &'static str) {
        self.pool.monitor(name);
    }

    /// Check out a buffer of exactly `len` zeroed bytes. Recycles a
    /// previously returned buffer when one is idle; the guard returns it
    /// on drop.
    pub fn take(&self, len: usize) -> PoolBuf<'_> {
        let now = self.outstanding.fetch_add(1, Relaxed) + 1;
        self.high_water.fetch_max(now.max(0) as u64, Relaxed);
        let mut buf = self.pool.take(Vec::new);
        buf.clear();
        buf.resize(len, 0);
        PoolBuf { pool: self, buf }
    }

    fn put(&self, buf: Vec<u8>) {
        self.outstanding.fetch_sub(1, Relaxed);
        self.pool.put(buf);
    }

    /// Checkout counters, summed across CPUs.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Most buffers ever checked out at once (atomic peak).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Relaxed)
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Relaxed).max(0) as u64
    }

    /// Buffers idle across the magazines and the global free list.
    pub fn idle(&self) -> usize {
        self.pool.idle()
    }

    /// Upper bound on [`BufPool::idle`] (global cap plus full magazines).
    pub const fn idle_bound() -> usize {
        MAX_IDLE + MAGS * MAG_CAP
    }
}

/// A checked-out [`BufPool`] buffer; derefs to `[u8]`, returns on drop.
pub struct PoolBuf<'p> {
    pool: &'p BufPool,
    buf: Vec<u8>,
}

impl Deref for PoolBuf<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for PoolBuf<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for PoolBuf<'_> {
    fn drop(&mut self) {
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_lifo_and_return_on_drop() {
        let pool = BufPool::new();
        {
            let mut a = pool.take(16);
            a[0] = 0xAA;
            assert_eq!(a.len(), 16);
            assert_eq!(pool.outstanding(), 1);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.idle(), 1);
        let b = pool.take(8);
        assert_eq!(&b[..], &[0u8; 8], "recycled buffers come back zeroed");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn high_water_tracks_peak_concurrency() {
        let pool = BufPool::new();
        let a = pool.take(4);
        let b = pool.take(4);
        let c = pool.take(4);
        drop((a, b, c));
        for _ in 0..100 {
            let _one = pool.take(4);
        }
        assert_eq!(pool.high_water(), 3, "steady-state churn never grows the peak");
        assert!(pool.idle() <= 3);
    }

    #[test]
    fn idle_list_is_bounded() {
        let pool = BufPool::new();
        let held: Vec<_> = (0..BufPool::idle_bound() + 100).map(|_| pool.take(1)).collect();
        drop(held);
        assert!(pool.idle() <= BufPool::idle_bound());
        assert!(pool.idle() >= MAX_IDLE, "the bound is a cap, not an eager eviction");
    }

    #[test]
    fn obj_pool_recycles_and_counts() {
        let pool: ObjPool<Vec<u8>> = ObjPool::new();
        let v = pool.take(|| Vec::with_capacity(128));
        let cap = v.capacity();
        pool.put(v);
        let v2 = pool.take(Vec::new);
        assert_eq!(v2.capacity(), cap, "the recycled vec keeps its capacity");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn eight_thread_churn_reaches_equilibrium_without_leaking() {
        use std::sync::Arc;
        // The leak-check satellite: 8 threads, each bound to its own
        // simulated CPU, hammer one pool through overlapping checkouts.
        // At quiescence the atomic accounting must balance exactly and
        // the idle population must respect the documented bound.
        let m = Arc::new(ksim::Machine::new(ksim::MachineConfig::small_free()));
        let pool: Arc<BufPool> = Arc::new(BufPool::new());
        let mut handles = Vec::new();
        for cpu in 0..8 {
            let m = m.clone();
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let _bind = m.bind_cpu(cpu);
                for i in 0..2_000 {
                    let a = pool.take(64 + (i % 7));
                    let b = pool.take(128);
                    drop(a);
                    let c = pool.take(32);
                    drop((b, c));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0, "every checkout returned");
        let hw = pool.high_water();
        assert!((2..=24).contains(&hw), "peak {hw} concurrent checkouts from 8x3 overlap");
        assert!(pool.idle() <= BufPool::idle_bound());
        let PoolStats { hits, misses } = pool.stats();
        assert_eq!(hits + misses, 8 * 2_000 * 3, "every take counted exactly once");
        assert!(misses <= hw + 8 * MAG_CAP as u64, "steady state recycles, not allocates");
    }
}
