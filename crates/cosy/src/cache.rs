//! Compound translation cache.
//!
//! Applications resubmit the same compounds over and over (a server's
//! read-process-write loop encodes to identical bytes every iteration), yet
//! the extension used to re-decode and re-validate the buffer on every
//! submission. The paper's premise — do the work once, in the kernel, and
//! amortise it — applies to the *translation* of the compound just as much
//! as to the boundary crossings it saves.
//!
//! The machinery is [`ksim::ByteCache`], shared with kprog's verified-
//! program cache. The key is the encoded compound itself —
//! `buf[..Compound::wire_len(buf)]`, not the whole shared buffer — so a
//! compound rewritten over a page that held a longer one still hits, and
//! hashing costs the compound's length rather than the buffer's. An
//! [`FxHasher`](ksim::FxHasher) digest, a word at a time, picks the bucket;
//! byte-for-byte equality confirms the entry (hash collisions can never
//! alias two different compounds). A hit returns the previously decoded
//! and validated [`Compound`], so the per-op decode charge is replaced by
//! one small constant. A miss decodes, validates, and — only if both
//! succeed — inserts; malformed compounds are never cached.
//!
//! Any process can fill a shared buffer with fresh compounds, so every
//! entry is charged to the submitting pid, and each pid keeps at most 256
//! entries and 1 MiB of key bytes. Past that, a CLOCK hand over that pid's
//! entries evicts one not submitted since the hand last passed: a process
//! flooding the kernel with one-off compounds recycles its own slots and
//! never evicts another process's hot compounds.
//!
//! Execution-time checks (buffer-reference range checks, watchdog, result
//! arity) still run on every submission: the cache elides only the work
//! whose outcome is a pure function of the compound bytes.

use std::sync::Arc;

use ksim::{ByteCache, ByteCacheEntry, ByteCacheStats, Pid};

use crate::compound::Compound;

/// A decoded, validated compound plus the exact bytes it came from.
/// `entry.value()` is the [`Compound`]; `entry.bytes()` the submission.
pub type CachedCompound = ByteCacheEntry<Compound>;

/// Hit/miss/eviction counters, snapshotted by [`TranslationCache::stats`].
pub type CacheStats = ByteCacheStats;

/// The compound translation cache: submission bytes → decoded compound.
#[derive(Debug, Default)]
pub struct TranslationCache {
    inner: ByteCache<Compound>,
}

impl TranslationCache {
    pub fn new() -> Self {
        TranslationCache::default()
    }

    /// Look up previously translated bytes. Counts a hit; a miss is only
    /// counted by [`TranslationCache::insert`], so a decode failure is
    /// neither.
    pub fn lookup(&self, bytes: &[u8]) -> Option<Arc<CachedCompound>> {
        self.inner.lookup(bytes)
    }

    /// Record a successful translation on `pid`'s budget. Returns the
    /// shared entry (the one already present, if a racing submission
    /// inserted first).
    pub fn insert(&self, pid: Pid, bytes: Vec<u8>, compound: Compound) -> Arc<CachedCompound> {
        self.inner.insert(pid.0 as u64, bytes, compound)
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Drop every entry (counters keep accumulating).
    pub fn clear(&self) {
        self.inner.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compound::{CosyArg, CosyCall, CosyOp};

    fn sample(n: i64) -> Compound {
        Compound {
            ops: vec![CosyOp::Syscall {
                call: CosyCall::Lseek,
                args: vec![CosyArg::Lit(n), CosyArg::Lit(0), CosyArg::Lit(0)],
            }],
        }
    }

    #[test]
    fn miss_then_hit_on_identical_bytes() {
        let cache = TranslationCache::new();
        let c = sample(3);
        let bytes = c.encode();
        assert!(cache.lookup(&bytes).is_none());
        cache.insert(Pid(1), bytes.clone(), c.clone());
        let hit = cache.lookup(&bytes).expect("must hit after insert");
        assert_eq!(hit.value(), &c);
        assert_eq!(hit.bytes(), &bytes[..]);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1, evictions: 0, entries: 1 });
    }

    #[test]
    fn different_bytes_are_different_entries() {
        let cache = TranslationCache::new();
        for n in 0..10 {
            let c = sample(n);
            cache.insert(Pid(1), c.encode(), c);
        }
        assert_eq!(cache.stats().entries, 10);
        for n in 0..10 {
            let got = cache.lookup(&sample(n).encode()).unwrap();
            assert_eq!(got.value(), &sample(n));
        }
    }

    #[test]
    fn equality_guards_against_hash_collisions() {
        // Force a synthetic collision by inserting under the same bucket:
        // two different byte strings that (hypothetically) share a hash must
        // both be retrievable, byte-exactly.
        let cache = TranslationCache::new();
        let a = sample(1);
        let b = sample(2);
        cache.insert(Pid(1), a.encode(), a.clone());
        cache.insert(Pid(1), b.encode(), b.clone());
        assert_eq!(cache.lookup(&a.encode()).unwrap().value(), &a);
        assert_eq!(cache.lookup(&b.encode()).unwrap().value(), &b);
        // And bytes that were never inserted miss even at equal length.
        assert!(cache.lookup(&sample(3).encode()).is_none());
    }

    #[test]
    fn clear_empties_entries_but_keeps_counters() {
        let cache = TranslationCache::new();
        let c = sample(7);
        cache.insert(Pid(1), c.encode(), c.clone());
        assert!(cache.lookup(&c.encode()).is_some());
        cache.clear();
        assert!(cache.lookup(&c.encode()).is_none());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!((s.hits, s.misses), (1, 1));
    }
}
