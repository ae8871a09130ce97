//! The §3.2 allocation ledger, kept once for every kernel allocator.
//!
//! The paper characterises Kefence's cost by what the allocator saw:
//! allocation and free counts, the mean requested size (80 bytes for
//! Wrapfs) and the peak number of pages outstanding at once (2,085 for the
//! Am-utils compile). [`AllocStats`] records exactly that, with one relaxed
//! RMW per counter at the point of the allocation or free.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Live allocation ledger. Counters are relaxed atomics; the page columns
/// are a gauge and its high-water mark, so they are read from a snapshot
/// and never deltaed.
#[derive(Debug, Default)]
pub struct AllocStats {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_requested: AtomicU64,
    outstanding_pages: AtomicU64,
    max_outstanding_pages: AtomicU64,
}

/// A plain-data reading of an [`AllocStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub frees: u64,
    /// Requested (not rounded) bytes over every allocation.
    pub bytes_requested: u64,
    /// Pages held by live allocations right now.
    pub outstanding_pages: u64,
    /// Most pages ever outstanding at once (paper: 2,085).
    pub max_outstanding_pages: u64,
}

impl AllocStats {
    /// Record one allocation of `bytes` requested bytes owning `pages`
    /// whole pages (0 for an object packed into a shared slab page).
    pub fn on_alloc(&self, bytes: usize, pages: usize) {
        self.allocs.fetch_add(1, Relaxed);
        self.bytes_requested.fetch_add(bytes as u64, Relaxed);
        if pages > 0 {
            let now = self.outstanding_pages.fetch_add(pages as u64, Relaxed) + pages as u64;
            self.max_outstanding_pages.fetch_max(now, Relaxed);
        }
    }

    /// Record one free of an allocation that owned `pages` pages.
    pub fn on_free(&self, pages: usize) {
        self.frees.fetch_add(1, Relaxed);
        if pages > 0 {
            self.outstanding_pages.fetch_sub(pages as u64, Relaxed);
        }
    }

    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Relaxed),
            frees: self.frees.load(Relaxed),
            bytes_requested: self.bytes_requested.load(Relaxed),
            outstanding_pages: self.outstanding_pages.load(Relaxed),
            max_outstanding_pages: self.max_outstanding_pages.load(Relaxed),
        }
    }
}

impl AllocSnapshot {
    /// Mean requested allocation size in bytes (paper: 80 for Wrapfs).
    pub fn avg_alloc_size(&self) -> f64 {
        if self.allocs == 0 {
            0.0
        } else {
            self.bytes_requested as f64 / self.allocs as f64
        }
    }
}
