//! Lock-free cycle accounting.
//!
//! The clock splits simulated time into three buckets, mirroring the
//! `time(1)` output the paper reports for every experiment:
//!
//! * **user** — cycles spent executing application code,
//! * **sys** — cycles spent in the kernel (crossings, copies, kernel work),
//! * **io** — cycles the CPU spends waiting for the simulated disk.
//!
//! Elapsed time is the sum of the three (single simulated CPU; I/O is
//! blocking as it was for the paper's synchronous workloads). Counters are
//! relaxed atomics: totals are only read after the simulated workload
//! finishes, so no ordering beyond the final happens-before of thread join
//! is required — the pattern recommended for statistics counters in
//! *Rust Atomics and Locks*.
//!
//! # Batched accounting
//!
//! A single syscall charges the clock many times (stub, crossing,
//! dispatch, argument copies, inode ops, block transfers...), and each
//! charge is a locked RMW on a shared cache line — measurable host-side
//! overhead on the simulator's hot path. A [`BatchGuard`] (from
//! [`Clock::batch`]) redirects this thread's charges into a thread-local
//! scratch counter and flushes the totals with three atomic adds when the
//! outermost guard drops — once per syscall instead of once per charge.
//!
//! Same-thread reads stay exact: every accessor adds the thread's pending
//! scratch, so `sys_cycles()` observed *inside* a batch equals what the
//! unbatched code would have reported, cycle for cycle. Cross-thread reads
//! of a mid-syscall clock were already racy under relaxed atomics; a batch
//! only widens the window in which another thread sees a slightly stale
//! total, never the final value.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::cost::cycles_to_secs;

/// Per-thread pending charges for the clock identified by `clock`.
struct Scratch {
    clock: Cell<*const Clock>,
    depth: Cell<u32>,
    user: Cell<u64>,
    sys: Cell<u64>,
    io: Cell<u64>,
}

thread_local! {
    static SCRATCH: Scratch = const {
        Scratch {
            clock: Cell::new(std::ptr::null()),
            depth: Cell::new(0),
            user: Cell::new(0),
            sys: Cell::new(0),
            io: Cell::new(0),
        }
    };
}

/// Redirects this thread's charges on one [`Clock`] into thread-local
/// scratch; the outermost guard flushes the accumulated totals on drop.
/// Not `Send`: the scratch belongs to the thread that opened the batch.
#[must_use = "charges batch only while the guard lives"]
pub struct BatchGuard<'c> {
    clock: &'c Clock,
    /// False when another clock's batch was already active on this thread;
    /// the guard is then a no-op and charges hit the atomics directly.
    active: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SCRATCH.with(|s| {
            let depth = s.depth.get() - 1;
            s.depth.set(depth);
            if depth == 0 {
                s.clock.set(std::ptr::null());
                let (u, sy, io) = (s.user.replace(0), s.sys.replace(0), s.io.replace(0));
                if u > 0 {
                    self.clock.user.fetch_add(u, Relaxed);
                }
                if sy > 0 {
                    self.clock.sys.fetch_add(sy, Relaxed);
                }
                if io > 0 {
                    self.clock.io.fetch_add(io, Relaxed);
                }
            }
        });
    }
}

/// Tri-bucket simulated cycle counter.
#[derive(Debug, Default)]
pub struct Clock {
    user: AtomicU64,
    sys: AtomicU64,
    io: AtomicU64,
}

crate::counters! {
    /// A point-in-time reading of the clock's three buckets (see the
    /// module docs); the `delta` of two readings is one measured interval.
    pub struct ClockSnapshot {
        user,
        sys,
        io,
    }
}

impl Clock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a charge batch for this thread (see the module docs). Nests;
    /// the outermost guard flushes. A guard for a *different* clock being
    /// active on this thread makes the new guard a passthrough no-op.
    pub fn batch(&self) -> BatchGuard<'_> {
        let active = SCRATCH.with(|s| {
            let cur = s.clock.get();
            if cur.is_null() {
                s.clock.set(self as *const Clock);
                s.depth.set(1);
                true
            } else if std::ptr::eq(cur, self) {
                s.depth.set(s.depth.get() + 1);
                true
            } else {
                false
            }
        });
        BatchGuard { clock: self, active, _not_send: PhantomData }
    }

    /// This thread's pending (unflushed) charges for this clock.
    #[inline]
    fn pending(&self) -> (u64, u64, u64) {
        SCRATCH.with(|s| {
            if std::ptr::eq(s.clock.get(), self) {
                (s.user.get(), s.sys.get(), s.io.get())
            } else {
                (0, 0, 0)
            }
        })
    }

    /// Charge `n` cycles of application (user-mode) time.
    #[inline]
    pub fn charge_user(&self, n: u64) {
        SCRATCH.with(|s| {
            if std::ptr::eq(s.clock.get(), self) {
                s.user.set(s.user.get() + n);
            } else {
                self.user.fetch_add(n, Relaxed);
            }
        });
    }

    /// Charge `n` cycles of kernel (system) time.
    #[inline]
    pub fn charge_sys(&self, n: u64) {
        SCRATCH.with(|s| {
            if std::ptr::eq(s.clock.get(), self) {
                s.sys.set(s.sys.get() + n);
            } else {
                self.sys.fetch_add(n, Relaxed);
            }
        });
    }

    /// Charge `n` cycles of I/O wait time.
    #[inline]
    pub fn charge_io(&self, n: u64) {
        SCRATCH.with(|s| {
            if std::ptr::eq(s.clock.get(), self) {
                s.io.set(s.io.get() + n);
            } else {
                self.io.fetch_add(n, Relaxed);
            }
        });
    }

    #[inline]
    pub fn user_cycles(&self) -> u64 {
        self.user.load(Relaxed) + self.pending().0
    }

    #[inline]
    pub fn sys_cycles(&self) -> u64 {
        self.sys.load(Relaxed) + self.pending().1
    }

    #[inline]
    pub fn io_cycles(&self) -> u64 {
        self.io.load(Relaxed) + self.pending().2
    }

    /// Total elapsed cycles: the sum of the three buckets.
    #[inline]
    pub fn elapsed_cycles(&self) -> u64 {
        self.snapshot().elapsed()
    }

    /// Capture the current totals.
    pub fn snapshot(&self) -> ClockSnapshot {
        let (u, s, io) = self.pending();
        ClockSnapshot {
            user: self.user.load(Relaxed) + u,
            sys: self.sys.load(Relaxed) + s,
            io: self.io.load(Relaxed) + io,
        }
    }
}

impl ClockSnapshot {
    /// Total cycles across the three buckets.
    #[inline]
    pub fn elapsed(&self) -> u64 {
        self.user + self.sys + self.io
    }

    /// Elapsed seconds at the simulated clock rate.
    pub fn elapsed_secs(&self) -> f64 {
        cycles_to_secs(self.elapsed())
    }
}

/// Percentage improvement of `new` over `base`: `(base - new) / base * 100`.
///
/// This is the formula behind every "x% faster" claim in the paper.
pub fn improvement_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (base as f64 - new as f64) / base as f64 * 100.0
}

/// Percentage overhead of `new` over `base`: `(new - base) / base * 100`.
pub fn overhead_pct(base: u64, new: u64) -> f64 {
    if base == 0 {
        return 0.0;
    }
    (new as f64 - base as f64) / base as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_independently() {
        let c = Clock::new();
        c.charge_user(10);
        c.charge_sys(20);
        c.charge_io(30);
        c.charge_user(5);
        assert_eq!(c.user_cycles(), 15);
        assert_eq!(c.sys_cycles(), 20);
        assert_eq!(c.io_cycles(), 30);
        assert_eq!(c.elapsed_cycles(), 65);
    }

    #[test]
    fn snapshot_interval_measures_only_the_window() {
        let c = Clock::new();
        c.charge_user(100);
        let s = c.snapshot();
        c.charge_user(7);
        c.charge_sys(3);
        let iv = c.snapshot().delta(&s);
        assert_eq!(iv, ClockSnapshot { user: 7, sys: 3, io: 0 });
        assert_eq!(iv.elapsed(), 10);
    }

    #[test]
    fn concurrent_charges_are_not_lost() {
        let c = std::sync::Arc::new(Clock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.charge_sys(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sys_cycles(), 40_000);
    }

    #[test]
    fn batched_charges_stay_visible_and_flush_on_drop() {
        let c = Clock::new();
        c.charge_sys(5);
        {
            let _b = c.batch();
            c.charge_user(10);
            c.charge_sys(20);
            c.charge_io(30);
            // Same-thread reads include pending scratch, cycle for cycle.
            assert_eq!(c.user_cycles(), 10);
            assert_eq!(c.sys_cycles(), 25);
            assert_eq!(c.io_cycles(), 30);
            assert_eq!(c.elapsed_cycles(), 65);
            let s = c.snapshot();
            c.charge_sys(7);
            assert_eq!(c.snapshot().delta(&s).sys, 7);
        }
        // After the flush the atomics carry the full totals.
        assert_eq!((c.user_cycles(), c.sys_cycles(), c.io_cycles()), (10, 32, 30));
    }

    #[test]
    fn nested_batches_flush_at_the_outermost_guard() {
        let c = Clock::new();
        let outer = c.batch();
        c.charge_sys(1);
        {
            let _inner = c.batch();
            c.charge_sys(2);
        }
        // Inner drop must not flush while the outer guard lives.
        assert_eq!(c.sys.load(Relaxed), 0);
        assert_eq!(c.sys_cycles(), 3);
        drop(outer);
        assert_eq!(c.sys.load(Relaxed), 3);
    }

    #[test]
    fn foreign_clock_batch_is_a_passthrough() {
        let a = Clock::new();
        let b = Clock::new();
        let _ga = a.batch();
        let _gb = b.batch(); // a's batch is active: b charges go straight through
        b.charge_sys(9);
        assert_eq!(b.sys.load(Relaxed), 9);
        assert_eq!(b.sys_cycles(), 9);
    }

    #[test]
    fn concurrent_batched_charges_are_not_lost() {
        let c = std::sync::Arc::new(Clock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let _b = c.batch();
                    for _ in 0..10 {
                        c.charge_sys(1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sys_cycles(), 40_000);
    }

    #[test]
    fn improvement_and_overhead_formulas() {
        assert!((improvement_pct(200, 100) - 50.0).abs() < 1e-12);
        assert!((overhead_pct(100, 114) - 14.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0, 5), 0.0);
        assert_eq!(overhead_pct(0, 5), 0.0);
    }
}
