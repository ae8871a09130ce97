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

/// Per-thread pending charges for the clock identified by `clock`, plus
/// the thread's mirror binding: while `mirror_src` is non-null, charges
/// against that clock are teed into `mirror` as well (per-CPU accounting
/// — the machine clock stays the shared total, the mirror accumulates the
/// bound CPU's share).
struct Scratch {
    clock: Cell<*const Clock>,
    depth: Cell<u32>,
    user: Cell<u64>,
    sys: Cell<u64>,
    io: Cell<u64>,
    mirror_src: Cell<*const Clock>,
    mirror: Cell<*const Clock>,
}

thread_local! {
    static SCRATCH: Scratch = const {
        Scratch {
            clock: Cell::new(std::ptr::null()),
            depth: Cell::new(0),
            user: Cell::new(0),
            sys: Cell::new(0),
            io: Cell::new(0),
            mirror_src: Cell::new(std::ptr::null()),
            mirror: Cell::new(std::ptr::null()),
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
                if std::ptr::eq(s.mirror_src.get(), self.clock) {
                    // SAFETY: `mirror_src` is non-null only while the
                    // MirrorGuard that set it is alive (it restores the
                    // previous binding on drop), and that guard borrows the
                    // mirror clock for its own lifetime.
                    let m = unsafe { &*s.mirror.get() };
                    if u > 0 {
                        m.user.fetch_add(u, Relaxed);
                    }
                    if sy > 0 {
                        m.sys.fetch_add(sy, Relaxed);
                    }
                    if io > 0 {
                        m.io.fetch_add(io, Relaxed);
                    }
                }
            }
        });
    }
}

/// While alive, charges this thread makes against one clock (the
/// machine-wide total) are teed into a second clock (the bound CPU's
/// share). Set up by [`Clock::mirror_into`]; restores the previous
/// binding on drop so bindings nest. Not `Send`.
#[must_use = "charges mirror only while the guard lives"]
pub struct MirrorGuard<'c> {
    prev_src: *const Clock,
    prev_dst: *const Clock,
    _clocks: PhantomData<&'c Clock>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for MirrorGuard<'_> {
    fn drop(&mut self) {
        SCRATCH.with(|s| {
            s.mirror_src.set(self.prev_src);
            s.mirror.set(self.prev_dst);
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

/// A point-in-time snapshot of the clock, used to measure intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClockSnapshot {
    pub user: u64,
    pub sys: u64,
    pub io: u64,
}

/// The difference between two snapshots: one measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interval {
    pub user: u64,
    pub sys: u64,
    pub io: u64,
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

    /// Tee this thread's charges against `primary` into `mirror` for the
    /// guard's lifetime (per-CPU accounting: `primary` is the machine
    /// total, `mirror` the bound CPU's clock). Batched charges are teed at
    /// flush time, so open the binding around whole phases, not inside a
    /// batch. Bindings nest; the guard restores the previous one on drop.
    pub fn mirror_into<'c>(primary: &'c Clock, mirror: &'c Clock) -> MirrorGuard<'c> {
        SCRATCH.with(|s| MirrorGuard {
            prev_src: s.mirror_src.replace(primary as *const Clock),
            prev_dst: s.mirror.replace(mirror as *const Clock),
            _clocks: PhantomData,
            _not_send: PhantomData,
        })
    }

    /// Tee an unbatched charge into the thread's bound mirror, if this
    /// clock is the mirrored source.
    #[inline]
    fn tee(&self, s: &Scratch, bucket: fn(&Clock) -> &AtomicU64, n: u64) {
        if std::ptr::eq(s.mirror_src.get(), self) {
            // SAFETY: as in `BatchGuard::drop` — `mirror_src` matched, so
            // the MirrorGuard that bound `mirror` is alive and borrows it.
            bucket(unsafe { &*s.mirror.get() }).fetch_add(n, Relaxed);
        }
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
                self.tee(s, |c| &c.user, n);
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
                self.tee(s, |c| &c.sys, n);
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
                self.tee(s, |c| &c.io, n);
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

    /// Total elapsed cycles on the single simulated CPU.
    #[inline]
    pub fn elapsed_cycles(&self) -> u64 {
        let (u, s, io) = self.pending();
        self.user.load(Relaxed) + self.sys.load(Relaxed) + self.io.load(Relaxed) + u + s + io
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

    /// Cycles accumulated since `start`.
    pub fn since(&self, start: ClockSnapshot) -> Interval {
        let now = self.snapshot();
        Interval {
            user: now.user - start.user,
            sys: now.sys - start.sys,
            io: now.io - start.io,
        }
    }

    /// Reset all buckets to zero (between experiment phases). Clears this
    /// thread's pending batch scratch for the clock too.
    pub fn reset(&self) {
        SCRATCH.with(|s| {
            if std::ptr::eq(s.clock.get(), self) {
                s.user.set(0);
                s.sys.set(0);
                s.io.set(0);
            }
        });
        self.user.store(0, Relaxed);
        self.sys.store(0, Relaxed);
        self.io.store(0, Relaxed);
    }
}

impl Interval {
    #[inline]
    pub fn elapsed(&self) -> u64 {
        self.user + self.sys + self.io
    }

    /// Elapsed seconds at the simulated clock rate.
    pub fn elapsed_secs(&self) -> f64 {
        cycles_to_secs(self.elapsed())
    }

    pub fn user_secs(&self) -> f64 {
        cycles_to_secs(self.user)
    }

    pub fn sys_secs(&self) -> f64 {
        cycles_to_secs(self.sys)
    }

    pub fn io_secs(&self) -> f64 {
        cycles_to_secs(self.io)
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
        let iv = c.since(s);
        assert_eq!(iv.user, 7);
        assert_eq!(iv.sys, 3);
        assert_eq!(iv.io, 0);
        assert_eq!(iv.elapsed(), 10);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Clock::new();
        c.charge_user(1);
        c.charge_sys(1);
        c.charge_io(1);
        c.reset();
        assert_eq!(c.elapsed_cycles(), 0);
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
            assert_eq!(c.since(s).sys, 7);
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
    fn reset_inside_a_batch_clears_pending_scratch() {
        let c = Clock::new();
        let _b = c.batch();
        c.charge_sys(100);
        c.reset();
        assert_eq!(c.sys_cycles(), 0);
        c.charge_sys(4);
        assert_eq!(c.sys_cycles(), 4);
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
    fn mirrored_charges_tee_into_the_bound_cpu_clock() {
        let total = Clock::new();
        let cpu = Clock::new();
        total.charge_sys(5); // unbound: total only
        {
            let _m = Clock::mirror_into(&total, &cpu);
            total.charge_sys(7); // unbatched charge tees immediately
            {
                let _b = total.batch();
                total.charge_user(3);
                total.charge_io(2);
            } // the batch flush tees the accumulated scratch
        }
        total.charge_sys(11); // binding dropped: total only again
        assert_eq!(total.sys_cycles(), 23);
        assert_eq!(
            (cpu.user_cycles(), cpu.sys_cycles(), cpu.io_cycles()),
            (3, 7, 2)
        );
    }

    #[test]
    fn mirror_bindings_nest_and_restore() {
        let total = Clock::new();
        let (a, b) = (Clock::new(), Clock::new());
        let _ga = Clock::mirror_into(&total, &a);
        total.charge_sys(1);
        {
            let _gb = Clock::mirror_into(&total, &b);
            total.charge_sys(2);
        }
        total.charge_sys(4);
        assert_eq!(a.sys_cycles(), 5);
        assert_eq!(b.sys_cycles(), 2);
        assert_eq!(total.sys_cycles(), 7);
    }

    #[test]
    fn foreign_clock_charges_do_not_tee() {
        let total = Clock::new();
        let cpu = Clock::new();
        let other = Clock::new();
        let _m = Clock::mirror_into(&total, &cpu);
        other.charge_sys(9);
        assert_eq!(cpu.sys_cycles(), 0);
        assert_eq!(other.sys_cycles(), 9);
    }

    #[test]
    fn improvement_and_overhead_formulas() {
        assert!((improvement_pct(200, 100) - 50.0).abs() < 1e-12);
        assert!((overhead_pct(100, 114) - 14.0).abs() < 1e-9);
        assert_eq!(improvement_pct(0, 5), 0.0);
        assert_eq!(overhead_pct(0, 5), 0.0);
    }
}
