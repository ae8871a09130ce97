//! On-line in-kernel monitors for the paper's higher-level invariants:
//! *"spinlocks that are locked are later unlocked, reference counters are
//! incremented and decremented symmetrically, interrupts that are disabled
//! are later re-enabled"* (§3), plus semaphore P/V symmetry.
//!
//! All four are one open/close balance check, so they are one
//! [`BalanceMonitor`] with four constructors. Each object's balance is
//! opens minus closes; a close that takes it below zero is flagged and the
//! balance keeps its true (negative) value, so a lock released without an
//! acquire reads -1 until a later acquire brings it back to 0. A nonzero
//! balance at teardown is a leak (positive) or an over-release (negative).
//!
//! The monitor is an [`EventMonitor`] callback registered with the
//! dispatcher; violations are collected rather than panicking, so a single
//! run can report every imbalance it saw (and tests can assert on them).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;

use parking_lot::Mutex;

use crate::dispatch::EventMonitor;
use crate::record::{EventRecord, EventType};

/// A detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The object at fault.
    pub obj: u64,
    /// Human-readable description of the broken invariant.
    pub what: String,
    /// Source location of the offending event.
    pub file: &'static str,
    pub line: u32,
}

ksim::counters! {
    /// Events a [`BalanceMonitor`] observed. `opens` is the "lock was hit N
    /// times" statistic of the paper's dcache_lock experiment.
    struct BalanceCounters => pub struct BalanceStats {
        opens,
        closes,
    }
}

/// Checks that every close event matches a prior open event on the same
/// object: spinlock acquire/release, refcount inc/dec, interrupt
/// disable/enable, or semaphore down/up.
#[derive(Debug)]
pub struct BalanceMonitor {
    name: &'static str,
    open: EventType,
    close: EventType,
    /// Violation text for a close with no matching open.
    underflow: &'static str,
    balances: Mutex<BTreeMap<u64, i64>>,
    violations: Mutex<Vec<Violation>>,
    counters: BalanceCounters,
}

impl BalanceMonitor {
    fn new(name: &'static str, open: EventType, close: EventType, underflow: &'static str) -> Self {
        BalanceMonitor {
            name,
            open,
            close,
            underflow,
            balances: Mutex::new(BTreeMap::new()),
            violations: Mutex::new(Vec::new()),
            counters: BalanceCounters::default(),
        }
    }

    /// Every lock release matches a prior acquire.
    pub fn spinlock() -> Self {
        use EventType::{LockAcquire, LockRelease};
        let what = "spinlock released without matching acquire";
        Self::new("spinlock-monitor", LockAcquire, LockRelease, what)
    }

    /// Reference counts never drop below zero.
    pub fn refcount() -> Self {
        use EventType::{RefDec, RefInc};
        Self::new("refcount-monitor", RefInc, RefDec, "reference count dropped below zero")
    }

    /// Disabled interrupts are re-enabled, and never over-enabled.
    pub fn irq() -> Self {
        use EventType::{IrqDisable, IrqEnable};
        let what = "interrupts enabled more times than disabled";
        Self::new("irq-monitor", IrqDisable, IrqEnable, what)
    }

    /// Every semaphore up (V) matches a prior down (P): a double up is
    /// flagged regardless of the semaphore's capacity.
    pub fn semaphore() -> Self {
        use EventType::{SemDown, SemUp};
        let what = "semaphore released more times than acquired";
        Self::new("semaphore-monitor", SemDown, SemUp, what)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BalanceStats {
        self.counters.snapshot()
    }

    /// The current balance for an object (`None` if never seen).
    pub fn balance_of(&self, obj: u64) -> Option<i64> {
        self.balances.lock().get(&obj).copied()
    }

    /// Every object with a nonzero balance, sorted by object: call at
    /// teardown to find leaks (positive) and over-releases (negative).
    pub fn outstanding(&self) -> Vec<(u64, i64)> {
        self.balances.lock().iter().filter(|(_, &b)| b != 0).map(|(&o, &b)| (o, b)).collect()
    }

    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().clone()
    }
}

impl EventMonitor for BalanceMonitor {
    fn on_event(&self, rec: &EventRecord) {
        let delta = if rec.event == self.open {
            self.counters.opens.fetch_add(1, Relaxed);
            1
        } else if rec.event == self.close {
            self.counters.closes.fetch_add(1, Relaxed);
            -1
        } else {
            return;
        };
        let mut balances = self.balances.lock();
        let b = balances.entry(rec.obj).or_insert(0);
        *b += delta;
        if delta < 0 && *b < 0 {
            self.violations.lock().push(Violation {
                obj: rec.obj,
                what: format!("{} (balance {b})", self.underflow),
                file: rec.file,
                line: rec.line,
            });
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(obj: u64, event: EventType) -> EventRecord {
        EventRecord::new(obj, event, "m", 7, 0)
    }

    #[test]
    fn balanced_lock_usage_is_clean() {
        let m = BalanceMonitor::spinlock();
        for _ in 0..5 {
            m.on_event(&ev(1, EventType::LockAcquire));
            m.on_event(&ev(1, EventType::LockRelease));
        }
        assert_eq!(m.stats().opens, 5);
        assert!(m.violations().is_empty());
        assert!(m.outstanding().is_empty());
    }

    #[test]
    fn release_without_acquire_is_flagged() {
        let m = BalanceMonitor::spinlock();
        m.on_event(&ev(9, EventType::LockRelease));
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].obj, 9);
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn leaked_lock_shows_in_still_held() {
        let m = BalanceMonitor::spinlock();
        m.on_event(&ev(3, EventType::LockAcquire));
        m.on_event(&ev(3, EventType::LockAcquire));
        m.on_event(&ev(3, EventType::LockRelease));
        assert_eq!(m.outstanding(), vec![(3, 1)]);
    }

    #[test]
    fn refcount_symmetry_ok_and_leak_detection() {
        let m = BalanceMonitor::refcount();
        m.on_event(&ev(1, EventType::RefInc));
        m.on_event(&ev(1, EventType::RefInc));
        m.on_event(&ev(1, EventType::RefDec));
        assert_eq!(m.balance_of(1), Some(1));
        assert_eq!(m.outstanding(), vec![(1, 1)]);
        m.on_event(&ev(1, EventType::RefDec));
        assert!(m.outstanding().is_empty());
        assert!(m.violations().is_empty());
        assert_eq!(m.stats().opens + m.stats().closes, 4);
    }

    #[test]
    fn refcount_underflow_is_flagged() {
        let m = BalanceMonitor::refcount();
        m.on_event(&ev(2, EventType::RefDec));
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("below zero"));
    }

    #[test]
    fn irq_pairing() {
        let m = BalanceMonitor::irq();
        m.on_event(&ev(0, EventType::IrqDisable));
        m.on_event(&ev(0, EventType::IrqDisable));
        m.on_event(&ev(0, EventType::IrqEnable));
        assert_eq!(m.outstanding(), vec![(0, 1)]);
        m.on_event(&ev(0, EventType::IrqEnable));
        assert!(m.outstanding().is_empty());
        m.on_event(&ev(0, EventType::IrqEnable));
        assert_eq!(m.violations().len(), 1);
    }

    #[test]
    fn monitors_ignore_unrelated_events() {
        let locks = BalanceMonitor::spinlock();
        let refs = BalanceMonitor::refcount();
        let irqs = BalanceMonitor::irq();
        let e = ev(5, EventType::Custom(1));
        locks.on_event(&e);
        refs.on_event(&e);
        irqs.on_event(&e);
        assert!(locks.violations().is_empty());
        assert!(refs.violations().is_empty());
        assert!(irqs.violations().is_empty());
        assert_eq!(refs.stats().opens + refs.stats().closes, 0);
    }

    /// One scripted sequence per (open, close) pair: object 1 balanced,
    /// object 2 two unmatched opens, object 3 one unmatched close, with
    /// unrelated `Custom` events interleaved.
    fn script(open: EventType, close: EventType) -> Vec<EventRecord> {
        let noise = |obj| ev(obj, EventType::Custom(3));
        vec![
            ev(1, open),
            noise(1),
            ev(1, close),
            ev(2, open),
            noise(2),
            ev(1, open),
            ev(3, close),
            noise(3),
            ev(1, close),
            ev(2, open),
        ]
    }

    #[test]
    fn scripted_sequence_parity_across_the_four_kinds() {
        use EventType::*;
        let kinds = [
            (BalanceMonitor::spinlock(), LockAcquire, LockRelease),
            (BalanceMonitor::refcount(), RefInc, RefDec),
            (BalanceMonitor::irq(), IrqDisable, IrqEnable),
            (BalanceMonitor::semaphore(), SemDown, SemUp),
        ];
        let fragments = [
            "spinlock released without matching acquire",
            "reference count dropped below zero",
            "interrupts enabled more times than disabled",
            "semaphore released more times than acquired",
        ];
        for ((m, open, close), fragment) in kinds.into_iter().zip(fragments) {
            for e in script(open, close) {
                m.on_event(&e);
            }
            let name = m.name();
            assert_eq!((m.stats().opens, m.stats().closes), (4, 3), "{name}");
            // Object 3's unmatched close keeps its true balance, -1, for
            // every kind: the spinlock kind does not clamp at 0.
            let balances = [1, 2, 3, 4].map(|o| m.balance_of(o));
            assert_eq!(balances, [Some(0), Some(2), Some(-1), None], "{name}");
            assert_eq!(m.outstanding(), vec![(2, 2), (3, -1)], "{name}");
            let leaked: Vec<_> = m.outstanding().into_iter().filter(|&(_, b)| b > 0).collect();
            assert_eq!(leaked, vec![(2, 2)], "{name}");
            let v = m.violations();
            assert_eq!(v.len(), 1, "{name}: {v:?}");
            assert_eq!((v[0].obj, v[0].line), (3, 7));
            assert!(v[0].what.contains(fragment), "{:?}", v[0].what);
        }
    }
}

#[cfg(test)]
mod sem_tests {
    use super::*;

    fn ev(obj: u64, event: EventType, value: i64) -> EventRecord {
        EventRecord::new(obj, event, "sem.c", 9, value)
    }

    #[test]
    fn balanced_semaphore_is_clean() {
        let m = BalanceMonitor::semaphore();
        for _ in 0..4 {
            m.on_event(&ev(1, EventType::SemDown, 1));
            m.on_event(&ev(1, EventType::SemUp, 1));
        }
        assert!(m.violations().is_empty());
        assert!(m.outstanding().is_empty());
        assert_eq!(m.stats().opens + m.stats().closes, 8);
    }

    #[test]
    fn outstanding_downs_are_reported_as_held() {
        let m = BalanceMonitor::semaphore();
        m.on_event(&ev(7, EventType::SemDown, 1));
        m.on_event(&ev(7, EventType::SemDown, 1));
        m.on_event(&ev(7, EventType::SemUp, 1));
        assert_eq!(m.outstanding(), vec![(7, 1)]);
    }

    #[test]
    fn double_up_above_capacity_is_flagged() {
        let m = BalanceMonitor::semaphore();
        m.on_event(&ev(3, EventType::SemDown, 1));
        m.on_event(&ev(3, EventType::SemUp, 1));
        m.on_event(&ev(3, EventType::SemUp, 1)); // bug: V without P
        let v = m.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].what.contains("more times than acquired"));
    }
}
