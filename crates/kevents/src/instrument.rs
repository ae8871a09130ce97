//! Instrumentable kernel-object wrappers.
//!
//! These are the shims a developer adds when instrumenting a lock or a
//! reference counter — the paper's dcache_lock experiment (§3.3) wraps the
//! dentry-cache lock exactly this way. The wrappers work unchanged with no
//! dispatcher attached (vanilla baseline), with a dispatcher (in-kernel
//! monitors), and with a dispatcher plus ring (user-space logging), which
//! is precisely the ladder of configurations E6 measures.

use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::Arc;

use ksim::sync::{SpinMutex, SpinMutexGuard};

use ksim::Machine;

use crate::dispatch::{EventDispatcher, Probe};
use crate::record::{EventRecord, EventType};

/// A spinlock whose acquire/release can be logged to a dispatcher.
pub struct InstrumentedSpinLock<T> {
    inner: SpinMutex<T>,
    machine: Arc<Machine>,
    probe: Probe,
    /// Stable identity reported as the event object (the lock's "address").
    obj: u64,
    site_file: &'static str,
    site_line: u32,
}

/// RAII guard: logs the release event when dropped.
pub struct SpinGuard<'a, T> {
    guard: Option<SpinMutexGuard<'a, T>>,
    lock: &'a InstrumentedSpinLock<T>,
}

impl<T> InstrumentedSpinLock<T> {
    /// Create a lock. `obj` is the identity used in event records; pass the
    /// address of the protected structure, or any stable id.
    pub fn new(
        machine: Arc<Machine>,
        value: T,
        obj: u64,
        site_file: &'static str,
        site_line: u32,
    ) -> Self {
        InstrumentedSpinLock {
            inner: SpinMutex::new(value),
            machine,
            probe: Probe::new(),
            obj,
            site_file,
            site_line,
        }
    }

    /// Attach instrumentation (or `None` to return to the vanilla baseline).
    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        self.probe.set_dispatcher(d);
    }

    /// Whether a dispatcher is currently attached. Lock-avoiding fast
    /// paths (e.g. the dcache epoch read table) must consult this and take
    /// the real lock whenever instrumentation is on, so monitors observe
    /// every acquire/release pair.
    pub fn is_instrumented(&self) -> bool {
        self.probe.is_attached()
    }

    /// Acquire the lock, charging the uncontended spinlock cost and logging
    /// the acquire event if instrumented.
    pub fn lock(&self) -> SpinGuard<'_, T> {
        self.machine.charge_sys(self.machine.cost.spinlock_pair);
        let guard = self.inner.lock();
        self.emit(EventType::LockAcquire);
        SpinGuard { guard: Some(guard), lock: self }
    }

    fn emit(&self, event: EventType) {
        self.probe.emit(EventRecord::new(self.obj, event, self.site_file, self.site_line, 0));
    }
}

impl<T> std::ops::Deref for SpinGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard intact")
    }
}

impl<T> std::ops::DerefMut for SpinGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard intact")
    }
}

impl<T> Drop for SpinGuard<'_, T> {
    fn drop(&mut self) {
        // Release the mutex before logging so the event path never runs
        // under the lock (non-intrusiveness requirement).
        self.guard.take();
        self.lock.emit(EventType::LockRelease);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for InstrumentedSpinLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstrumentedSpinLock").field("obj", &self.obj).finish()
    }
}

/// A reference counter whose inc/dec can be logged to a dispatcher.
#[derive(Debug)]
pub struct InstrumentedRefcount {
    count: AtomicI64,
    probe: Probe,
    obj: u64,
    site_file: &'static str,
    site_line: u32,
}

impl InstrumentedRefcount {
    pub fn new(initial: i64, obj: u64, site_file: &'static str, site_line: u32) -> Self {
        InstrumentedRefcount {
            count: AtomicI64::new(initial),
            probe: Probe::new(),
            obj,
            site_file,
            site_line,
        }
    }

    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        self.probe.set_dispatcher(d);
    }

    /// Increment; logs `RefInc` with the new value as payload.
    pub fn inc(&self) -> i64 {
        let new = self.count.fetch_add(1, Relaxed) + 1;
        self.log(EventType::RefInc, new);
        new
    }

    /// Decrement; logs `RefDec` with the new value as payload.
    pub fn dec(&self) -> i64 {
        let new = self.count.fetch_sub(1, Relaxed) - 1;
        self.log(EventType::RefDec, new);
        new
    }

    pub fn get(&self) -> i64 {
        self.count.load(Relaxed)
    }

    fn log(&self, event: EventType, value: i64) {
        self.probe.emit(EventRecord::new(self.obj, event, self.site_file, self.site_line, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::BalanceMonitor;
    use ksim::MachineConfig;

    fn machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::default()))
    }

    #[test]
    fn uninstrumented_lock_works_and_charges_spinlock_cost() {
        let m = machine();
        let lock = InstrumentedSpinLock::new(m.clone(), 0u32, 0x100, "i", 1);
        let sys0 = m.clock.sys_cycles();
        {
            let mut g = lock.lock();
            *g += 1;
        }
        assert_eq!(m.clock.sys_cycles() - sys0, m.cost.spinlock_pair);
        assert_eq!(*lock.lock(), 1);
    }

    #[test]
    fn instrumented_lock_logs_balanced_events() {
        let m = machine();
        let d = Arc::new(EventDispatcher::new(m.clone()));
        let mon = Arc::new(BalanceMonitor::spinlock());
        d.register(mon.clone());
        let lock = InstrumentedSpinLock::new(m, (), 0xD0C, "dcache.c", 42);
        lock.set_dispatcher(Some(d.clone()));
        for _ in 0..3 {
            drop(lock.lock());
        }
        assert_eq!(mon.stats().opens, 3);
        assert!(mon.violations().is_empty());
        assert!(mon.outstanding().is_empty());
        assert_eq!(d.stats().events, 6, "acquire + release per round");
    }

    #[test]
    fn detaching_dispatcher_restores_baseline() {
        let m = machine();
        let d = Arc::new(EventDispatcher::new(m.clone()));
        let lock = InstrumentedSpinLock::new(m, (), 1, "f", 1);
        lock.set_dispatcher(Some(d.clone()));
        drop(lock.lock());
        lock.set_dispatcher(None);
        drop(lock.lock());
        assert_eq!(d.stats().events, 2, "only the instrumented round logged");
    }

    #[test]
    fn refcount_logs_values_and_monitor_tracks() {
        let m = machine();
        let d = Arc::new(EventDispatcher::new(m));
        let mon = Arc::new(BalanceMonitor::refcount());
        d.register(mon.clone());
        let rc = InstrumentedRefcount::new(0, 0xAB, "inode.c", 10);
        rc.set_dispatcher(Some(d));
        assert_eq!(rc.inc(), 1);
        assert_eq!(rc.inc(), 2);
        assert_eq!(rc.dec(), 1);
        assert_eq!(rc.get(), 1);
        assert_eq!(mon.balance_of(0xAB), Some(1));
        assert!(mon.violations().is_empty());
    }

    #[test]
    fn concurrent_lock_use_stays_balanced() {
        let m = machine();
        let d = Arc::new(EventDispatcher::new(m.clone()));
        let mon = Arc::new(BalanceMonitor::spinlock());
        d.register(mon.clone());
        let lock = Arc::new(InstrumentedSpinLock::new(m, 0u64, 7, "f", 1));
        lock.set_dispatcher(Some(d));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = lock.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    let mut g = lock.lock();
                    *g += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock.lock(), 4_000);
        assert_eq!(mon.stats().opens, 4_001, "4000 worker rounds + the check above");
        assert!(mon.outstanding().is_empty());
        assert!(mon.violations().is_empty());
    }
}

/// A counting semaphore with instrumented P/V operations.
///
/// Non-blocking `try_down` keeps the wrapper usable from any simulated
/// context; real waiting is the caller's affair (the simulator is
/// single-CPU and cooperative).
#[derive(Debug)]
pub struct InstrumentedSemaphore {
    count: AtomicI64,
    capacity: i64,
    probe: Probe,
    obj: u64,
    site_file: &'static str,
    site_line: u32,
}

impl InstrumentedSemaphore {
    pub fn new(capacity: i64, obj: u64, site_file: &'static str, site_line: u32) -> Self {
        InstrumentedSemaphore {
            count: AtomicI64::new(capacity),
            capacity,
            probe: Probe::new(),
            obj,
            site_file,
            site_line,
        }
    }

    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        self.probe.set_dispatcher(d);
    }

    /// P operation: returns `false` when no permit is available.
    pub fn try_down(&self) -> bool {
        let mut cur = self.count.load(Relaxed);
        loop {
            if cur <= 0 {
                return false;
            }
            match self.count.compare_exchange_weak(cur, cur - 1, Relaxed, Relaxed) {
                Ok(_) => {
                    self.log(EventType::SemDown);
                    return true;
                }
                Err(c) => cur = c,
            }
        }
    }

    /// V operation. Deliberately does **not** stop an over-release — that
    /// is the bug class the monitor exists to catch.
    pub fn up(&self) {
        self.count.fetch_add(1, Relaxed);
        self.log(EventType::SemUp);
    }

    pub fn available(&self) -> i64 {
        self.count.load(Relaxed)
    }

    fn log(&self, event: EventType) {
        let rec = EventRecord::new(self.obj, event, self.site_file, self.site_line, self.capacity);
        self.probe.emit(rec);
    }
}

#[cfg(test)]
mod sem_tests {
    use super::*;
    use crate::monitors::BalanceMonitor;
    use ksim::MachineConfig;

    #[test]
    fn semaphore_p_v_with_monitor() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let d = Arc::new(EventDispatcher::new(m));
        let mon = Arc::new(BalanceMonitor::semaphore());
        d.register(mon.clone());
        let sem = InstrumentedSemaphore::new(2, 0x5E4A, "mm/sem.c", 77);
        sem.set_dispatcher(Some(d));

        assert!(sem.try_down());
        assert!(sem.try_down());
        assert!(!sem.try_down(), "capacity exhausted");
        assert_eq!(mon.outstanding(), vec![(0x5E4A, 2)]);
        sem.up();
        sem.up();
        assert!(mon.outstanding().is_empty());
        assert!(mon.violations().is_empty());
        // The over-release bug is observed, not prevented:
        sem.up();
        assert_eq!(mon.violations().len(), 1);
        assert_eq!(sem.available(), 3);
    }
}
