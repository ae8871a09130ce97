//! A minimal test-and-set spinlock for the simulator's hot paths.
//!
//! The kernel structures the simulator models (fd tables, socket tables,
//! the buffer cache) guard critical sections of a few dozen nanoseconds.
//! A general-purpose mutex pays two locked RMWs per round trip — one to
//! acquire, one to release. This lock releases with a plain store: the
//! acquire is the only lock-prefixed instruction, which measurably matters
//! on paths taken several times per simulated syscall.
//!
//! Contention strategy: spin on a relaxed load (no cache-line ping-pong
//! while waiting), yield to the scheduler after a bounded number of spins
//! so an oversubscribed host never livelocks on a preempted holder.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

use crate::stats::LockContention;

/// A spinlock protecting `T`. API mirrors `parking_lot::Mutex` for the
/// subset the simulator uses (`new`, `lock`, guard deref).
///
/// Contention is observable: attach a [`LockContention`] counter (from
/// [`crate::stats::register_lock`]) with [`SpinMutex::set_contention`] and
/// every contended acquire records itself plus its spin count. The
/// counters cost nothing on the uncontended fast path — they are only
/// touched from the `#[cold]` slow path.
#[derive(Default)]
pub struct SpinMutex<T> {
    locked: AtomicBool,
    contention: AtomicPtr<LockContention>,
    value: UnsafeCell<T>,
}

// SAFETY: same bounds as a mutex. The guard hands out &mut T to one thread
// at a time (the Acquire CAS on `locked` admits one holder, the Release
// store in `drop` publishes its writes), so T need only be Send.
unsafe impl<T: Send> Send for SpinMutex<T> {}
// SAFETY: as above; shared `&SpinMutex` only reaches T through `lock`.
unsafe impl<T: Send> Sync for SpinMutex<T> {}

/// RAII guard; releases with a single release store on drop.
pub struct SpinMutexGuard<'a, T> {
    lock: &'a SpinMutex<T>,
}

impl<T> SpinMutex<T> {
    pub const fn new(value: T) -> Self {
        SpinMutex {
            locked: AtomicBool::new(false),
            contention: AtomicPtr::new(std::ptr::null_mut()),
            value: UnsafeCell::new(value),
        }
    }

    /// Attach a contention counter (see [`crate::stats::register_lock`]).
    /// Several locks may share one counter — the a12 table aggregates by
    /// subsystem, not by instance.
    pub fn set_contention(&self, stats: &'static LockContention) {
        self.contention
            .store(stats as *const LockContention as *mut LockContention, Ordering::Relaxed);
    }

    /// Acquire the lock, spinning (then yielding) until it is free.
    #[inline]
    pub fn lock(&self) -> SpinMutexGuard<'_, T> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_contended();
        }
        SpinMutexGuard { lock: self }
    }

    #[cold]
    fn lock_contended(&self) {
        let mut spins = 0u64;
        loop {
            // Wait on a plain load so the line stays shared while held.
            while self.locked.load(Ordering::Relaxed) {
                spins += 1;
                if spins > 1_000 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                let st = self.contention.load(Ordering::Relaxed);
                if !st.is_null() {
                    // SAFETY: `st` is non-null, and the only writer,
                    // `set_contention`, stores a `&'static` counter.
                    unsafe { &*st }.record(spins);
                }
                return;
            }
        }
    }

    /// Exclusive access without locking (owned or newly constructed).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T> Deref for SpinMutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: a live guard means this thread won the Acquire CAS; no
        // other guard exists until `drop` releases `locked`.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinMutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` rules out a second
        // borrow through this guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinMutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SpinMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.locked.load(Ordering::Relaxed) {
            f.debug_struct("SpinMutex").field("locked", &true).finish()
        } else {
            // Racy peek, fine for Debug: the lock may be taken mid-format.
            f.debug_struct("SpinMutex").field("locked", &false).finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guards_exclusive_access() {
        let m = SpinMutex::new(0u64);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn concurrent_increments_do_not_race() {
        let m = Arc::new(SpinMutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 80_000);
    }

    #[test]
    fn contended_acquires_record_into_the_attached_counter() {
        use std::sync::atomic::Ordering::Relaxed;
        let st = crate::stats::register_lock("test.sync.contended");
        let m = Arc::new(SpinMutex::new(0u64));
        m.set_contention(st);
        let held = m.lock();
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        // Give the thread time to hit the contended path, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        h.join().unwrap();
        assert!(st.contended.load(Relaxed) >= 1);
        assert!(st.spins.load(Relaxed) >= 1);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn get_mut_bypasses_locking() {
        let mut m = SpinMutex::new(vec![1, 2]);
        m.get_mut().push(3);
        assert_eq!(m.lock().len(), 3);
    }
}
