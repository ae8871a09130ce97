//! In-tree stand-in for the `parking_lot` API used by this workspace.
//!
//! The build environment has no registry access, so the workspace provides
//! the small slice of the API it uses (`Mutex`, `RwLock`, the guard types)
//! over `std::sync` primitives. Panics while holding a lock do not poison:
//! like the real crate, a poisoned std lock is recovered transparently.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutex that does not poison on panic (API-compatible subset).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]. Keeps a handle on its parent mutex so the
/// lock can be dropped and re-acquired in place ([`MutexGuard::unlocked`],
/// [`Condvar::wait`]), like the real crate's raw-lock plumbing allows.
/// `inner` is `None` only inside those two calls, while the lock is
/// released; both put a std guard back before they return or unwind.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { lock: self, inner: Some(self.0.lock().unwrap_or_else(|e| e.into_inner())) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { lock: self, inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { lock: self, inner: Some(e.into_inner()) })
            }
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Temporarily unlock the mutex, run `f`, then re-acquire the lock
    /// before returning (also on unwind), like `parking_lot`'s.
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        struct Relock<'g, 'a, T: ?Sized>(&'g mut MutexGuard<'a, T>);
        impl<'a, T: ?Sized> Drop for Relock<'_, 'a, T> {
            fn drop(&mut self) {
                let m: &'a Mutex<T> = self.0.lock;
                self.0.inner = Some(m.0.lock().unwrap_or_else(|e| e.into_inner()));
            }
        }
        s.inner = None;
        let _relock = Relock(s);
        f()
    }
}

/// A condition variable pairing with [`Mutex`] (API-compatible subset).
/// Waits take `&mut MutexGuard` and re-acquire before returning; a
/// poisoned std lock is recovered transparently, so waits never panic.
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("a reachable guard holds its lock");
        guard.inner = Some(self.0.wait(inner).unwrap_or_else(|e| e.into_inner()));
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("a reachable guard holds its lock")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("a reachable guard holds its lock")
    }
}

/// A reader-writer lock that does not poison on panic.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_and_unpoisoned() {
        let m = Arc::new(Mutex::new(0u32));
        *m.lock() += 1;
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // A panic while locked must not poison.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn unlocked_releases_and_reacquires() {
        let m = Arc::new(Mutex::new(0u32));
        let mut g = m.lock();
        *g += 1;
        let m2 = m.clone();
        let got = MutexGuard::unlocked(&mut g, move || {
            // The lock must be free here: another thread can take it.
            std::thread::spawn(move || *m2.lock() += 10).join().unwrap();
            42
        });
        assert_eq!(got, 42);
        assert_eq!(*g, 11); // reacquired and sees the other thread's write
    }

    #[test]
    fn mutex_recovers_after_a_panic_inside_unlocked() {
        let m = Mutex::new(0u32);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            MutexGuard::unlocked(&mut g, || panic!("inside unlocked"));
        }));
        assert!(r.is_err());
        // The unwind re-locked, then the guard's drop released: the mutex
        // is free and works as before.
        *m.lock() += 1;
        assert_eq!(*m.try_lock().expect("unlocked after the unwind"), 1);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(t.join().unwrap());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }
}
