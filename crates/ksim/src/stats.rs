//! Machine-wide event counters, and [`counters!`](crate::counters!), which declares every
//! layer's counter set.
//!
//! All counters are relaxed atomics (statistics pattern from *Rust Atomics
//! and Locks*): increments are hot paths, reads happen after workloads end.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Declare a counter set once and get its plumbing generated.
///
/// The atomic form, `Live => Snapshot { fields }`, generates the live
/// struct (one relaxed `AtomicU64` per field, incremented in place by the
/// owning layer), a plain-`u64` snapshot struct with the same field names,
/// `Live::snapshot()`, `Live::reset()` and `Snapshot::delta()`.
///
/// The lock-held form, `Snapshot { fields }`, generates only the snapshot
/// struct and `delta()`, for a layer that already bumps plain `u64`s under
/// its own lock and hands out copies.
///
/// Each field's doc comment is written once and lands on both structs.
/// Only monotonic counters belong here: `delta` subtracts field-wise, so a
/// gauge that shrank between two snapshots would underflow. [`Stats`]
/// below is the atomic form; kjfs's `KjfsStats` is the lock-held form.
#[macro_export]
macro_rules! counters {
    (
        $(#[$lmeta:meta])*
        $lvis:vis struct $live:ident => $(#[$smeta:meta])* $svis:vis struct $snap:ident {
            $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$lmeta])*
        #[derive(Debug, Default)]
        $lvis struct $live {
            $( $(#[$fmeta])* pub $field: ::std::sync::atomic::AtomicU64, )*
        }

        $crate::counters! {
            #[doc = concat!("A plain-data snapshot of `", stringify!($live), "`.")]
            $(#[$smeta])*
            $svis struct $snap { $( $(#[$fmeta])* $field ),* }
        }

        impl $live {
            /// Read every counter (relaxed).
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed) ),* }
            }

            /// Zero every counter (between measurement phases).
            pub fn reset(&self) {
                $( self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed); )*
            }
        }
    };
    (
        $(#[$smeta:meta])*
        $svis:vis struct $snap:ident {
            $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $snap {
            /// Counter movement since an `earlier` snapshot (field-wise
            /// subtract).
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap { $( $field: self.$field - earlier.$field ),* }
            }
        }
    };
}

counters! {
    /// Counters for every simulated event class the experiments report.
    pub struct Stats => pub struct StatsSnapshot {
        /// System calls dispatched (each is one user↔kernel round trip).
        syscalls,
        /// User↔kernel boundary crossings (round trips). One Cosy compound
        /// is a single crossing no matter how many operations it executes,
        /// which is exactly the quantity the paper's speedups come from.
        crossings,
        /// Bytes copied from user space into the kernel.
        bytes_copied_in,
        /// Bytes copied from the kernel out to user space.
        bytes_copied_out,
        /// Process context switches performed by the scheduler.
        context_switches,
        /// Page faults taken (all kinds).
        page_faults,
        /// Guardian-PTE hits (Kefence violations detected).
        guard_hits,
        /// Disk read operations.
        disk_reads,
        /// Disk write operations.
        disk_writes,
        /// Preemption ticks observed (watchdog checkpoints).
        preempt_ticks,
        /// Compounds executed by the Cosy kernel extension.
        compounds,
        /// Individual operations executed inside compounds.
        compound_ops,
    }
}

impl StatsSnapshot {
    /// Total bytes that crossed the user/kernel boundary in either direction.
    pub fn bytes_crossed(&self) -> u64 {
        self.bytes_copied_in + self.bytes_copied_out
    }
}

/// Contention counters for one named lock (or a family of locks sharing a
/// name — fd tables register per subsystem, not per pid). Recorded only
/// from [`crate::SpinMutex`]'s contended slow path, so attaching one costs
/// nothing while a lock stays uncontended.
#[derive(Debug)]
pub struct LockContention {
    pub name: &'static str,
    /// Acquires that found the lock held and had to spin.
    pub contended: AtomicU64,
    /// Total relaxed-load iterations spent waiting across those acquires.
    pub spins: AtomicU64,
}

impl LockContention {
    pub fn record(&self, spins: u64) {
        self.contended.fetch_add(1, Relaxed);
        self.spins.fetch_add(spins, Relaxed);
    }
}

/// Process-wide registry of lock-contention counters; entries are leaked
/// once per distinct name and live for the process.
static LOCK_REGISTRY: Mutex<Vec<&'static LockContention>> = Mutex::new(Vec::new());

/// Get-or-create the contention counter for `name`. Repeated calls with
/// the same name return the same counter, so re-built subsystems (every
/// bench episode makes a fresh `NetStack`) aggregate instead of leaking.
pub fn register_lock(name: &'static str) -> &'static LockContention {
    let mut reg = LOCK_REGISTRY.lock().unwrap();
    if let Some(e) = reg.iter().find(|e| e.name == name) {
        return e;
    }
    let e: &'static LockContention = Box::leak(Box::new(LockContention {
        name,
        contended: AtomicU64::new(0),
        spins: AtomicU64::new(0),
    }));
    reg.push(e);
    e
}

/// Snapshot every registered lock: `(name, contended acquires, spins)`,
/// in registration order.
pub fn lock_contention_report() -> Vec<(&'static str, u64, u64)> {
    LOCK_REGISTRY
        .lock()
        .unwrap()
        .iter()
        .map(|e| (e.name, e.contended.load(Relaxed), e.spins.load(Relaxed)))
        .collect()
}

/// Zero every registered counter (between measurement windows).
pub fn reset_lock_contention() {
    for e in LOCK_REGISTRY.lock().unwrap().iter() {
        e.contended.store(0, Relaxed);
        e.spins.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Stats::default();
        s.syscalls.fetch_add(10, Relaxed);
        s.bytes_copied_in.fetch_add(100, Relaxed);
        let a = s.snapshot();
        s.syscalls.fetch_add(5, Relaxed);
        s.bytes_copied_out.fetch_add(7, Relaxed);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.syscalls, 5);
        assert_eq!(d.bytes_copied_in, 0);
        assert_eq!(d.bytes_copied_out, 7);
        assert_eq!(b.bytes_crossed(), 107);
    }

    #[test]
    fn lock_registry_aggregates_by_name() {
        let a = register_lock("test.stats.lock");
        let b = register_lock("test.stats.lock");
        assert!(std::ptr::eq(a, b), "same name, same counter");
        a.record(17);
        let rep = lock_contention_report();
        let row = rep.iter().find(|r| r.0 == "test.stats.lock").unwrap();
        assert!(row.1 >= 1);
        assert!(row.2 >= 17);
    }

    #[test]
    fn reset_clears_all() {
        let s = Stats::default();
        s.guard_hits.fetch_add(3, Relaxed);
        s.compounds.fetch_add(2, Relaxed);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
