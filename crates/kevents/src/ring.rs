//! Lock-free bounded event ring.
//!
//! The paper: *"user-space event monitors receive events through a character
//! device interface to a lock-free ring buffer. Because the ring buffer is
//! lock-free, we can instrument code that is invoked during interrupt
//! handlers without fear that the interrupt handler will block."*
//!
//! This is a bounded multi-producer/multi-consumer queue in the style of
//! Vyukov's array queue: each slot carries a sequence number, producers and
//! consumers claim positions with a CAS, and all hand-off is by
//! acquire/release on the slot sequence (see *Rust Atomics and Locks*,
//! ch. 10 patterns). `push` **never blocks and never spins unboundedly**:
//! when the ring is full the event is dropped and counted, which is the
//! correct behaviour for instrumentation (losing a log entry is acceptable;
//! deadlocking an interrupt handler is not).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::record::EventRecord;

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<EventRecord>>,
}

ksim::counters! {
    /// Push-side counters.
    pub(crate) struct RingCounters => pub struct RingStats {
        /// Events successfully pushed.
        pushed,
        /// Events dropped: the ring was full, or [`EventRing::note_dropped`].
        dropped,
    }
}

/// Lock-free bounded MPMC ring of [`EventRecord`]s.
pub struct EventRing {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    pub(crate) counters: RingCounters,
}

// SAFETY: slots are only accessed after winning a CAS on the position
// counters, and the seq protocol publishes writes with Release/Acquire.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl EventRing {
    /// Create a ring with capacity rounded up to the next power of two
    /// (minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            counters: RingCounters::default(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Push an event. Returns `false` (and counts a drop) when full.
    /// Never blocks: safe from simulated interrupt/scheduler context.
    pub fn push(&self, rec: EventRecord) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    match self.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: we won the CAS for this position; no
                            // other thread touches the slot until we bump seq.
                            unsafe { (*slot.value.get()).write(rec) };
                            slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                            self.counters.pushed.fetch_add(1, Ordering::Relaxed);
                            return true;
                        }
                        Err(found) => pos = found,
                    }
                }
                d if d < 0 => {
                    // Slot still holds an unconsumed record: ring is full.
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
                _ => pos = self.enqueue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Pop one event, if any.
    pub fn pop(&self) -> Option<EventRecord> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - (pos.wrapping_add(1)) as isize {
                0 => {
                    match self.dequeue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: we won the CAS; the producer published
                            // the value with Release before setting seq.
                            let rec = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.seq
                                .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                            return Some(rec);
                        }
                        Err(found) => pos = found,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.dequeue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Pop up to `max` events into `out` (the libkernevents bulk copy).
    /// Returns the number of events transferred.
    pub fn pop_bulk(&self, out: &mut Vec<EventRecord>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(rec) => {
                    out.push(rec);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Approximate number of queued events.
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Relaxed);
        let head = self.dequeue_pos.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RingStats {
        self.counters.snapshot()
    }

    /// Count a drop that happened upstream of the ring — e.g. the
    /// dispatcher hit an injected ring-full fault before attempting the
    /// push. Keeps the loss visible through the same counter readers
    /// already consult.
    pub fn note_dropped(&self) {
        self.counters.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventType;
    use std::sync::Arc;

    fn rec(i: u64) -> EventRecord {
        EventRecord::new(i, EventType::Custom(0), "t", 1, i as i64)
    }

    #[test]
    fn fifo_order_single_threaded() {
        let r = EventRing::with_capacity(8);
        for i in 0..5 {
            assert!(r.push(rec(i)));
        }
        assert_eq!(r.len(), 5);
        for i in 0..5 {
            assert_eq!(r.pop().unwrap().obj, i);
        }
        assert!(r.pop().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let r = EventRing::with_capacity(4);
        for i in 0..4 {
            assert!(r.push(rec(i)));
        }
        assert!(!r.push(rec(99)), "push on full ring must fail fast");
        assert_eq!(r.stats(), RingStats { pushed: 4, dropped: 1 });
        // Draining re-opens capacity.
        r.pop().unwrap();
        assert!(r.push(rec(100)));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(5).capacity(), 8);
        assert_eq!(EventRing::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn bulk_pop_transfers_up_to_max() {
        let r = EventRing::with_capacity(16);
        for i in 0..10 {
            r.push(rec(i));
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_bulk(&mut out, 4), 4);
        assert_eq!(r.pop_bulk(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        let objs: Vec<u64> = out.iter().map(|e| e.obj).collect();
        assert_eq!(objs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wraparound_many_times() {
        let r = EventRing::with_capacity(4);
        for round in 0..100u64 {
            for i in 0..3 {
                assert!(r.push(rec(round * 3 + i)));
            }
            for i in 0..3 {
                assert_eq!(r.pop().unwrap().obj, round * 3 + i);
            }
        }
    }

    #[test]
    fn mpmc_stress_no_loss_no_duplication() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 5_000;
        let r = Arc::new(EventRing::with_capacity(1024));
        let consumed = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));

        let mut handles = Vec::new();
        for p in 0..PRODUCERS as u64 {
            let r = r.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    // Spin until accepted: this test must not drop.
                    while !r.push(rec(p * PER_PRODUCER + i)) {
                        std::hint::spin_loop();
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for _ in 0..2 {
            let r = r.clone();
            let consumed = consumed.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    match r.pop() {
                        Some(e) => local.push(e.obj),
                        None => {
                            if done.load(Ordering::SeqCst) == PRODUCERS && r.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
                consumed.lock().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = consumed.lock().clone();
        got.sort_unstable();
        let expect: Vec<u64> = (0..PRODUCERS as u64 * PER_PRODUCER).collect();
        assert_eq!(got, expect, "every pushed event consumed exactly once");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::record::EventType;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        /// Single-threaded, the ring behaves exactly like a bounded VecDeque.
        #[test]
        fn matches_vecdeque_model(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let r = EventRing::with_capacity(8);
            let cap = r.capacity();
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            for op in ops {
                match op {
                    0 | 1 => {
                        let ok = r.push(EventRecord::new(next, EventType::Custom(1), "p", 0, 0));
                        if model.len() < cap {
                            prop_assert!(ok);
                            model.push_back(next);
                        } else {
                            prop_assert!(!ok);
                        }
                        next += 1;
                    }
                    _ => {
                        let got = r.pop().map(|e| e.obj);
                        prop_assert_eq!(got, model.pop_front());
                    }
                }
                prop_assert_eq!(r.len(), model.len());
            }
        }
    }
}
