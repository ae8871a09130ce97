//! The event dispatcher (`log_event` in the paper).
//!
//! *"The `log_event` call invokes an event dispatcher, which in turn invokes
//! a set of callbacks. When high performance is needed, an event monitor
//! should be developed as a kernel module and register a callback with the
//! dispatcher."* Kernel-space monitors run synchronously here; user-space
//! monitors receive events through the ring buffer (see [`crate::chardev`]).

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use ksim::Machine;

use crate::record::EventRecord;
use crate::ring::EventRing;

/// An in-kernel on-line event monitor (a dispatcher callback).
pub trait EventMonitor: Send + Sync {
    /// Called synchronously for every event while registered.
    fn on_event(&self, rec: &EventRecord);

    /// Diagnostic name.
    fn name(&self) -> &str {
        "anonymous-monitor"
    }
}

/// A dispatch transform: runs *before* the callbacks and the ring, may
/// rewrite the record's payload, and may drop it entirely. This is the
/// kevents attach point for verified kprog programs (filter/redact event
/// streams in the kernel instead of draining everything to user space),
/// but any in-kernel filter can implement it.
pub trait EventTransform: Send + Sync {
    /// Return `false` to drop the record; `true` keeps (possibly mutated).
    fn transform(&self, rec: &mut EventRecord) -> bool;

    /// Diagnostic name.
    fn name(&self) -> &str {
        "anonymous-transform"
    }
}

ksim::counters! {
    /// Dispatch counters, bumped on the `log_event` path.
    struct DispatchCounters => pub struct DispatchStats {
        /// Events dispatched (including those a transform then dropped).
        events,
        /// Records dropped by the transform.
        dropped_by_transform,
    }
}

/// The dispatcher: fan-out point between instrumented code, in-kernel
/// callbacks, and the user-space ring.
pub struct EventDispatcher {
    machine: Arc<Machine>,
    callbacks: RwLock<Vec<Arc<dyn EventMonitor>>>,
    transform: RwLock<Option<Arc<dyn EventTransform>>>,
    /// Mirrors `transform.is_some()`: the untransformed hot path tests one
    /// relaxed load instead of taking the lock.
    has_transform: AtomicBool,
    ring: RwLock<Option<Arc<EventRing>>>,
    enabled: AtomicBool,
    counters: DispatchCounters,
}

impl EventDispatcher {
    pub fn new(machine: Arc<Machine>) -> Self {
        EventDispatcher {
            machine,
            callbacks: RwLock::new(Vec::new()),
            transform: RwLock::new(None),
            has_transform: AtomicBool::new(false),
            ring: RwLock::new(None),
            enabled: AtomicBool::new(true),
            counters: DispatchCounters::default(),
        }
    }

    /// Register a synchronous in-kernel callback.
    pub fn register(&self, monitor: Arc<dyn EventMonitor>) {
        self.callbacks.write().push(monitor);
    }

    /// Remove every callback with the given name.
    pub fn unregister(&self, name: &str) {
        self.callbacks.write().retain(|m| m.name() != name);
    }

    /// Install the dispatch transform (replacing any previous one). At
    /// most one transform is active: composition belongs inside a program,
    /// not in dispatcher ordering rules.
    pub fn attach_transform(&self, t: Arc<dyn EventTransform>) {
        *self.transform.write() = Some(t);
        self.has_transform.store(true, Relaxed);
    }

    /// Remove the dispatch transform.
    pub fn detach_transform(&self) {
        self.has_transform.store(false, Relaxed);
        *self.transform.write() = None;
    }

    /// Attach the ring buffer that feeds the character device.
    pub fn attach_ring(&self, ring: Arc<EventRing>) {
        *self.ring.write() = Some(ring);
    }

    /// Detach the user-space ring.
    pub fn detach_ring(&self) {
        *self.ring.write() = None;
    }

    /// Master switch: with instrumentation compiled in but disabled, only
    /// the flag test is paid (the baseline configuration in §3.3's control).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DispatchStats {
        self.counters.snapshot()
    }

    /// The `log_event` entry point. Safe from any simulated context: the
    /// callback list is read-locked (monitors register at setup time, not
    /// from instrumented paths) and the ring push is lock-free.
    #[inline]
    pub fn log_event(&self, rec: EventRecord) {
        if !self.enabled.load(Relaxed) {
            return;
        }
        self.counters.events.fetch_add(1, Relaxed);
        self.machine.charge_sys(self.machine.cost.event_dispatch);

        let mut rec = rec;
        if self.has_transform.load(Relaxed) {
            let t = self.transform.read().clone();
            if let Some(t) = t {
                if !t.transform(&mut rec) {
                    self.counters.dropped_by_transform.fetch_add(1, Relaxed);
                    return;
                }
            }
        }

        for cb in self.callbacks.read().iter() {
            cb.on_event(&rec);
        }
        if let Some(ring) = self.ring.read().as_ref() {
            // Injected ring-full: the record is lost exactly as if a real
            // burst had filled the ring — counted, never blocking.
            if self.machine.faults.should_fail(kfault::sites::KEVENTS_RING_FULL) {
                ring.note_dropped();
            } else {
                ring.push(rec);
            }
        }
    }
}

/// One optional-dispatcher slot: how instrumented code reaches
/// `log_event`. With nothing attached (the vanilla baseline) `emit` costs
/// one relaxed flag load and takes no lock.
#[derive(Debug, Default)]
pub struct Probe {
    dispatcher: RwLock<Option<Arc<EventDispatcher>>>,
    /// Mirrors `dispatcher.is_some()`.
    attached: AtomicBool,
}

impl Probe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a dispatcher, or `None` to return to the vanilla baseline.
    pub fn set_dispatcher(&self, d: Option<Arc<EventDispatcher>>) {
        let mut slot = self.dispatcher.write();
        self.attached.store(d.is_some(), Relaxed);
        *slot = d;
    }

    /// Whether a dispatcher is attached.
    pub fn is_attached(&self) -> bool {
        self.attached.load(Relaxed)
    }

    /// Hand `rec` to the attached dispatcher, if any.
    #[inline]
    pub fn emit(&self, rec: EventRecord) {
        if self.is_attached() {
            if let Some(d) = self.dispatcher.read().as_ref() {
                d.log_event(rec);
            }
        }
    }
}

impl std::fmt::Debug for EventDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventDispatcher")
            .field("enabled", &self.is_enabled())
            .field("stats", &self.stats())
            .field("callbacks", &self.callbacks.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EventType;
    use ksim::MachineConfig;
    use std::sync::atomic::AtomicUsize;

    struct Counter {
        n: AtomicUsize,
    }
    impl EventMonitor for Counter {
        fn on_event(&self, _rec: &EventRecord) {
            self.n.fetch_add(1, Relaxed);
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    fn dispatcher() -> EventDispatcher {
        EventDispatcher::new(Arc::new(Machine::new(MachineConfig::default())))
    }

    fn rec() -> EventRecord {
        EventRecord::new(1, EventType::LockAcquire, "d", 1, 0)
    }

    #[test]
    fn callbacks_receive_every_event() {
        let d = dispatcher();
        let c = Arc::new(Counter { n: AtomicUsize::new(0) });
        d.register(c.clone());
        for _ in 0..10 {
            d.log_event(rec());
        }
        assert_eq!(c.n.load(Relaxed), 10);
        assert_eq!(d.stats().events, 10);
    }

    #[test]
    fn disabled_dispatcher_is_a_noop() {
        let d = dispatcher();
        let c = Arc::new(Counter { n: AtomicUsize::new(0) });
        d.register(c.clone());
        d.set_enabled(false);
        let sys0 = d.machine.clock.sys_cycles();
        d.log_event(rec());
        assert_eq!(c.n.load(Relaxed), 0);
        assert_eq!(d.stats().events, 0);
        assert_eq!(d.machine.clock.sys_cycles(), sys0, "no cycles charged");
    }

    #[test]
    fn ring_receives_events_when_attached() {
        let d = dispatcher();
        let ring = Arc::new(EventRing::with_capacity(8));
        d.attach_ring(ring.clone());
        d.log_event(rec());
        d.log_event(rec());
        assert_eq!(ring.len(), 2);
        d.detach_ring();
        d.log_event(rec());
        assert_eq!(ring.len(), 2, "detached ring no longer fed");
    }

    #[test]
    fn unregister_by_name() {
        let d = dispatcher();
        let c = Arc::new(Counter { n: AtomicUsize::new(0) });
        d.register(c.clone());
        d.unregister("counter");
        d.log_event(rec());
        assert_eq!(c.n.load(Relaxed), 0);
    }

    struct DropOdd;
    impl EventTransform for DropOdd {
        fn transform(&self, rec: &mut EventRecord) -> bool {
            rec.value *= 10;
            rec.obj.is_multiple_of(2)
        }
        fn name(&self) -> &str {
            "drop-odd"
        }
    }

    #[test]
    fn transform_filters_and_rewrites_before_callbacks_and_ring() {
        struct Last {
            v: std::sync::atomic::AtomicI64,
        }
        impl EventMonitor for Last {
            fn on_event(&self, rec: &EventRecord) {
                self.v.store(rec.value, Relaxed);
            }
        }
        let d = dispatcher();
        let last = Arc::new(Last { v: std::sync::atomic::AtomicI64::new(-1) });
        let ring = Arc::new(EventRing::with_capacity(8));
        d.register(last.clone());
        d.attach_ring(ring.clone());
        d.attach_transform(Arc::new(DropOdd));
        d.log_event(EventRecord::new(1, EventType::RefInc, "t", 1, 5)); // odd obj: dropped
        d.log_event(EventRecord::new(2, EventType::RefInc, "t", 1, 7)); // kept, value x10
        assert_eq!(ring.len(), 1, "dropped record reaches neither ring nor callbacks");
        assert_eq!(last.v.load(Relaxed), 70, "kept record arrives rewritten");
        assert_eq!(d.stats().dropped_by_transform, 1);
        assert_eq!(d.stats().events, 2, "dropped records still count as dispatched");
        d.detach_transform();
        d.log_event(EventRecord::new(3, EventType::RefInc, "t", 1, 9));
        assert_eq!(ring.len(), 2, "detached transform no longer filters");
        assert_eq!(last.v.load(Relaxed), 9, "and no longer rewrites");
    }

    #[test]
    fn dispatch_charges_event_cost() {
        let d = dispatcher();
        let sys0 = d.machine.clock.sys_cycles();
        d.log_event(rec());
        assert_eq!(
            d.machine.clock.sys_cycles() - sys0,
            d.machine.cost.event_dispatch
        );
    }
}
