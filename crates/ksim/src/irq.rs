//! Simulated interrupts.
//!
//! §3.3's non-intrusiveness requirement exists because monitors must be
//! attachable to code that *"is invoked during interrupt handlers"*, where
//! blocking is fatal. This module provides that context: registered
//! handlers run with the in-interrupt flag set, nested interrupts are
//! masked (as on x86 with IF cleared), and anything executed from handler
//! context can assert it via [`IrqController::in_interrupt`] — the event
//! ring's lock-freedom is what makes logging legal here.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{SimError, SimResult};

/// Cycles to enter + exit an interrupt handler (vector dispatch, register
/// save/restore).
pub const IRQ_OVERHEAD_CYCLES: u64 = 900;

/// An interrupt service routine.
pub trait IrqHandler: Send + Sync {
    /// Called with interrupts masked. MUST NOT block — only lock-free
    /// structures (like the event ring) may be touched.
    fn handle(&self, irq: u32);

    fn name(&self) -> &str {
        "anonymous-isr"
    }
}

crate::counters! {
    /// Interrupt delivery counters.
    pub struct IrqCounters => pub struct IrqStats {
        /// Interrupts delivered so far.
        raised,
        /// Interrupts masked away because one was already in service.
        dropped_nested,
    }
}

/// The interrupt controller (PIC analogue).
#[derive(Default)]
pub struct IrqController {
    handlers: RwLock<Vec<(u32, Arc<dyn IrqHandler>)>>,
    in_interrupt: AtomicBool,
    counters: IrqCounters,
}

impl IrqController {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an ISR for vector `irq` (multiple handlers chain).
    pub fn register(&self, irq: u32, handler: Arc<dyn IrqHandler>) {
        self.handlers.write().push((irq, handler));
    }

    /// Remove every handler with the given name.
    pub fn unregister(&self, name: &str) {
        self.handlers.write().retain(|(_, h)| h.name() != name);
    }

    /// Is the CPU currently in interrupt context?
    pub fn in_interrupt(&self) -> bool {
        self.in_interrupt.load(Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IrqStats {
        self.counters.snapshot()
    }

    /// Deliver an interrupt: runs every handler registered for `irq` with
    /// the in-interrupt flag set. Nested delivery is masked (dropped and
    /// counted), as with a cleared IF on x86. Returns how many handlers ran.
    pub fn raise(&self, irq: u32, charge: impl Fn(u64)) -> SimResult<usize> {
        if self
            .in_interrupt
            .compare_exchange(false, true, Relaxed, Relaxed)
            .is_err()
        {
            self.counters.dropped_nested.fetch_add(1, Relaxed);
            return Err(SimError::Invalid("nested interrupt masked"));
        }
        self.counters.raised.fetch_add(1, Relaxed);
        charge(IRQ_OVERHEAD_CYCLES);
        let handlers: Vec<Arc<dyn IrqHandler>> = self
            .handlers
            .read()
            .iter()
            .filter(|(v, _)| *v == irq)
            .map(|(_, h)| h.clone())
            .collect();
        for h in &handlers {
            h.handle(irq);
        }
        self.in_interrupt.store(false, Relaxed);
        Ok(handlers.len())
    }
}

impl std::fmt::Debug for IrqController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrqController")
            .field("stats", &self.stats())
            .field("in_interrupt", &self.in_interrupt())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    struct Counting {
        hits: AtomicUsize,
        tag: &'static str,
    }

    impl IrqHandler for Counting {
        fn handle(&self, _irq: u32) {
            self.hits.fetch_add(1, Relaxed);
        }
        fn name(&self) -> &str {
            self.tag
        }
    }

    #[test]
    fn handlers_run_per_vector_and_charge_overhead() {
        let pic = IrqController::new();
        let timer = Arc::new(Counting { hits: AtomicUsize::new(0), tag: "timer" });
        let disk = Arc::new(Counting { hits: AtomicUsize::new(0), tag: "disk" });
        pic.register(0, timer.clone());
        pic.register(14, disk.clone());

        let charged = AtomicU64::new(0);
        let charge = |c: u64| {
            charged.fetch_add(c, Relaxed);
        };
        assert_eq!(pic.raise(0, charge).unwrap(), 1);
        assert_eq!(pic.raise(0, charge).unwrap(), 1);
        assert_eq!(pic.raise(14, charge).unwrap(), 1);
        assert_eq!(timer.hits.load(Relaxed), 2);
        assert_eq!(disk.hits.load(Relaxed), 1);
        assert_eq!(charged.load(Relaxed), 3 * IRQ_OVERHEAD_CYCLES);
        assert_eq!(pic.stats().raised, 3);
        assert_eq!(pic.raise(7, |_| {}).unwrap(), 0, "no handler: spurious");
    }

    #[test]
    fn in_interrupt_flag_is_visible_to_handlers_and_nesting_is_masked() {
        struct Prober {
            pic: Arc<IrqController>,
            saw_flag: AtomicBool,
            nested_rejected: AtomicBool,
        }
        impl IrqHandler for Prober {
            fn handle(&self, _irq: u32) {
                self.saw_flag.store(self.pic.in_interrupt(), Relaxed);
                // A nested raise from interrupt context must be masked.
                if self.pic.raise(0, |_| {}).is_err() {
                    self.nested_rejected.store(true, Relaxed);
                }
            }
        }
        let pic = Arc::new(IrqController::new());
        let prober = Arc::new(Prober {
            pic: pic.clone(),
            saw_flag: AtomicBool::new(false),
            nested_rejected: AtomicBool::new(false),
        });
        pic.register(3, prober.clone());
        assert!(!pic.in_interrupt());
        pic.raise(3, |_| {}).unwrap();
        assert!(prober.saw_flag.load(Relaxed), "flag set inside the ISR");
        assert!(prober.nested_rejected.load(Relaxed), "nesting masked");
        assert!(!pic.in_interrupt(), "flag cleared after return");
        assert_eq!(pic.stats().dropped_nested, 1);
    }

    #[test]
    fn unregister_by_name() {
        let pic = IrqController::new();
        let h = Arc::new(Counting { hits: AtomicUsize::new(0), tag: "gone" });
        pic.register(1, h.clone());
        pic.unregister("gone");
        assert_eq!(pic.raise(1, |_| {}).unwrap(), 0);
        assert_eq!(h.hits.load(Relaxed), 0);
    }
}
