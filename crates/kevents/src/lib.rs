//! `kevents` — the paper's event-monitoring infrastructure (§3.3, Fig. 1).
//!
//! Structure (Figure 1 of the paper):
//!
//! ```text
//!   instrumented kernel code
//!        │ log_event(record)
//!        ▼
//!   [EventDispatcher] ──sync──▶ in-kernel monitors (callbacks)
//!        │
//!        ▼ lock-free, never blocks
//!   [EventRing] ──▶ [CharDev] ──▶ user space (libkernevents bulk reads)
//! ```
//!
//! Design requirements straight from the paper:
//!
//! * **Generality** — events are a tiny fixed record: the affected object's
//!   address, an event type, the source file/line, and an optional value
//!   ([`EventRecord`]).
//! * **Non-intrusiveness** — the ring buffer is lock-free so scheduler and
//!   interrupt paths can be instrumented without any risk of blocking
//!   ([`ring::EventRing`], a bounded Vyukov-style MPMC queue built per the
//!   idioms in *Rust Atomics and Locks*).
//! * **Performance sensitivity** — hot events are consumed by in-kernel
//!   callbacks registered with the dispatcher; infrequent analysis happens
//!   in user space through the character-device interface
//!   ([`chardev::CharDev`] + [`chardev::LibKernEvents`]).
//!
//! Instrumented code reaches the dispatcher through one [`Probe`] slot
//! (the lock, refcount and semaphore wrappers, Kefence's violation report
//! and Cosy's oops sink all hold one). The supplied on-line monitor,
//! [`BalanceMonitor`], verifies the higher-level invariants the paper
//! lists as one open/close balance check: spinlocks that are locked are
//! later unlocked ([`BalanceMonitor::spinlock`]), reference counts stay
//! symmetric and non-negative ([`BalanceMonitor::refcount`]), disabled
//! interrupts are re-enabled ([`BalanceMonitor::irq`]), and semaphore ups
//! match downs ([`BalanceMonitor::semaphore`]).

pub mod chardev;
pub mod dispatch;
pub mod instrument;
pub mod logfile;
pub mod monitors;
pub mod record;
pub mod ring;

pub use chardev::{CharDev, CharDevStats, LibKernEvents, ReadMode};
pub use dispatch::{DispatchStats, EventDispatcher, EventMonitor, EventTransform, Probe};
pub use instrument::{InstrumentedRefcount, InstrumentedSemaphore, InstrumentedSpinLock};
pub use monitors::{BalanceMonitor, BalanceStats, Violation};
pub use logfile::{read_log, replay, write_log, LoggedEvent};
pub use record::{EventRecord, EventType, OOPS_EVENT, RECORDS_LOST_EVENT};
pub use ring::{EventRing, RingStats};
