//! `ksim` — deterministic kernel-machine simulator.
//!
//! This crate is the hardware/OS substrate for the `kucode` reproduction of
//! *"Efficient and Safe Execution of User-Level Code in the Kernel"*
//! (Zadok et al., IPDPS 2005 NSF NGS workshop).
//!
//! The paper's performance results are counting arguments: system calls cost
//! a fixed user↔kernel crossing overhead plus a per-byte copy cost, page
//! faults and TLB misses cost cycles, and disks cost seek + rotation +
//! transfer time. `ksim` models exactly those quantities with a deterministic
//! cycle [`Clock`] and an explicit [`CostModel`], so experiments report
//! `elapsed / user / system` times the way `time(1)` does on real hardware.
//!
//! The major pieces:
//!
//! * [`CostModel`] — cycle prices for every simulated hardware event,
//!   calibrated to the paper's 1.7 GHz Pentium 4 testbed.
//! * [`Clock`] — lock-free cycle accounting split into user, system, and
//!   I/O-wait buckets.
//! * [`mem`] — physical page frames, per-address-space page tables with
//!   guard-PTE support, a fault-handler chain, and a TLB model. This is the
//!   mechanism Kefence (guard pages) is built on.
//! * [`seg`] — x86-style segmentation (base/limit checks), the mechanism
//!   behind Cosy's two isolation modes.
//! * [`proc`] — processes, a preemptive round-robin scheduler, and the
//!   kernel-time watchdog bookkeeping Cosy uses to kill runaway compounds.
//! * [`Machine`] — ties the above together and implements the user↔kernel
//!   boundary (`enter_kernel`, `copy_from_user`, ...) that charges the
//!   crossing and copy costs every experiment in the paper measures.
//!
//! # Example
//!
//! ```
//! use ksim::{Machine, MachineConfig};
//!
//! let m = Machine::new(MachineConfig::default());
//! let pid = m.spawn_process();
//! // A user program performs a system call: enter the kernel, copy an
//! // argument buffer in, do work, and return.
//! let token = m.enter_kernel(pid).unwrap();
//! m.charge_sys(1_000);
//! m.exit_kernel(token);
//! assert!(m.clock.sys_cycles() > 1_000); // includes crossing costs
//! ```

pub mod clock;
pub mod cost;
pub mod error;
pub mod hash;
pub mod irq;
pub mod machine;
pub mod mem;
pub mod proc;
pub mod seg;
pub mod stats;
pub mod sync;

pub use kfault;

pub use clock::{BatchGuard, Clock};
pub use cost::{CostModel, CYCLES_PER_SEC};
pub use error::{SimError, SimResult};
pub use hash::{
    fnv1a, fnv1a_continue, ByteCache, ByteCacheEntry, ByteCacheStats, FxBuildHasher, FxHashMap,
    FxHashSet, FxHasher,
};
pub use irq::{IrqController, IrqHandler, IrqStats, IRQ_OVERHEAD_CYCLES};
pub use machine::{thread_cpu, CpuBinding, KernelToken, Machine, MachineConfig};
pub use mem::{
    AccessKind, AddressSpace, AsId, Fault, FaultHandler, FaultKind, FaultResolution, MemSys, Pfn,
    PhysMemory, Pte, PteFlags, Tlb, PAGE_SHIFT, PAGE_SIZE,
};
pub use proc::{Pid, ProcState, Process, SchedStats, SmpScheduler};
pub use seg::{SegKind, SegSelector, Segment, SegmentTable};
pub use stats::{
    lock_contention_report, register_lock, reset_lock_contention, ContentionStats,
    LockContention, Stats,
};
pub use sync::{SpinMutex, SpinMutexGuard};
