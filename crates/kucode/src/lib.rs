//! # kucode
//!
//! A from-scratch Rust reproduction of **"Efficient and Safe Execution of
//! User-Level Code in the Kernel"** (Zadok, Callanan, Rai, Sivathanu,
//! Traeger — NSF NGS Workshop @ IPDPS 2005, Stony Brook FSL).
//!
//! The paper improves application performance by executing user-level code
//! inside the kernel (fewer boundary crossings, fewer copies) and keeps the
//! kernel safe while doing it (guard pages, bounds-checking compilation,
//! event monitoring, watchdogs, segmentation). This crate is the facade
//! over the full reproduction:
//!
//! | Paper component | Crate |
//! |---|---|
//! | Simulated machine (cycles, MMU, segments, scheduler) | [`ksim`] |
//! | Kernel allocators (`kmalloc`, `vmalloc`) | [`kalloc`] |
//! | File systems (memfs, Wrapfs, dcache) + disk model | [`kvfs`] |
//! | Journaled on-disk fs, page cache, crash harness | [`kjfs`] |
//! | System calls, classic + consolidated (`readdirplus`, …) | [`ksyscall`] |
//! | Simulated sockets (listeners, rings, readiness, `sendfile`) | [`knet`] |
//! | Shared SQ/CQ rings for batched asynchronous syscalls | [`kuring`] |
//! | Syscall tracing, pattern mining, savings analysis (§2.2) | [`ktrace`] |
//! | C-subset compiler + bytecode VM (the GCC stand-in) | [`kclang`] |
//! | **Cosy** compound system calls (§2.3) | [`cosy`] |
//! | **Kefence** guard-page bounds checking (§3.2) | [`kefence`] |
//! | Event monitoring: dispatcher, lock-free ring, monitors (§3.3) | [`kevents`] |
//! | **KGCC** bounds-checking runtime + deinstrumentation (§3.4) | [`kgcc`] |
//! | PostMark, Am-utils-like compile, DB scan workloads | [`kworkloads`] |
//! | Deterministic fault injection (the robustness harness) | [`kfault`] |
//! | Verified in-kernel programs (load-time proofs, attach points) | [`kprog`] |
//!
//! # Quickstart
//!
//! ```
//! use kucode::prelude::*;
//!
//! // Assemble a simulated kernel with an in-memory fs and run a compound:
//! let rig = Rig::memfs();
//! let p = rig.user(1 << 16);
//!
//! // open + write + close in ONE user/kernel crossing.
//! let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
//! let db = SharedRegion::new(rig.machine.clone(), p.pid, 2, 1).unwrap();
//! let mut b = CompoundBuilder::new(&cb, &db);
//! let path = b.stage_path("/hello").unwrap();
//! let data = b.stage_bytes(b"hi there").unwrap();
//! let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]);
//! b.syscall(CosyCall::Write, vec![CompoundBuilder::result_of(fd), data,
//!                                 CompoundBuilder::lit(8)]);
//! b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
//! b.finish().unwrap();
//!
//! let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
//! assert_eq!(results[1], 8);
//! assert_eq!(rig.sys.k_stat("/hello").unwrap().size, 8);
//! ```

#![forbid(unsafe_code)]

pub use cosy;
pub use kalloc;
pub use kclang;
pub use kefence;
pub use kevents;
pub use kfault;
pub use kgcc;
pub use kjfs;
pub use knet;
pub use kprog;
pub use ksim;
pub use ksyscall;
pub use ktrace;
pub use kuring;
pub use kvfs;
pub use kworkloads;

/// Everything the examples and benches need, one import away.
pub mod prelude {
    pub use cosy::{
        extract_compound, CompoundBuilder, CosyArg, CosyCall, CosyError, CosyExtension,
        CosyOptions, FallbackMode, IsolationMode, SharedRegion,
    };
    pub use kalloc::{KernelAllocator, SlabAllocator, VfreeIndex, Vmalloc};
    pub use kclang::{parse_program, typecheck, ExecConfig, InterpError, Vm};
    pub use kefence::{Kefence, OnViolation, Protect};
    pub use kevents::{
        BalanceMonitor, CharDev, EventDispatcher, EventRecord, EventRing, EventType, LibKernEvents,
        Probe, ReadMode,
    };
    pub use kfault::{classify, FaultClass, FaultPlane, Policy};
    pub use kgcc::{compile_planned, CheckPlan, Deinstrument, KgccConfig, KgccHook};
    pub use kjfs::{
        default_workload, dir_boundary_workload, Harness, JournalMode, Kjfs, KjfsConfig,
        KjfsStats, Model, WOp,
    };
    pub use knet::{NetError, NetStack, POLL_HUP, POLL_IN, POLL_OUT};
    pub use kprog::{
        Attachment, EventProgram, HookClass, LoadError, ProgEngine, ProgError, ProgSpec,
        RejectRule, Rejection, VerifiedProg,
    };
    pub use ksim::{
        clock::{improvement_pct, overhead_pct},
        cost::cycles_to_secs,
        CostModel, Machine, MachineConfig, Pid, CYCLES_PER_SEC,
    };
    pub use ksyscall::{OpenFlags, SyscallLayer};
    pub use ktrace::{
        estimate_consolidation, mine_patterns, InteractiveTraceGen, SyscallGraph, Sysno, TraceGen,
    };
    pub use kuring::{
        Cqe, Opcode, Sqe, Uring, ECANCELED, IOSQE_FD_CHAIN, IOSQE_FIXED_BUF, IOSQE_LINK, OFF_CURSOR,
    };
    pub use kvfs::{FileKind, Stat, VfsSnapshot};
    pub use kworkloads::{
        chase_kernel, chase_user, probe_cosy, probe_user, run_compile, run_postmark, scan_cosy,
        scan_user, setup_chase, setup_db, ChaseRun, CompileConfig, DbConfig, PostmarkConfig, Rig,
        UserProc,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let rig = Rig::memfs();
        let _ = rig.user(4096);
        let _ = CostModel::default();
    }
}
