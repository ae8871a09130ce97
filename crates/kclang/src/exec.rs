//! The execution contract every KC engine runs under: configuration,
//! outcome, errors, checked memory access and the host interfaces. The
//! bytecode [`Vm`](crate::Vm) is the engine; the tree-walking
//! [`Interp`](crate::Interp) is its reference and runs under the same
//! contract.
//!
//! Three properties make this the right execution substrate for the paper's
//! mechanisms:
//!
//! 1. **Real simulated memory** — every variable, array, and `malloc` block
//!    lives in a `ksim` address space; loads and stores go through the MMU.
//!    Kefence guard pages, unmapped holes, and page permissions genuinely
//!    fault.
//! 2. **Segment enforcement** — in [`SegMode::Segmented`], every data
//!    access is bounds-checked against an x86-style segment descriptor:
//!    Cosy's isolation modes A and B (§2.3).
//! 3. **Budgeted execution** — a fuel limit plus a periodic tick callback
//!    give the Cosy watchdog its preemption points: a runaway `while(1)`
//!    is killed, not looped forever.

use std::fmt;

use ksim::{AsId, Machine, SegSelector, SimError};

use crate::ast::SourceLoc;
use crate::hooks::CheckViolation;

/// Guest call depth at which a run stops with `Oom("call stack")`. Both
/// engines enforce it, and kprog's verifier proves programs against it, so
/// runaway recursion is a guest error, never a host stack overflow.
pub const MAX_CALL_DEPTH: usize = 120;

/// How data accesses are validated (Cosy isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegMode {
    /// No segment checks (normal kernel or user execution).
    Flat,
    /// Every access must fall inside this segment (modes A and B place the
    /// function's data in an isolated segment).
    Segmented(SegSelector),
}

/// The tick callback runs every this many evaluation steps (watchdog
/// granularity).
pub const TICK_EVERY: u64 = 64;

/// Simulated cycles charged per evaluation step.
pub const CYCLES_PER_STEP: u64 = 4;

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Address space program data lives in.
    pub asid: AsId,
    pub seg: SegMode,
    /// Charge interpreter cycles to system (kernel-mode run) or user time.
    pub charge_sys: bool,
    /// Abort after this many evaluation steps (`None` = unlimited).
    pub max_steps: Option<u64>,
}

impl ExecConfig {
    pub fn flat(asid: AsId) -> Self {
        ExecConfig {
            asid,
            seg: SegMode::Flat,
            charge_sys: false,
            max_steps: Some(100_000_000),
        }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    pub ret: i64,
    pub steps: u64,
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    NoSuchFunction(String),
    UndefinedVar(String),
    BadCall(String),
    DivByZero(SourceLoc),
    /// Fuel exhausted.
    Timeout { steps: u64 },
    /// Killed by the tick callback (Cosy watchdog).
    Killed(String),
    /// A machine-level memory fault (page fault, guard page).
    Mem(SimError),
    /// An instrumentation check fired (KGCC).
    Check(CheckViolation),
    /// A segment-limit violation (Cosy isolation).
    Segment { addr: u64, len: usize },
    /// Arena exhausted.
    Oom(&'static str),
    Misc(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::NoSuchFunction(n) => write!(f, "no such function '{n}'"),
            InterpError::UndefinedVar(n) => write!(f, "undefined variable '{n}'"),
            InterpError::BadCall(m) => write!(f, "bad call: {m}"),
            InterpError::DivByZero(l) => write!(f, "division by zero at {l}"),
            InterpError::Timeout { steps } => write!(f, "timed out after {steps} steps"),
            InterpError::Killed(m) => write!(f, "killed: {m}"),
            InterpError::Mem(e) => write!(f, "memory fault: {e}"),
            InterpError::Check(v) => write!(f, "check violation: {v}"),
            InterpError::Segment { addr, len } => {
                write!(f, "segment violation at {addr:#x} len {len}")
            }
            InterpError::Oom(m) => write!(f, "out of arena memory: {m}"),
            InterpError::Misc(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<SimError> for InterpError {
    fn from(e: SimError) -> Self {
        InterpError::Mem(e)
    }
}

impl From<CheckViolation> for InterpError {
    fn from(v: CheckViolation) -> Self {
        InterpError::Check(v)
    }
}

/// Checked access to program memory, handed to syscall hosts so data moved
/// by in-kernel syscalls still respects the segment the function's data is
/// isolated in.
pub struct MemCtx<'a> {
    machine: &'a Machine,
    asid: AsId,
    seg: SegMode,
}

impl<'a> MemCtx<'a> {
    pub(crate) fn new(machine: &'a Machine, asid: AsId, seg: SegMode) -> MemCtx<'a> {
        MemCtx { machine, asid, seg }
    }

    #[inline]
    fn seg_check(&self, addr: u64, len: usize) -> Result<(), InterpError> {
        if let SegMode::Segmented(sel) = self.seg {
            let seg = self.machine.segs.get(sel)?;
            let end = addr.checked_add(len as u64).ok_or(InterpError::Segment { addr, len })?;
            self.machine.charge_sys(self.machine.cost.segment_check);
            if addr < seg.base || end > seg.base + seg.limit {
                // Count it as a hardware protection fault.
                let _ = self.machine.segs.check(sel, addr.wrapping_sub(seg.base), len);
                return Err(InterpError::Segment { addr, len });
            }
        }
        Ok(())
    }

    /// Read `buf.len()` bytes at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), InterpError> {
        self.seg_check(addr, buf.len())?;
        self.machine.mem.read_virt(self.asid, addr, buf)?;
        Ok(())
    }

    /// Write `buf` at `addr`.
    #[inline]
    pub fn write(&self, addr: u64, buf: &[u8]) -> Result<(), InterpError> {
        self.seg_check(addr, buf.len())?;
        self.machine.mem.write_virt(self.asid, addr, buf)?;
        Ok(())
    }

    /// Read a NUL-terminated string (max 4096 bytes).
    pub fn read_cstr(&self, addr: u64) -> Result<String, InterpError> {
        let mut out = Vec::new();
        for a in addr..addr + 4096 {
            let mut b = [0u8; 1];
            self.read(a, &mut b)?;
            if b[0] == 0 {
                return Ok(String::from_utf8_lossy(&out).into_owned());
            }
            out.push(b[0]);
        }
        Err(InterpError::Misc("unterminated string (4096-byte cap)".into()))
    }
}

/// Host interface for `sys_*` intrinsics. The Cosy kernel extension binds
/// these to in-kernel `k_*` operations; a user-mode host binds them to full
/// `sys_*` crossings — the comparison E3/E4 measure.
pub trait SyscallHost {
    fn host_call(
        &self,
        name: &str,
        args: &[i64],
        mem: &MemCtx<'_>,
    ) -> Result<i64, InterpError>;
}

/// Periodic callback: return `Err` to kill the program (watchdog).
pub type TickFn<'a> = dyn Fn(u64) -> Result<(), InterpError> + 'a;
