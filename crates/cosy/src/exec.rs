//! The Cosy kernel extension: decode and execute compounds in the kernel.
//!
//! §2.3: *"The final component is the Cosy kernel extension, which is the
//! heart of the Cosy framework. It decodes each operation within a compound
//! and then executes each operation in turn."*
//!
//! Safety, as in the paper:
//! * **Static checks** — the compound is validated before execution
//!   (backward-only result references, argument arity, buffer references
//!   bounds-checked against the shared region).
//! * **Preemption watchdog** — between operations (and inside user
//!   functions, via the interpreter tick), the kernel checks how long the
//!   process has run in kernel mode and kills it past its budget.
//! * **Segmentation** — user-supplied functions run with their data in an
//!   isolated segment: [`IsolationMode::A`] also isolates code (a far call
//!   is charged per entry/exit); [`IsolationMode::B`] isolates data only
//!   (free calls, weaker containment).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use kclang::bytecode::{CompileError, Module};
use kclang::{
    parse_program, typecheck, ExecConfig, ExecOutcome, InterpError, ParseError, SegMode, TypeError,
    Vm,
};
use kevents::{EventDispatcher, EventRecord, OOPS_EVENT};
use ksim::{Pid, PteFlags, SegKind, Segment, SimError, PAGE_SIZE};
use ksyscall::op::OFF_CURSOR;
use ksyscall::{
    KOp, Moved, OpError, OpenFile, OpenFlags, PathRef, PathText, SyscallLayer, Transport,
};
use kvfs::{FileKind, FileSystem, Ino, Vfs, VfsError, VfsResult};

use crate::buffers::SharedRegion;
use crate::cache::{CacheStats, TranslationCache};
use crate::compound::{Compound, CosyArg, CosyCall, CosyOp, DecodeError};
use crate::hosts::KernelHost;
use crate::txn::{RollbackScope, UndoEntry, UndoLog};

/// Identifier of a kernel-loaded KC program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramId(pub u32);

/// How user-supplied functions are contained (§2.3's two approaches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// No containment (ablation baseline only — the unsafe configuration
    /// the paper warns about).
    None,
    /// Code *and* data in isolated segments: maximum security, a segment
    /// switch charged on every function entry and exit.
    A,
    /// Data-only segment, code stays in the kernel segment: no call
    /// overhead, but self-modifying/hand-crafted code is not contained.
    B,
}

/// Degradation path after a failed — and rolled-back — compound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// Fail the submission; the caller sees the original error.
    None,
    /// Re-execute the compound op-by-op through the plain syscall layer
    /// (one crossing per op, as if Cosy were not in use), retrying an
    /// operation that failed on a transient injected fault up to
    /// `max_retries` times with `backoff_cycles` charged between attempts.
    Replay { max_retries: u32, backoff_cycles: u64 },
}

/// Per-submission execution options.
#[derive(Debug, Clone)]
pub struct CosyOptions {
    pub isolation: IsolationMode,
    /// Kernel-cycle budget enforced by the preemption watchdog.
    pub watchdog_budget: Option<u64>,
    /// Arena pages for user-function execution.
    pub arena_pages: usize,
    /// Step budget for user functions (defence in depth under the
    /// watchdog).
    pub max_steps: Option<u64>,
    /// What to do when a compound fails and has been rolled back.
    pub fallback: FallbackMode,
}

impl Default for CosyOptions {
    fn default() -> Self {
        CosyOptions {
            isolation: IsolationMode::A,
            watchdog_budget: Some(50_000_000), // ~29 ms of kernel time
            arena_pages: 16,
            max_steps: Some(10_000_000),
            fallback: FallbackMode::None,
        }
    }
}

/// Errors from compound submission.
#[derive(Debug, Clone, PartialEq)]
pub enum CosyError {
    Decode(DecodeError),
    Parse(ParseError),
    Type(TypeError),
    Compile(CompileError),
    Sim(SimError),
    Interp(InterpError),
    Vfs(VfsError),
    /// A socket operation failed on an injected fault (negative errno).
    /// Like [`CosyError::Vfs`], only injected failures abort the compound;
    /// a genuine network errno flows through as an op result.
    Net(i64),
    /// The watchdog killed the process mid-compound.
    WatchdogKilled { op_index: usize },
    BadProgram(u32),
    BadArg(&'static str),
}

impl std::fmt::Display for CosyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CosyError::Decode(e) => write!(f, "{e}"),
            CosyError::Parse(e) => write!(f, "{e}"),
            CosyError::Type(e) => write!(f, "{e}"),
            CosyError::Compile(e) => write!(f, "{e}"),
            CosyError::Sim(e) => write!(f, "{e}"),
            CosyError::Interp(e) => write!(f, "{e}"),
            CosyError::Vfs(e) => write!(f, "{e}"),
            CosyError::Net(n) => write!(f, "socket error (errno {n})"),
            CosyError::WatchdogKilled { op_index } => {
                write!(f, "watchdog killed compound at op {op_index}")
            }
            CosyError::BadProgram(id) => write!(f, "no loaded program {id}"),
            CosyError::BadArg(m) => write!(f, "bad compound argument: {m}"),
        }
    }
}

impl std::error::Error for CosyError {}

impl From<SimError> for CosyError {
    fn from(e: SimError) -> Self {
        CosyError::Sim(e)
    }
}

impl From<DecodeError> for CosyError {
    fn from(e: DecodeError) -> Self {
        CosyError::Decode(e)
    }
}

/// Cycles to decode one compound operation (the paper notes decode overhead
/// grows with language complexity; this is the per-op constant).
const DECODE_OP_CYCLES: u64 = 90;
/// Cycles to hash the submission bytes and probe the translation cache.
/// Charged on every submission; a hit charges nothing else, replacing the
/// whole `DECODE_OP_CYCLES * len` translation cost.
const CACHE_PROBE_CYCLES: u64 = 30;
/// In-kernel data movement between the page cache and the shared buffer,
/// per 16-byte block (no access_ok setup, no double copy).
const KCOPY_BLOCK16_CYCLES: u64 = 16;

/// The kernel extension.
pub struct CosyExtension {
    sys: Arc<SyscallLayer>,
    /// Loaded programs, compiled to bytecode once at load time.
    programs: RwLock<Vec<Module>>,
    cache: TranslationCache,
    arena_cursor: AtomicU64,
    oops_sink: RwLock<Option<Arc<EventDispatcher>>>,
}

impl CosyExtension {
    pub fn new(sys: Arc<SyscallLayer>) -> Self {
        CosyExtension {
            sys,
            programs: RwLock::new(Vec::new()),
            cache: TranslationCache::new(),
            arena_cursor: AtomicU64::new(0xffff_f000_0000_0000),
            oops_sink: RwLock::new(None),
        }
    }

    /// Route unexpected execution failures to the event dispatcher as
    /// structured oops records ([`kevents::OOPS_EVENT`]), so monitors and
    /// user-space tooling observe them instead of a host panic or a
    /// silently dropped error.
    pub fn set_oops_sink(&self, sink: Arc<EventDispatcher>) {
        *self.oops_sink.write() = Some(sink);
    }

    pub fn syscalls(&self) -> &Arc<SyscallLayer> {
        &self.sys
    }

    /// Translation-cache hit/miss/entry counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop all cached translations (e.g. under memory pressure). Counters
    /// keep accumulating; subsequent submissions decode from scratch.
    pub fn clear_translation_cache(&self) {
        self.cache.clear();
    }

    /// Load a KC program into the kernel (parse + typecheck happen here:
    /// code that does not compile is never executed). The bytecode module
    /// is compiled once, up front — submissions execute the pre-compiled
    /// form on the VM.
    pub fn load_program(&self, src: &str) -> Result<ProgramId, CosyError> {
        let prog = parse_program(src).map_err(CosyError::Parse)?;
        let info = typecheck(&prog).map_err(CosyError::Type)?;
        let module = kclang::bytecode::compile(&prog, &info).map_err(CosyError::Compile)?;
        let mut programs = self.programs.write();
        programs.push(module);
        Ok(ProgramId(programs.len() as u32 - 1))
    }

    /// Submit the compound encoded in `compound_buf` for execution, with
    /// `data_buf` as the shared data buffer. One boundary crossing total.
    /// Returns each operation's result.
    ///
    /// Compounds are **atomic**: if execution fails part-way — watchdog
    /// kill, memory fault, injected error — the file system, descriptor
    /// table, and shared data buffer are restored to their pre-submit
    /// state before the error is returned (or the [`FallbackMode`]
    /// degradation path runs).
    pub fn submit(
        &self,
        pid: Pid,
        compound_buf: &SharedRegion,
        data_buf: &SharedRegion,
        opts: &CosyOptions,
    ) -> Result<Vec<i64>, CosyError> {
        let machine = self.sys.machine().clone();

        // Pre-submit snapshots: the descriptor table and the shared data
        // buffer are small enough to save wholesale; file-system effects
        // are covered op-by-op through the undo log.
        let fd_snap = self.sys.fd_snapshot(pid);
        let mut data_snap = vec![0u8; data_buf.len()];
        data_buf.kern_read(0, &mut data_snap)?;

        let token = machine.enter_kernel(pid)?;
        machine.stats.compounds.fetch_add(1, Relaxed);
        if let Some(b) = opts.watchdog_budget {
            machine.set_kernel_budget(pid, Some(b))?;
        }

        let mut undo = UndoLog::new();
        let result = self.run_compound(pid, compound_buf, data_buf, opts, &mut undo);

        machine.set_kernel_budget(pid, None).ok();
        match result {
            Ok(results) => {
                machine.exit_kernel(token);
                Ok(results)
            }
            Err(err) => {
                // All-or-nothing: unwind before leaving the kernel. This
                // works even when the watchdog already killed the process
                // — the undo log speaks to the VFS directly.
                self.rollback(pid, &mut undo, data_buf, &data_snap, fd_snap);
                machine.exit_kernel(token);
                self.capture_oops(pid, &err);
                match opts.fallback {
                    // A dead process cannot replay anything on its own
                    // behalf; a watchdog kill is final.
                    FallbackMode::Replay { max_retries, backoff_cycles }
                        if !matches!(err, CosyError::WatchdogKilled { .. }) =>
                    {
                        self.replay_fallback(
                            pid,
                            compound_buf,
                            data_buf,
                            opts,
                            max_retries,
                            backoff_cycles,
                        )
                    }
                    _ => Err(err),
                }
            }
        }
    }

    fn run_compound(
        &self,
        pid: Pid,
        compound_buf: &SharedRegion,
        data_buf: &SharedRegion,
        opts: &CosyOptions,
        undo: &mut UndoLog,
    ) -> Result<Vec<i64>, CosyError> {
        let machine = self.sys.machine().clone();

        // Decode directly from the shared compound buffer: zero copies.
        let mut bytes = vec![0u8; compound_buf.len()];
        compound_buf.kern_read(0, &mut bytes)?;

        // Translation cache: identical submission bytes have already been
        // decoded and validated — reuse that work. Only a compound that
        // survives both steps is inserted, so a cached entry is always a
        // well-formed compound. Execution-time checks (buffer ranges,
        // watchdog) still run below on every submission.
        machine.charge_sys(CACHE_PROBE_CYCLES);
        let cached = match self.cache.lookup(&bytes) {
            Some(entry) => entry,
            None => {
                let compound = Compound::decode(&bytes)?;
                compound.validate()?;
                machine.charge_sys(DECODE_OP_CYCLES * compound.len() as u64);
                self.cache.insert(bytes, compound)
            }
        };
        let compound = cached.value();

        let mut results: Vec<i64> = Vec::with_capacity(compound.len());
        for (i, op) in compound.ops.iter().enumerate() {
            // Preemption point between operations: the watchdog check.
            if let Err(SimError::WatchdogKilled { .. }) = machine.preempt_tick(pid) {
                return Err(CosyError::WatchdogKilled { op_index: i });
            }
            machine.stats.compound_ops.fetch_add(1, Relaxed);
            let ret = match op {
                CosyOp::Syscall { call, args } => {
                    self.exec_syscall(pid, *call, args, &results, data_buf, undo)?
                }
                CosyOp::CallUser { prog, func, args } => {
                    let args = resolve_scalars(args, &results)?;
                    self.exec_user_func(pid, i, *prog, func, &args, opts)?
                }
            };
            results.push(ret);
        }
        Ok(results)
    }

    /// Encode one compound syscall op as a [`KOp`] and dispatch it over
    /// the shared data buffer. Around the dispatch sit the compound's own
    /// concerns: the undo log (captured inside dispatch by [`RegionIo`],
    /// recorded here on success), a `NetBarrier` after each effect that
    /// leaves the machine, and the injected-vs-genuine errno split
    /// ([`op_errno`]).
    fn exec_syscall(
        &self,
        pid: Pid,
        call: CosyCall,
        args: &[CosyArg],
        results: &[i64],
        data_buf: &SharedRegion,
        undo: &mut UndoLog,
    ) -> Result<i64, CosyError> {
        let machine = self.sys.machine();
        machine.stats.syscalls.fetch_add(1, Relaxed);

        let scalar = |i: usize| resolve_scalar(&args[i], results);
        let fd = |i: usize| scalar(i).map(|v| v as i32);
        let len = |i: usize| scalar(i).map(|v| v.max(0) as usize);
        let cur = OFF_CURSOR;
        let bufref = |i: usize| match args[i] {
            CosyArg::BufRef { offset, len } => Ok((offset as u64, len)),
            _ => Err(CosyError::BadArg("expected a shared-buffer reference")),
        };
        let path = |i: usize| bufref(i).map(|(addr, len)| PathRef::At { addr, len: len as usize });
        // The data buffer reference's length bounds what the op may move.
        let mut grant = 0;
        let mut data = |i: usize| {
            bufref(i).map(|(off, len)| {
                grant = len;
                off
            })
        };
        let op = match call {
            CosyCall::Getpid => KOp::Getpid,
            CosyCall::Open => KOp::Open { path: path(0)?, flags: OpenFlags(scalar(1)? as u32) },
            CosyCall::Close => KOp::Close { fd: fd(0)? },
            CosyCall::Read => KOp::Read { fd: fd(0)?, buf: data(1)?, len: len(2)?, off: cur },
            CosyCall::Write => KOp::Write { fd: fd(0)?, buf: data(1)?, len: len(2)?, off: cur },
            CosyCall::Lseek => KOp::Lseek { fd: fd(0)?, off: scalar(1)?, whence: fd(2)? },
            CosyCall::Stat => KOp::Stat { path: path(0)?, buf: data(1)? },
            CosyCall::Fstat => KOp::Fstat { fd: fd(0)?, buf: data(1)? },
            CosyCall::Readdir => KOp::Readdir { fd: fd(0)?, buf: data(1)?, max: len(2)? },
            CosyCall::Mkdir => KOp::Mkdir { path: path(0)? },
            CosyCall::Unlink => KOp::Unlink { path: path(0)? },
            CosyCall::Accept => KOp::Accept { sd: fd(0)? },
            CosyCall::Recv => KOp::Recv { sd: fd(0)?, buf: data(1)?, len: len(2)? },
            CosyCall::Send => KOp::Send { sd: fd(0)?, buf: data(1)?, len: len(2)? },
            CosyCall::Sendfile => KOp::Sendfile { sd: fd(0)?, fd: fd(1)?, len: len(2)? },
            CosyCall::ShutdownSock => KOp::Shutdown { sd: fd(0)? },
            CosyCall::Fsync => KOp::Fsync { fd: fd(0)?, data_only: scalar(1)? != 0 },
        };
        if matches!(call, CosyCall::Stat | CosyCall::Fstat)
            && (grant as usize) < kvfs::STAT_WIRE_BYTES
        {
            return Err(CosyError::BadArg("stat buffer too small"));
        }

        let fired0 = machine.faults.fired_count();
        let mut io = RegionIo { region: data_buf, grant, undo, pending: None, fired0 };
        let ret = self.sys.dispatch(pid, op, &mut io);
        let pending = io.pending.take();
        let v = match ret {
            Ok(v) => v,
            Err(e) => return op_errno(machine, fired0, e),
        };
        if let Some(entry) = pending {
            undo.record(entry);
        }
        // Socket effects leave the machine — a consumed backlog slot, bytes
        // handed to a peer — and so does durability: once fsync
        // acknowledges, no in-memory rollback can take that promise back.
        // Each success records a barrier instead of an inverse op, and
        // rollback stops there (see `UndoLog::rollback_to`).
        let barrier = match call {
            CosyCall::Accept => Some("accept"),
            CosyCall::ShutdownSock => Some("shutdown"),
            CosyCall::Fsync => Some("fsync"),
            CosyCall::Recv if v > 0 => Some("recv"),
            CosyCall::Send if v > 0 => Some("send"),
            CosyCall::Sendfile if v > 0 => Some("sendfile"),
            _ => None,
        };
        if let Some(op) = barrier {
            undo.record(UndoEntry::NetBarrier { op });
        }
        Ok(v)
    }

    /// Restore the pre-submit state: undo log against the VFS, then the
    /// wholesale snapshots of the shared data buffer and descriptor table.
    /// The fault plane is masked throughout — recovery paths are not
    /// injection targets (a sabotaged rollback could never terminate).
    fn rollback(
        &self,
        pid: Pid,
        undo: &mut UndoLog,
        data_buf: &SharedRegion,
        data_snap: &[u8],
        fd_snap: Vec<Option<OpenFile>>,
    ) {
        let machine = self.sys.machine();
        let was_armed = machine.faults.suspend();
        let vfs_result = undo.rollback(self.sys.vfs());
        let buf_result = data_buf.kern_write(0, data_snap);
        self.sys.fd_restore(pid, fd_snap);
        machine.faults.resume(was_armed);
        if vfs_result.is_err() || buf_result.is_err() {
            // A failed rollback is the one event that must not pass
            // silently — and must still not panic the host.
            self.oops(pid, "cosy/rollback", -1);
        }
        if matches!(vfs_result, Ok(RollbackScope::StoppedAtBarrier)) {
            // Socket effects cannot be taken back: file-system work from
            // before the barrier stays applied. Atomicity is explicitly
            // forfeited — report it rather than pretend.
            self.oops(pid, "cosy/netbarrier", -1);
        }
    }

    /// Emit a structured oops record for an unexpected failure class. A
    /// watchdog kill is the safety contract working as designed and is
    /// not an oops.
    fn capture_oops(&self, pid: Pid, err: &CosyError) {
        let code = match err {
            CosyError::WatchdogKilled { .. } => return,
            CosyError::Vfs(e) => e.errno(),
            CosyError::Sim(_) => -1,
            CosyError::Interp(_) => -2,
            _ => -3,
        };
        self.oops(pid, "cosy/exec", code);
    }

    fn oops(&self, pid: Pid, what: &'static str, code: i64) {
        if let Some(sink) = self.oops_sink.read().as_ref() {
            sink.log_event(EventRecord::new(pid.0 as u64, OOPS_EVENT, what, 0, code));
        }
    }

    /// Graceful degradation: after a rollback, re-execute the compound
    /// op-by-op through the plain syscall path (one crossing per op —
    /// correctness preserved, the Cosy speedup forfeited). Operations that
    /// fail on a *transient* injected fault are retried with backoff; the
    /// whole replay is its own transaction, so a second failure still
    /// leaves the caller at the pre-submit state.
    fn replay_fallback(
        &self,
        pid: Pid,
        compound_buf: &SharedRegion,
        data_buf: &SharedRegion,
        opts: &CosyOptions,
        max_retries: u32,
        backoff_cycles: u64,
    ) -> Result<Vec<i64>, CosyError> {
        let machine = self.sys.machine().clone();
        let faults = machine.faults.clone();

        // Decode host-side: the encoded compound still sits in the shared
        // buffer, unchanged by the rollback.
        let mut bytes = vec![0u8; compound_buf.len()];
        compound_buf.kern_read(0, &mut bytes)?;
        let compound = Compound::decode(&bytes)?;
        compound.validate()?;

        let fd_snap = self.sys.fd_snapshot(pid);
        let mut data_snap = vec![0u8; data_buf.len()];
        data_buf.kern_read(0, &mut data_snap)?;
        let mut undo = UndoLog::new();

        let mut results: Vec<i64> = Vec::with_capacity(compound.len());
        'ops: for (i, op) in compound.ops.iter().enumerate() {
            let mut attempts = 0u32;
            loop {
                let mark = undo.mark();
                let fired_before = faults.fired_count();
                let step = (|results: &[i64], undo: &mut UndoLog| -> Result<i64, CosyError> {
                    let token = machine.enter_kernel(pid)?;
                    if let Some(b) = opts.watchdog_budget {
                        machine.set_kernel_budget(pid, Some(b)).ok();
                    }
                    let r = match op {
                        CosyOp::Syscall { call, args } => {
                            self.exec_syscall(pid, *call, args, results, data_buf, undo)
                        }
                        CosyOp::CallUser { prog, func, args } => resolve_scalars(args, results)
                            .and_then(|args| self.exec_user_func(pid, i, *prog, func, &args, opts)),
                    };
                    machine.set_kernel_budget(pid, None).ok();
                    machine.exit_kernel(token);
                    r
                })(&results, &mut undo);
                match step {
                    Ok(v) => {
                        results.push(v);
                        continue 'ops;
                    }
                    Err(e) => {
                        let transient = faults.fired_count() > fired_before
                            && faults.last_fired().is_some_and(|ev| {
                                kfault::classify(ev.site) == kfault::FaultClass::Transient
                            });
                        if transient && attempts < max_retries {
                            attempts += 1;
                            // Undo the failed attempt's partial effects,
                            // back off, and retry the op in isolation.
                            let was_armed = faults.suspend();
                            let _ = undo.rollback_to(mark, self.sys.vfs());
                            faults.resume(was_armed);
                            machine.charge_sys(backoff_cycles);
                            continue;
                        }
                        self.rollback(pid, &mut undo, data_buf, &data_snap, fd_snap);
                        return Err(e);
                    }
                }
            }
        }
        Ok(results)
    }

    /// Run user function `func` of a loaded program as compound op
    /// `op_index` on the VM; a watchdog kill inside it is the compound's.
    fn exec_user_func(
        &self,
        pid: Pid,
        op_index: usize,
        prog_id: u32,
        func: &str,
        args: &[i64],
        opts: &CosyOptions,
    ) -> Result<i64, CosyError> {
        let programs = self.programs.read();
        let module = programs.get(prog_id as usize).ok_or(CosyError::BadProgram(prog_id))?;
        self.in_arena(pid, opts, |machine, cfg, arena, len, host, ticker| {
            let mut vm = Vm::new(machine, module, cfg, arena, len)?;
            vm.set_host(host);
            vm.set_ticker(ticker);
            vm.run(func, args)
        })
        .map_err(|e| match e {
            CosyError::Interp(InterpError::Killed(_)) => CosyError::WatchdogKilled { op_index },
            other => other,
        })
    }

    /// Run a user function under `run(machine, cfg, arena, arena_len,
    /// host, ticker)` inside a freshly mapped kernel arena, contained per
    /// the isolation mode, with the in-kernel syscall host and the
    /// watchdog ticker; unmap the arena afterwards.
    fn in_arena(
        &self,
        pid: Pid,
        opts: &CosyOptions,
        run: impl FnOnce(
            &ksim::Machine,
            ExecConfig,
            u64,
            usize,
            &KernelHost,
            &dyn Fn(u64) -> Result<(), InterpError>,
        ) -> Result<ExecOutcome, InterpError>,
    ) -> Result<i64, CosyError> {
        let machine = self.sys.machine().clone();
        // Allocate the function's arena in kernel space.
        let pages = opts.arena_pages.max(1);
        let arena = self
            .arena_cursor
            .fetch_add(((pages + 4) * PAGE_SIZE) as u64, Relaxed);
        for i in 0..pages {
            machine
                .mem
                .map_anon(machine.kernel_asid(), arena + (i * PAGE_SIZE) as u64, PteFlags::rw())?;
        }

        // Containment per isolation mode.
        let (seg_mode, seg_sel, entry_cost) = match opts.isolation {
            IsolationMode::None => (SegMode::Flat, None, 0),
            IsolationMode::A => {
                let sel = machine.segs.install(Segment {
                    asid: machine.kernel_asid(),
                    base: arena,
                    limit: (pages * PAGE_SIZE) as u64,
                    kind: SegKind::Data,
                });
                // Mode A: far call into the isolated code segment.
                (SegMode::Segmented(sel), Some(sel), machine.cost.segment_switch)
            }
            IsolationMode::B => {
                let sel = machine.segs.install(Segment {
                    asid: machine.kernel_asid(),
                    base: arena,
                    limit: (pages * PAGE_SIZE) as u64,
                    kind: SegKind::Data,
                });
                (SegMode::Segmented(sel), Some(sel), 0)
            }
        };
        machine.charge_sys(entry_cost);

        let mut cfg = ExecConfig::flat(machine.kernel_asid());
        cfg.seg = seg_mode;
        cfg.charge_sys = true;
        cfg.max_steps = opts.max_steps;

        let host = KernelHost { sys: self.sys.clone(), pid };
        let ticker = |_steps: u64| {
            machine.preempt_tick(pid).map_err(|e| InterpError::Killed(e.to_string()))
        };
        let run_result = run(&machine, cfg, arena, pages * PAGE_SIZE, &host, &ticker)
            .map_err(CosyError::Interp);

        machine.charge_sys(entry_cost); // mode A: far return
        if let Some(sel) = seg_sel {
            machine.segs.remove(sel).ok();
        }
        for i in 0..pages {
            if let Ok(Some(pte)) = machine
                .mem
                .unmap_page(machine.kernel_asid(), arena + (i * PAGE_SIZE) as u64)
            {
                if let Some(pfn) = pte.pfn {
                    machine.mem.phys.free_frame(pfn);
                }
            }
        }
        run_result.map(|o| o.ret)
    }
}

/// An op's error as the compound sees it. A genuine errno (ENOENT, EAGAIN
/// from an empty socket ring, a filter veto) is the op's *result* and the
/// compound keeps going, exactly like a sequence of plain syscalls would.
/// An error produced by an injected fault aborts the compound so the undo
/// log can restore atomicity — a legitimate ENOENT and an injected EIO are
/// different events — and a shared-buffer fault always aborts. With the
/// fault plane disarmed the fired count never moves and this is plain
/// errno conversion.
fn op_errno(
    machine: &ksim::Machine,
    fired0: u64,
    e: OpError<CosyError>,
) -> Result<i64, CosyError> {
    let injected = machine.faults.fired_count() > fired0;
    match e {
        OpError::Fault(e) => Err(e),
        OpError::Vfs(e) if injected => Err(CosyError::Vfs(e)),
        OpError::Net(_) | OpError::Errno(_) if injected => Err(CosyError::Net(e.errno())),
        e => Ok(e.errno()),
    }
}

/// The shared data buffer as a dispatch transport: an op's `buf` is an
/// offset into the region, its length clamps to the op's buffer reference
/// (`grant` bytes) and the result is bounds-checked against the region
/// after the entry filter has had its say. Data moves page cache ↔ shared
/// buffer in kernel at [`KCOPY_BLOCK16_CYCLES`] per 16 bytes — visible to
/// the user with no boundary copy (stat records move uncharged). Its
/// `before` hook captures the undo entry for an op about to change the
/// file system.
struct RegionIo<'a> {
    region: &'a SharedRegion,
    grant: u32,
    undo: &'a mut UndoLog,
    /// An entry to record only if the op succeeds.
    pending: Option<UndoEntry>,
    fired0: u64,
}

impl RegionIo<'_> {
    /// Bounds-check `(off, len)` against the region (`len` never exceeds
    /// a buffer reference's, but a filter may have moved `off` anywhere).
    fn check(&self, off: u64, len: usize) -> Result<u64, OpError<CosyError>> {
        let off32 = u32::try_from(off).map_err(|_| SimError::Invalid("offset beyond u32"));
        off32
            .and_then(|o| self.region.check_ref(o, len as u32))
            .map(|_| off)
            .map_err(|e| OpError::Fault(e.into()))
    }

    fn charge(s: &SyscallLayer, len: usize) {
        s.machine().charge_sys((len as u64).div_ceil(16) * KCOPY_BLOCK16_CYCLES);
    }

    /// An undo capture failed: abort if an injected fault caused it;
    /// otherwise the op itself fails the same way and sets the errno.
    fn capture_failed(&self, s: &SyscallLayer, e: VfsError) -> Moved<CosyError> {
        if s.machine().faults.fired_count() > self.fired0 {
            return Err(OpError::Fault(CosyError::Vfs(e)));
        }
        Ok(())
    }
}

impl Transport for RegionIo<'_> {
    type Fault = CosyError;

    fn span(&mut self, buf: u64, len: usize) -> Result<(u64, usize), OpError<CosyError>> {
        let want = len.min(self.grant as usize);
        Ok((self.check(buf, want)?, want))
    }

    fn record(&mut self, buf: u64) -> Result<(u64, usize), OpError<CosyError>> {
        Ok((self.check(buf, self.grant as usize)?, self.grant as usize))
    }

    fn get(&mut self, s: &SyscallLayer, _: Pid, off: u64, out: &mut [u8]) -> Moved<CosyError> {
        self.region.kern_read(off as usize, out).map_err(|e| OpError::Fault(e.into()))?;
        Self::charge(s, out.len());
        Ok(())
    }

    fn put(&mut self, s: &SyscallLayer, pid: Pid, off: u64, data: &[u8]) -> Moved<CosyError> {
        self.put_stat(s, pid, off, data)?;
        Self::charge(s, data.len());
        Ok(())
    }

    fn put_stat(&mut self, _: &SyscallLayer, _: Pid, off: u64, wire: &[u8]) -> Moved<CosyError> {
        self.region.kern_write(off as usize, wire).map_err(|e| OpError::Fault(e.into()))
    }

    fn path<'s>(
        &mut self,
        s: &'s SyscallLayer,
        _: Pid,
        off: u64,
        len: usize,
    ) -> Result<PathText<'s>, OpError<CosyError>> {
        self.check(off, len)?;
        let mut bytes = s.scratch().take(len);
        self.region.kern_read(off as usize, &mut bytes).map_err(|e| OpError::Fault(e.into()))?;
        Ok(PathText::Pooled(bytes))
    }

    fn before(&mut self, s: &SyscallLayer, pid: Pid, op: &KOp<'_>) -> Moved<CosyError> {
        let vfs = s.vfs();
        match *op {
            // Capture what this open may destroy before it runs: a TRUNC
            // discards content, a CREAT may add a file.
            KOp::Open { path: PathRef::Host(p), flags } => {
                self.pending = match vfs.resolve(p) {
                    Ok(ino) if flags.contains(OpenFlags::TRUNC) && flags.writable() => {
                        match read_whole(vfs.fs().as_ref(), ino) {
                            Ok(content) => {
                                Some(UndoEntry::RestoreContent { path: p.to_string(), content })
                            }
                            Err(e) => return self.capture_failed(s, e),
                        }
                    }
                    Ok(_) => None,
                    Err(VfsError::NotFound) if flags.contains(OpenFlags::CREAT) => {
                        Some(UndoEntry::CreatedFile { path: p.to_string() })
                    }
                    Err(e) => return self.capture_failed(s, e),
                };
            }
            // Save the bytes this write will clobber (and the size it may
            // grow past) before any of it hits the file system.
            KOp::Write { fd, len, .. } if len > 0 => {
                if let Some(f) = s.fd_peek(pid, fd).filter(|f| f.flags.writable()) {
                    match write_undo(vfs.fs().as_ref(), &f, len as u64) {
                        Ok(entry) => self.undo.record(entry),
                        Err(e) => return self.capture_failed(s, e),
                    }
                }
            }
            KOp::Mkdir { path: PathRef::Host(p) } => {
                if matches!(vfs.resolve(p), Err(VfsError::NotFound)) {
                    self.pending = Some(UndoEntry::CreatedDir { path: p.to_string() });
                }
            }
            // Save the doomed file's identity and bytes first.
            KOp::Unlink { path: PathRef::Host(p) } => match unlink_undo(vfs, p) {
                Ok(entry) => self.pending = entry,
                Err(e) => return self.capture_failed(s, e),
            },
            _ => {}
        }
        Ok(())
    }
}

fn resolve_scalars(args: &[CosyArg], results: &[i64]) -> Result<Vec<i64>, CosyError> {
    args.iter().map(|a| resolve_scalar(a, results)).collect()
}

fn resolve_scalar(a: &CosyArg, results: &[i64]) -> Result<i64, CosyError> {
    match a {
        CosyArg::Lit(v) => Ok(*v),
        CosyArg::ResultOf(i) => results
            .get(*i as usize)
            .copied()
            .ok_or(CosyError::BadArg("result reference out of range")),
        CosyArg::BufRef { .. } => Err(CosyError::BadArg("buffer where scalar expected")),
    }
}

/// A file's full content (undo capture for TRUNC opens and unlinks).
fn read_whole(fs: &dyn FileSystem, ino: Ino) -> VfsResult<Vec<u8>> {
    let st = fs.stat(ino)?;
    let mut buf = vec![0u8; st.size as usize];
    if !buf.is_empty() {
        let n = fs.read(ino, 0, &mut buf)?;
        buf.truncate(n);
    }
    Ok(buf)
}

/// The inverse of an upcoming `want`-byte write through `f`: the prior
/// bytes in the overwritten window and the size to truncate back to.
fn write_undo(fs: &dyn FileSystem, f: &OpenFile, want: u64) -> VfsResult<UndoEntry> {
    let st = fs.stat(f.ino)?;
    let off = if f.flags.contains(OpenFlags::APPEND) { st.size } else { f.offset };
    let end = (off + want).min(st.size);
    let mut prior = vec![0u8; end.saturating_sub(off) as usize];
    if !prior.is_empty() {
        let n = fs.read(f.ino, off, &mut prior)?;
        prior.truncate(n);
    }
    Ok(UndoEntry::FileWrite { ino: f.ino, old_size: st.size, off, prior })
}

/// The inverse of an upcoming unlink: the file's identity and bytes.
/// `None` when the target is not a regular file (the unlink will fail and
/// mutate nothing).
fn unlink_undo(vfs: &Vfs, path: &str) -> VfsResult<Option<UndoEntry>> {
    let ino = vfs.resolve(path)?;
    let st = vfs.fs().stat(ino)?;
    if st.kind != FileKind::File {
        return Ok(None);
    }
    let mut content = vec![0u8; st.size as usize];
    if !content.is_empty() {
        let n = vfs.fs().read(ino, 0, &mut content)?;
        content.truncate(n);
    }
    Ok(Some(UndoEntry::Unlinked { path: path.to_string(), old_ino: ino.0, content }))
}

impl std::fmt::Debug for CosyExtension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CosyExtension")
            .field("programs", &self.programs.read().len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::CompoundBuilder;
    use ksim::{Machine, MachineConfig};
    use kvfs::{BlockDev, MemFs, Vfs};

    /// A memfs-backed syscall layer, its Cosy extension, and a process.
    pub(crate) fn setup() -> (Arc<Machine>, Arc<SyscallLayer>, CosyExtension, Pid) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Arc::new(MemFs::new(m.clone(), dev));
        let vfs = Arc::new(Vfs::new(m.clone(), fs));
        let sys = Arc::new(SyscallLayer::new(m.clone(), vfs));
        let ext = CosyExtension::new(sys.clone());
        let pid = m.spawn_process();
        (m, sys, ext, pid)
    }

    fn regions(m: &Arc<Machine>, pid: Pid) -> (SharedRegion, SharedRegion) {
        (
            SharedRegion::new(m.clone(), pid, 1, 0).unwrap(),
            SharedRegion::new(m.clone(), pid, 4, 1).unwrap(),
        )
    }

    #[test]
    fn compound_write_then_read_roundtrip_in_one_crossing() {
        let (m, sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);

        let mut b = CompoundBuilder::new(&cb, &db);
        let path = b.stage_path("/cosy-file").unwrap();
        let data = b.alloc_buf(64).unwrap();
        let CosyArg::BufRef { offset, .. } = data else {
            panic!("alloc_buf must return a BufRef")
        };
        db.user_write(offset as usize, b"hello compound syscalls!").unwrap();

        let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0x42)]); // CREAT|RDWR
        b.syscall(
            CosyCall::Write,
            vec![CompoundBuilder::result_of(fd), data, CompoundBuilder::lit(24)],
        );
        b.syscall(
            CosyCall::Lseek,
            vec![CompoundBuilder::result_of(fd), CompoundBuilder::lit(0), CompoundBuilder::lit(0)],
        );
        let readbuf = b.alloc_buf(64).unwrap();
        b.syscall(
            CosyCall::Read,
            vec![CompoundBuilder::result_of(fd), readbuf, CompoundBuilder::lit(64)],
        );
        b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        b.finish().unwrap();

        let s0 = m.stats.snapshot();
        let results = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        let d = m.stats.snapshot().delta(&s0);

        assert_eq!(d.crossings, 1, "whole compound in one crossing");
        assert_eq!(d.compounds, 1);
        assert_eq!(d.compound_ops, 5);
        assert!(results[0] >= 0, "open succeeded");
        assert_eq!(results[1], 24, "wrote 24 bytes");
        assert_eq!(results[3], 24, "read them back");

        let CosyArg::BufRef { offset: ro, .. } = readbuf else {
            panic!("alloc_buf must return a BufRef")
        };
        let mut back = vec![0u8; 24];
        db.user_read(ro as usize, &mut back).unwrap();
        assert_eq!(&back, b"hello compound syscalls!");
        // File really exists with the right content.
        assert_eq!(sys.k_stat("/cosy-file").unwrap().size, 24);
    }

    #[test]
    fn result_dependencies_chain_correctly() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let mut b = CompoundBuilder::new(&cb, &db);
        let p = b.stage_path("/f").unwrap();
        let fd = b.syscall(CosyCall::Open, vec![p, CompoundBuilder::lit(0x42)]);
        // Close the fd returned by open — a dependency.
        b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        // Closing it again must fail with EBADF through the dependency too.
        b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        b.finish().unwrap();
        let results = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        assert_eq!(results[1], 0);
        assert_eq!(results[2], -9, "EBADF on double close");
    }

    #[test]
    fn user_function_runs_in_kernel_with_no_extra_crossings() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let prog = ext
            .load_program(
                r#"
                int sum_squares(int n) {
                    int i;
                    int acc = 0;
                    for (i = 1; i <= n; i = i + 1) { acc = acc + i * i; }
                    return acc;
                }
                "#,
            )
            .unwrap();
        assert_eq!(prog, ProgramId(0));

        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(0, "sum_squares", vec![CompoundBuilder::lit(10)]);
        b.finish().unwrap();

        let s0 = m.stats.snapshot();
        let results = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        assert_eq!(results, vec![385]);
        assert_eq!(m.stats.snapshot().delta(&s0).crossings, 1);
    }

    #[test]
    fn watchdog_kills_runaway_user_function() {
        let (_m, _sys, ext, pid) = setup();
        let m = ext.sys.machine().clone();
        let (cb, db) = regions(&m, pid);
        ext.load_program("int spin() { while (1) { } return 0; }").unwrap();
        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(0, "spin", vec![]);
        b.finish().unwrap();
        let opts = CosyOptions {
            watchdog_budget: Some(200_000),
            ..CosyOptions::default()
        };
        let err = ext.submit(pid, &cb, &db, &opts).unwrap_err();
        assert!(
            matches!(err, CosyError::WatchdogKilled { op_index: 0 }),
            "got {err:?}"
        );
        // The process was killed, as the paper specifies.
        assert!(m.enter_kernel(pid).is_err());
    }

    #[test]
    fn isolation_blocks_wild_pointer_escapes() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        // A malicious function poking at an arbitrary kernel address.
        ext.load_program(
            r#"
            int poke() {
                int *p = 99999999999; // far outside the isolation segment
                *p = 7;
                return 0;
            }
            "#,
        )
        .unwrap();
        for mode in [IsolationMode::A, IsolationMode::B] {
            let mut b = CompoundBuilder::new(&cb, &db);
            b.call_user(0, "poke", vec![]);
            b.finish().unwrap();
            let opts = CosyOptions { isolation: mode, ..CosyOptions::default() };
            let err = ext.submit(pid, &cb, &db, &opts).unwrap_err();
            assert!(
                matches!(err, CosyError::Interp(InterpError::Segment { .. })),
                "{mode:?} must contain the escape, got {err:?}"
            );
        }
    }

    #[test]
    fn mode_a_charges_segment_switches_mode_b_does_not() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        ext.load_program("int f() { return 1; }").unwrap();

        let run = |mode| {
            let mut b = CompoundBuilder::new(&cb, &db);
            b.call_user(0, "f", vec![]);
            b.finish().unwrap();
            let s0 = m.clock.sys_cycles();
            ext.submit(pid, &cb, &db, &CosyOptions { isolation: mode, ..Default::default() })
                .unwrap();
            m.clock.sys_cycles() - s0
        };
        let cost_a = run(IsolationMode::A);
        let cost_b = run(IsolationMode::B);
        assert!(
            cost_a >= cost_b + 2 * m.cost.segment_switch,
            "A={cost_a} B={cost_b}"
        );
    }

    #[test]
    fn bad_buffer_references_are_rejected() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let mut b = CompoundBuilder::new(&cb, &db);
        // Hand-craft a read with an out-of-range BufRef (bypassing the
        // builder's checks, like a malicious user would).
        b.syscall(
            CosyCall::Read,
            vec![
                CompoundBuilder::lit(0),
                CosyArg::BufRef { offset: 0, len: 1 },
                CompoundBuilder::lit(1),
            ],
        );
        let mut c = b.finish().unwrap();
        c.ops[0] = CosyOp::Syscall {
            call: CosyCall::Read,
            args: vec![
                CosyArg::Lit(0),
                CosyArg::BufRef { offset: 1 << 30, len: 4096 },
                CosyArg::Lit(4096),
            ],
        };
        cb.user_write(0, &c.encode()).unwrap();
        let err = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap_err();
        assert!(matches!(err, CosyError::Sim(SimError::Invalid(_))), "got {err:?}");
    }

    #[test]
    fn unknown_program_and_function_are_errors() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(99, "nope", vec![]);
        b.finish().unwrap();
        assert!(matches!(
            ext.submit(pid, &cb, &db, &CosyOptions::default()),
            Err(CosyError::BadProgram(99))
        ));

        ext.load_program("int f() { return 0; }").unwrap();
        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(0, "missing", vec![]);
        b.finish().unwrap();
        assert!(matches!(
            ext.submit(pid, &cb, &db, &CosyOptions::default()),
            Err(CosyError::Interp(InterpError::NoSuchFunction(_)))
        ));
    }

    #[test]
    fn programs_that_do_not_compile_are_never_loaded() {
        let (_m, _sys, ext, _pid) = setup();
        assert!(matches!(ext.load_program("int f( {"), Err(CosyError::Parse(_))));
        assert!(matches!(
            ext.load_program("int f() { return ghost; }"),
            Err(CosyError::Type(_))
        ));
    }

    #[test]
    fn translation_cache_skips_decode_on_repeat_submissions() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let mut b = CompoundBuilder::new(&cb, &db);
        for _ in 0..4 {
            b.syscall(CosyCall::Getpid, vec![]);
        }
        b.finish().unwrap();

        let submit = || {
            let s0 = m.clock.sys_cycles();
            let r = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
            (r, m.clock.sys_cycles() - s0)
        };
        let (r1, cost1) = submit();
        assert_eq!(ext.cache_stats().hits, 0);
        assert_eq!(ext.cache_stats().misses, 1);

        let (r2, cost2) = submit();
        let (r3, cost3) = submit();
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        let stats = ext.cache_stats();
        assert_eq!(stats.hits, 2, "repeat submissions must hit");
        assert_eq!(stats.misses, 1, "only the first submission decodes");
        assert_eq!(stats.entries, 1);
        // A hit replaces the per-op decode charge with the probe constant
        // (the first submission additionally pays cold-TLB translation, so
        // the saving is at least the decode cost).
        assert!(
            cost1 - cost2 >= DECODE_OP_CYCLES * 4,
            "cost1={cost1} cost2={cost2}"
        );
        // Steady state: identical hits charge identical cycles.
        assert_eq!(cost2, cost3);
    }

    #[test]
    fn different_compounds_do_not_alias_in_the_cache() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);

        let build = |n: i64| {
            let mut b = CompoundBuilder::new(&cb, &db);
            b.syscall(
                CosyCall::Lseek,
                vec![
                    CompoundBuilder::lit(n),
                    CompoundBuilder::lit(0),
                    CompoundBuilder::lit(0),
                ],
            );
            b.finish().unwrap();
        };

        build(1);
        let r1 = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        build(2);
        let r2 = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        // Both lseeks fail (bad fd) but on *their own* fd argument — the
        // second submission must not be served the first's compound.
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        let stats = ext.cache_stats();
        assert_eq!(stats.misses, 2, "different bytes are different entries");
        assert_eq!(stats.hits, 0);
        // Resubmitting the first bytes again hits its own entry.
        build(1);
        let r1b = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        assert_eq!(r1, r1b);
        assert_eq!(ext.cache_stats().hits, 1);
    }

    #[test]
    fn cached_submission_matches_fresh_decode_with_user_functions() {
        let src = r#"
            int sum_squares(int n) {
                int i;
                int acc = 0;
                for (i = 1; i <= n; i = i + 1) { acc = acc + i * i; }
                return acc;
            }
        "#;
        let build = |ext: &CosyExtension, cb: &SharedRegion, db: &SharedRegion| {
            ext.load_program(src).unwrap();
            let mut b = CompoundBuilder::new(cb, db);
            b.syscall(CosyCall::Getpid, vec![]);
            b.call_user(0, "sum_squares", vec![CompoundBuilder::lit(10)]);
            b.finish().unwrap();
        };

        // Warm extension: second submission executes from the cache.
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        build(&ext, &cb, &db);
        let fresh = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        let cached = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        assert_eq!(ext.cache_stats().hits, 1);
        assert_eq!(fresh, cached);

        // Cold extension on an identical machine decodes from scratch and
        // agrees with the cache-served execution.
        let (m2, _sys2, ext2, pid2) = setup();
        let (cb2, db2) = regions(&m2, pid2);
        build(&ext2, &cb2, &db2);
        let cold = ext2.submit(pid2, &cb2, &db2, &CosyOptions::default()).unwrap();
        assert_eq!(cold, cached);
        assert_eq!(cached[1], 385);
    }

    #[test]
    fn bytecode_and_treewalk_user_functions_agree_exactly() {
        // The VM is cosy's engine; the tree-walking interpreter stays as
        // the reference. Twin machines run the same function in the same
        // kernel arena with the same `KernelHost`: one on the VM, the path
        // `submit` takes, one on `kclang::Interp` directly. Results and the
        // cycles charged in the arena must be bit-identical (the simulated
        // cost model counts steps and memory behaviour, not host time),
        // and the VM's result is what a submitted compound returns.
        const SRC: &str = r#"
            int work(int n) {
                int a[8];
                int i;
                int acc = 0;
                for (i = 0; i < 8; i = i + 1) { a[i] = i * n; }
                int *p = malloc(32);
                p[0] = a[7];
                acc = p[0] + a[3];
                free(p);
                return acc;
            }
        "#;
        let opts = CosyOptions::default();
        let (m, _sys, ext, pid) = setup();
        let prog = parse_program(SRC).unwrap();
        let info = typecheck(&prog).unwrap();
        let s0 = m.clock.sys_cycles();
        let r_tw = ext
            .in_arena(pid, &opts, |machine, cfg, arena, len, host, ticker| {
                let mut interp = kclang::Interp::new(machine, &prog, &info, cfg, arena, len)?;
                interp.set_host(host);
                interp.set_ticker(ticker);
                interp.run("work", &[5])
            })
            .unwrap();
        let cost_tw = m.clock.sys_cycles() - s0;

        let (m, _sys, ext, pid) = setup();
        ext.load_program(SRC).unwrap();
        let s0 = m.clock.sys_cycles();
        let r_vm = ext.exec_user_func(pid, 0, 0, "work", &[5], &opts).unwrap();
        let cost_vm = m.clock.sys_cycles() - s0;
        assert_eq!((r_tw, cost_tw), (r_vm, cost_vm), "engines must agree to the cycle");

        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        ext.load_program(SRC).unwrap();
        let mut b = CompoundBuilder::new(&cb, &db);
        b.call_user(0, "work", vec![CompoundBuilder::lit(5)]);
        b.finish().unwrap();
        assert_eq!(ext.submit(pid, &cb, &db, &opts).unwrap(), vec![r_tw]);
        assert_eq!(r_tw, 50);
    }

    #[test]
    fn injected_fault_mid_compound_rolls_back_everything() {
        let (m, sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        // A pre-existing file the compound will modify.
        let fd = sys.k_open(pid, "/keep", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        sys.k_write(pid, fd, b"persistent data").unwrap();
        sys.k_close(pid, fd).unwrap();

        let mut b = CompoundBuilder::new(&cb, &db);
        let keep = b.stage_path("/keep").unwrap();
        let fresh = b.stage_path("/fresh").unwrap();
        let payload = b.stage_bytes(&[0x5A; 32]).unwrap();
        let CosyArg::BufRef { offset: pay, .. } = payload else {
            panic!("stage_bytes must return a BufRef")
        };
        let buf = |len| CosyArg::BufRef { offset: pay, len };
        let f1 = b.syscall(CosyCall::Open, vec![keep, CompoundBuilder::lit(2)]); // RDWR
        b.syscall(
            CosyCall::Write,
            vec![CompoundBuilder::result_of(f1), buf(32), CompoundBuilder::lit(32)],
        );
        let f2 = b.syscall(CosyCall::Open, vec![fresh, CompoundBuilder::lit(0x42)]); // CREAT|RDWR
        b.syscall(
            CosyCall::Write,
            vec![CompoundBuilder::result_of(f2), buf(32), CompoundBuilder::lit(32)],
        );
        b.finish().unwrap();

        let pre = kvfs::VfsSnapshot::capture(sys.vfs().fs().as_ref()).unwrap();
        let pre_fds = sys.open_fds(pid);
        let mut pre_db = vec![0u8; db.len()];
        db.user_read(0, &mut pre_db).unwrap();

        // nospc consults: op2's write (#1), op3's create (#2), op4's
        // write (#3). Fail the last: three ops' effects must unwind.
        m.faults.arm(0xC0FFEE);
        m.faults.add_policy(Some("kvfs.nospc"), kfault::Policy::FailNth(3));
        let err = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap_err();
        m.faults.disarm();

        assert!(matches!(err, CosyError::Vfs(VfsError::NoSpace)), "got {err:?}");
        assert_eq!(m.faults.fired_count(), 1);
        let post = kvfs::VfsSnapshot::capture(sys.vfs().fs().as_ref()).unwrap();
        assert_eq!(pre.hash(), post.hash(), "vfs diff: {:?}", pre.diff(&post));
        assert_eq!(sys.open_fds(pid), pre_fds, "descriptor table restored");
        let mut post_db = vec![0u8; db.len()];
        db.user_read(0, &mut post_db).unwrap();
        assert_eq!(pre_db, post_db, "shared data buffer restored");
        // And the file still reads back its original bytes end-to-end.
        assert_eq!(sys.k_stat("/keep").unwrap().size, 15);
        assert!(sys.k_stat("/fresh").is_err(), "created file removed");
    }

    #[test]
    fn watchdog_killed_cached_compound_rolls_back_and_cache_survives() {
        let (m, sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        ext.load_program(
            "int spin(int n) { int i; for (i = 0; i < n; i = i + 1) { } return 0; }",
        )
        .unwrap();

        let build = |cb: &SharedRegion, db: &SharedRegion| {
            let mut b = CompoundBuilder::new(cb, db);
            let p = b.stage_path("/log").unwrap();
            let payload = b.stage_bytes(&[0x41; 16]).unwrap();
            let CosyArg::BufRef { offset, .. } = payload else {
                panic!("stage_bytes must return a BufRef")
            };
            // CREAT|RDWR|APPEND: each run appends 16 bytes, then spins.
            let fd = b.syscall(CosyCall::Open, vec![p, CompoundBuilder::lit(0x442)]);
            b.syscall(
                CosyCall::Write,
                vec![
                    CompoundBuilder::result_of(fd),
                    CosyArg::BufRef { offset, len: 16 },
                    CompoundBuilder::lit(16),
                ],
            );
            b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
            b.call_user(0, "spin", vec![CompoundBuilder::lit(1_000_000)]);
            b.finish().unwrap();
        };
        build(&cb, &db);

        // First submission: no budget, completes, decodes + caches.
        let free = CosyOptions { watchdog_budget: None, ..CosyOptions::default() };
        let r1 = ext.submit(pid, &cb, &db, &free).unwrap();
        assert_eq!(sys.k_stat("/log").unwrap().size, 16);
        assert_eq!(ext.cache_stats().misses, 1);

        // Second submission: cache hit, then the watchdog kills the spin.
        // The append (a completed op within the compound!) must unwind.
        let tight = CosyOptions { watchdog_budget: Some(200_000), ..CosyOptions::default() };
        let err = ext.submit(pid, &cb, &db, &tight).unwrap_err();
        assert!(matches!(err, CosyError::WatchdogKilled { op_index: 3 }), "got {err:?}");
        assert_eq!(ext.cache_stats().hits, 1, "killed run executed from the cache");
        assert_eq!(sys.k_stat("/log").unwrap().size, 16, "append rolled back");

        // The cache entry stays valid: a fresh process replays the same
        // bytes from the cache and the append lands.
        let pid2 = m.spawn_process();
        let (cb2, db2) = regions(&m, pid2);
        build(&cb2, &db2);
        let r2 = ext.submit(pid2, &cb2, &db2, &free).unwrap();
        assert_eq!(ext.cache_stats().hits, 2);
        assert_eq!(ext.cache_stats().misses, 1, "no re-decode after the kill");
        assert_eq!(r1, r2);
        assert_eq!(sys.k_stat("/log").unwrap().size, 32);
    }

    #[test]
    fn fallback_replay_matches_the_no_fault_run() {
        let run = |with_fault: bool| {
            let (m, sys, ext, pid) = setup();
            let (cb, db) = regions(&m, pid);
            let mut b = CompoundBuilder::new(&cb, &db);
            let p = b.stage_path("/f").unwrap();
            let payload = b.stage_bytes(b"fallback-payload").unwrap();
            let CosyArg::BufRef { offset, .. } = payload else {
                panic!("stage_bytes must return a BufRef")
            };
            let fd = b.syscall(CosyCall::Open, vec![p, CompoundBuilder::lit(0x42)]);
            b.syscall(
                CosyCall::Write,
                vec![
                    CompoundBuilder::result_of(fd),
                    CosyArg::BufRef { offset, len: 16 },
                    CompoundBuilder::lit(16),
                ],
            );
            b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
            b.finish().unwrap();
            if with_fault {
                // Fires on the compound's write, aborting it, and again on
                // the fallback's first write attempt — exercising both the
                // rollback and the per-op retry.
                m.faults.arm(7);
                m.faults.add_policy(Some("kvfs.nospc"), kfault::Policy::EveryNth(2));
            }
            let opts = CosyOptions {
                fallback: FallbackMode::Replay { max_retries: 2, backoff_cycles: 500 },
                ..CosyOptions::default()
            };
            let r = ext.submit(pid, &cb, &db, &opts).unwrap();
            m.faults.disarm();
            let size = sys.k_stat("/f").unwrap().size;
            let fired = m.faults.fired_count();
            (r, size, fired)
        };

        let (clean, clean_size, fired0) = run(false);
        let (faulty, faulty_size, fired) = run(true);
        assert_eq!(fired0, 0);
        assert_eq!(fired, 2, "compound abort + one fallback retry");
        assert_eq!(clean, faulty, "degraded path must be transparent");
        assert_eq!(clean_size, faulty_size);
    }

    #[test]
    fn oops_sink_records_unexpected_failures() {
        let (m, _sys, ext, pid) = setup();
        let (cb, db) = regions(&m, pid);
        let disp = Arc::new(kevents::EventDispatcher::new(m.clone()));
        let ring = Arc::new(kevents::EventRing::with_capacity(16));
        disp.attach_ring(ring.clone());
        ext.set_oops_sink(disp);

        let mut b = CompoundBuilder::new(&cb, &db);
        let p = b.stage_path("/x").unwrap();
        b.syscall(CosyCall::Open, vec![p, CompoundBuilder::lit(0x42)]);
        b.finish().unwrap();

        m.faults.arm(1);
        m.faults.add_policy(Some("kvfs.nospc"), kfault::Policy::FailNth(1));
        let err = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap_err();
        m.faults.disarm();
        assert!(matches!(err, CosyError::Vfs(VfsError::NoSpace)), "got {err:?}");

        let mut out = Vec::new();
        ring.pop_bulk(&mut out, 16);
        assert_eq!(out.len(), 1, "one oops record for the failed compound");
        assert_eq!(out[0].event, kevents::OOPS_EVENT);
        assert_eq!(out[0].obj, pid.0 as u64);
        assert_eq!(out[0].value, VfsError::NoSpace.errno());
    }
}

#[cfg(test)]
mod equivalence_proptests {
    //! Randomized op sequences must behave identically however they reach
    //! the kernel: as classic `sys_*` calls, as one uring batch, and as
    //! one Cosy compound — the same results, the same errnos, the same
    //! file-system state. All three encode into the one dispatcher, so
    //! this is the correctness oracle for any boundary mechanism.

    use super::*;
    use crate::builder::CompoundBuilder;
    use crate::buffers::SharedRegion;
    use ksim::Machine;
    use kuring::Sqe;
    use kvfs::{VfsSnapshot, STAT_WIRE_BYTES};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum FileOp {
        Write(u8),    // write n bytes at the current offset
        SeekSet(u16), // absolute seek
        Read(u8),     // read n bytes
        Fstat,
        Close,
        Unlink,
        OpenMissing,
    }

    fn arb_op() -> impl Strategy<Value = FileOp> {
        (0u8..16, 1u8..64, 0u16..512).prop_map(|(k, n, off)| match k {
            0..=4 => FileOp::Write(n),
            5..=7 => FileOp::SeekSet(off),
            8..=11 => FileOp::Read(n),
            12 => FileOp::Fstat,
            13 => FileOp::Close,
            14 => FileOp::Unlink,
            _ => FileOp::OpenMissing,
        })
    }

    /// User memory for the classic and ring runs: payload, paths, and
    /// read/stat destinations.
    const UBUF: u64 = 0x10_0000;
    const PATH: u64 = UBUF + 0x1000;
    const MISSING: u64 = UBUF + 0x1100;
    const OUT: u64 = UBUF + 0x2000;

    /// A machine with `/f` open (as `fd`) and the user buffers staged.
    fn setup() -> (Arc<Machine>, Arc<SyscallLayer>, CosyExtension, Pid, i32) {
        let (m, sys, ext, pid) = super::tests::setup();
        m.map_user(pid, UBUF, 1 << 16).unwrap();
        let asid = m.proc_asid(pid).unwrap();
        m.mem.write_virt(asid, UBUF, &[0xCD; 64]).unwrap();
        m.mem.write_virt(asid, PATH, b"/f\0").unwrap();
        m.mem.write_virt(asid, MISSING, b"/missing\0").unwrap();
        let fd = sys.k_open(pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
        (m, sys, ext, pid, fd)
    }

    fn vfs_hash(sys: &SyscallLayer) -> u64 {
        VfsSnapshot::capture(sys.vfs().fs().as_ref()).unwrap().hash()
    }

    fn classic(ops: &[FileOp]) -> (Vec<i64>, u64) {
        let (_, sys, _, pid, fd) = setup();
        let results = ops
            .iter()
            .map(|op| match *op {
                FileOp::Write(n) => sys.sys_write(pid, fd, UBUF, n as usize),
                FileOp::SeekSet(off) => sys.sys_lseek(pid, fd, off as i64, 0),
                FileOp::Read(n) => sys.sys_read(pid, fd, OUT, n as usize),
                FileOp::Fstat => sys.sys_fstat(pid, fd, OUT),
                FileOp::Close => sys.sys_close(pid, fd),
                FileOp::Unlink => sys.sys_unlink(pid, "/f"),
                FileOp::OpenMissing => sys.sys_open(pid, "/missing", OpenFlags::RDONLY),
            })
            .collect();
        (results, vfs_hash(&sys))
    }

    fn ring_batch(ops: &[FileOp]) -> (Vec<i64>, u64) {
        let (_, sys, _, pid, fd) = setup();
        assert_eq!(sys.sys_ring_setup(pid, 32, 32), 0);
        let ring = sys.uring(pid).unwrap();
        for (i, op) in ops.iter().enumerate() {
            let tag = i as u64;
            let sqe = match *op {
                FileOp::Write(n) => Sqe::write(fd, UBUF, n as u32, kuring::OFF_CURSOR, tag),
                FileOp::SeekSet(off) => Sqe::lseek(fd, off as i64, 0, tag),
                FileOp::Read(n) => Sqe::read(fd, OUT, n as u32, kuring::OFF_CURSOR, tag),
                FileOp::Fstat => Sqe::fstat(fd, OUT, tag),
                FileOp::Close => Sqe::close(fd, tag),
                FileOp::Unlink => Sqe::unlink(PATH, 2, tag),
                FileOp::OpenMissing => Sqe::open(MISSING, 8, 0, tag),
            };
            ring.push_sqe(sqe).unwrap();
        }
        assert_eq!(sys.sys_ring_enter(pid, ops.len(), ops.len()), ops.len() as i64);
        let mut results = vec![0; ops.len()];
        while let Some(c) = ring.reap_cqe() {
            results[c.user_data as usize] = c.res;
        }
        (results, vfs_hash(&sys))
    }

    /// Encode `ops` against `fd` into the compound being built.
    fn encode(mut b: CompoundBuilder<'_>, fd: i32, ops: &[FileOp]) {
        let fd = || CompoundBuilder::lit(fd as i64);
        let data = b.stage_bytes(&[0xCD; 64]).unwrap();
        let CosyArg::BufRef { offset: data_off, .. } = data else { unreachable!() };
        let path = b.stage_path("/f").unwrap();
        let missing = b.stage_path("/missing").unwrap();
        for op in ops {
            let (call, args) = match *op {
                FileOp::Write(n) => (
                    CosyCall::Write,
                    vec![
                        fd(),
                        CosyArg::BufRef { offset: data_off, len: n as u32 },
                        CompoundBuilder::lit(n as i64),
                    ],
                ),
                FileOp::SeekSet(off) => (
                    CosyCall::Lseek,
                    vec![fd(), CompoundBuilder::lit(off as i64), CompoundBuilder::lit(0)],
                ),
                FileOp::Read(n) => (
                    CosyCall::Read,
                    vec![fd(), b.alloc_buf(n as u32).unwrap(), CompoundBuilder::lit(n as i64)],
                ),
                FileOp::Fstat => {
                    (CosyCall::Fstat, vec![fd(), b.alloc_buf(STAT_WIRE_BYTES as u32).unwrap()])
                }
                FileOp::Close => (CosyCall::Close, vec![fd()]),
                FileOp::Unlink => (CosyCall::Unlink, vec![path]),
                FileOp::OpenMissing => {
                    (CosyCall::Open, vec![missing, CompoundBuilder::lit(0)])
                }
            };
            b.syscall(call, args);
        }
        b.finish().unwrap();
    }

    fn compound(ops: &[FileOp]) -> (Vec<i64>, u64) {
        let (m, sys, ext, pid, fd) = setup();
        let cb = SharedRegion::new(m.clone(), pid, 2, 0).unwrap();
        let db = SharedRegion::new(m.clone(), pid, 4, 1).unwrap();
        encode(CompoundBuilder::new(&cb, &db), fd, ops);
        let results = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
        (results, vfs_hash(&sys))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn compound_equals_direct_execution(ops in proptest::collection::vec(arb_op(), 1..20)) {
            let direct = classic(&ops);
            prop_assert_eq!(&ring_batch(&ops), &direct, "uring batch vs classic calls");
            prop_assert_eq!(&compound(&ops), &direct, "cosy compound vs classic calls");
        }

        /// A cache-hit execution must be indistinguishable from a fresh
        /// decode+validate of the same bytes against the same machine
        /// state. Twin machines submit the same compound twice; one clears
        /// the translation cache in between (forcing a re-decode), the
        /// other hits. Results and file state must match exactly.
        #[test]
        fn cached_submission_equals_fresh_decode(ops in proptest::collection::vec(arb_op(), 1..16)) {
            let run_twice = |clear_between: bool| {
                let (m, sys, ext, pid, fd) = setup();
                let cb = SharedRegion::new(m.clone(), pid, 2, 0).unwrap();
                let db = SharedRegion::new(m.clone(), pid, 4, 1).unwrap();
                encode(CompoundBuilder::new(&cb, &db), fd, &ops);
                let r1 = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
                if clear_between {
                    ext.clear_translation_cache();
                }
                let r2 = ext.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
                let stats = ext.cache_stats();
                (r1, r2, vfs_hash(&sys), stats)
            };

            let (h1, h2, h_fs, h_stats) = run_twice(false); // second submit hits
            let (f1, f2, f_fs, f_stats) = run_twice(true);  // second submit re-decodes
            prop_assert_eq!(h_stats.hits, 1);
            prop_assert_eq!(h_stats.misses, 1);
            prop_assert_eq!(f_stats.hits, 0);
            prop_assert_eq!(f_stats.misses, 2);
            prop_assert_eq!(h1, f1);
            prop_assert_eq!(h2, f2, "cache hit diverged from fresh decode");
            prop_assert_eq!(h_fs, f_fs);
        }
    }
}
