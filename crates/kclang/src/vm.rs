//! The bytecode VM: executes [`Module`](crate::bytecode::Module)s compiled
//! by [`crate::bytecode`] with observable behaviour identical to the
//! tree-walking [`Interp`](crate::interp::Interp).
//!
//! "Identical" is load-bearing: same results, same `print_int` output, same
//! step counts at every tick boundary (so fuel limits and the Cosy watchdog
//! fire at the same instant), same cycle charges, the same [`MemHook`]
//! callbacks in the same order with the same site ids, and the same errors.
//! The differential tests at the bottom of this file and the property tests
//! in `tests/` hold the two engines to that contract.
//!
//! What makes it faster than the tree-walker:
//!
//! * variable references are compile-time slot indexes into a flat `Vec`
//!   instead of per-lookup `HashMap` probes through a scope chain;
//! * type dispatch (char vs int width, pointer scaling) is resolved at
//!   compile time into specialised ops;
//! * step accounting is batched: straight-line runs of statements and
//!   expression nodes charge once with a single overflow/tick boundary
//!   test (falling back to the exact per-step path when a budget edge or
//!   tick falls inside the batch);
//! * call frames reuse flat stacks — no per-call `HashMap` scopes.

use std::collections::HashMap;

use ksim::Machine;

use crate::ast::{BinOp, SourceLoc};
use crate::bytecode::{Access, FuncInfo, Module, Op, TrapKind};
use crate::hooks::MemHook;
use crate::interp::{ExecConfig, ExecOutcome, InterpError, MemCtx, SyscallHost, TickFn};

const MAX_CALL_DEPTH: usize = 120;

#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Resume pc in the caller; `u32::MAX` marks the run-entry sentinel.
    ret_pc: u32,
    /// Operand-stack index of the first argument (arguments are read in
    /// place and discarded on return).
    base: u32,
    slot_base: u32,
    scope_mark: u32,
    arg_cursor: u16,
}

#[derive(Debug, Clone, Copy)]
struct Scope {
    /// `stack_ptr` to restore on exit.
    watermark: u64,
    /// `decl_stack` length at scope entry.
    decl_mark: u32,
}

/// The heap buffers a [`Vm`] executes in. A caller that runs many short
/// programs keeps one set and passes it to [`Vm::with_buffers`]; only the
/// buffers' capacity carries over, never their contents, so a VM built on
/// reused buffers starts from exactly the state [`Vm::new`] builds.
#[derive(Debug, Default)]
pub struct VmBuffers {
    global_addrs: Vec<u64>,
    strings: HashMap<u32, u64>,
    heap_live: HashMap<u64, usize>,
    stack: Vec<i64>,
    slots: Vec<u64>,
    frames: Vec<Frame>,
    scope_stack: Vec<Scope>,
    decl_stack: Vec<u16>,
}

/// A bytecode VM instance. Owns the same kind of caller-prepared arena as
/// the interpreter and is reusable across `run` calls (globals persist).
pub struct Vm<'a> {
    machine: &'a Machine,
    module: &'a Module,
    /// `None` until KGCC attaches one: an unhooked VM makes no hook calls.
    hook: Option<&'a dyn MemHook>,
    host: Option<&'a dyn SyscallHost>,
    ticker: Option<&'a TickFn<'a>>,
    cfg: ExecConfig,
    // Arena layout mirrors the interpreter: [data | heap ↑ ... ↓ stack].
    arena_end: u64,
    data_ptr: u64,
    heap_ptr: u64,
    stack_ptr: u64,
    global_addrs: Vec<u64>,
    strings: HashMap<u32, u64>,
    heap_live: HashMap<u64, usize>,
    steps: u64,
    /// `print_int` output, for tests and demos.
    pub output: Vec<i64>,
    // Flat execution state (no per-call allocation).
    stack: Vec<i64>,
    slots: Vec<u64>,
    frames: Vec<Frame>,
    scope_stack: Vec<Scope>,
    decl_stack: Vec<u16>,
}

impl<'a> Vm<'a> {
    /// Create a VM over a caller-prepared arena: `[base, base+len)` must be
    /// mapped read-write in `cfg.asid`. Globals are allocated and
    /// initialised immediately (running the module's init chunk), exactly
    /// like `Interp::new`.
    pub fn new(
        machine: &'a Machine,
        module: &'a Module,
        cfg: ExecConfig,
        arena_base: u64,
        arena_len: usize,
    ) -> Result<Self, InterpError> {
        let mut vm =
            Self::on_buffers(machine, module, cfg, arena_base, arena_len, VmBuffers::default());
        vm.init()?;
        Ok(vm)
    }

    /// [`Vm::new`] in the buffers taken out of `bufs`, which the caller
    /// gets back from [`Vm::into_buffers`] (or, if the init chunk fails,
    /// in `bufs` again). A caller that invokes programs in a loop stops
    /// allocating once the buffers have grown to fit.
    pub fn with_buffers(
        machine: &'a Machine,
        module: &'a Module,
        cfg: ExecConfig,
        arena_base: u64,
        arena_len: usize,
        bufs: &mut VmBuffers,
    ) -> Result<Self, InterpError> {
        let taken = std::mem::take(bufs);
        let mut vm = Self::on_buffers(machine, module, cfg, arena_base, arena_len, taken);
        if let Err(e) = vm.init() {
            *bufs = vm.into_buffers();
            return Err(e);
        }
        Ok(vm)
    }

    /// Hand the execution buffers back for the next [`Vm::with_buffers`].
    pub fn into_buffers(self) -> VmBuffers {
        VmBuffers {
            global_addrs: self.global_addrs,
            strings: self.strings,
            heap_live: self.heap_live,
            stack: self.stack,
            slots: self.slots,
            frames: self.frames,
            scope_stack: self.scope_stack,
            decl_stack: self.decl_stack,
        }
    }

    /// A VM with empty state in `b`'s allocations, before the init chunk.
    fn on_buffers(
        machine: &'a Machine,
        module: &'a Module,
        cfg: ExecConfig,
        arena_base: u64,
        arena_len: usize,
        mut b: VmBuffers,
    ) -> Self {
        b.global_addrs.clear();
        b.global_addrs.resize(module.globals.len(), 0);
        b.strings.clear();
        b.heap_live.clear();
        b.stack.clear();
        b.slots.clear();
        b.frames.clear();
        b.scope_stack.clear();
        b.decl_stack.clear();
        Vm {
            machine,
            module,
            hook: None,
            host: None,
            ticker: None,
            cfg,
            arena_end: arena_base + arena_len as u64,
            data_ptr: arena_base,
            heap_ptr: 0,
            stack_ptr: arena_base + arena_len as u64,
            global_addrs: b.global_addrs,
            strings: b.strings,
            heap_live: b.heap_live,
            steps: 0,
            output: Vec::new(),
            stack: b.stack,
            slots: b.slots,
            frames: b.frames,
            scope_stack: b.scope_stack,
            decl_stack: b.decl_stack,
        }
    }

    /// Run the init chunk (global allocation + initialisers) under a
    /// sentinel frame with no slots.
    fn init(&mut self) -> Result<(), InterpError> {
        self.frames.push(Frame { ret_pc: u32::MAX, base: 0, slot_base: 0, scope_mark: 0, arg_cursor: 0 });
        self.scope_stack.push(Scope { watermark: self.stack_ptr, decl_mark: 0 });
        if let Err(e) = self.exec(self.module.init_entry) {
            self.unwind_all();
            return Err(e);
        }
        self.heap_ptr = self.data_ptr;
        Ok(())
    }

    /// Attach an instrumentation hook (KGCC). Re-registers global and
    /// currently-live heap objects with the new hook.
    pub fn set_hook(&mut self, hook: &'a dyn MemHook) {
        self.hook = Some(hook);
        for (g, &addr) in self.module.globals.iter().zip(&self.global_addrs) {
            hook.on_alloc(addr, g.size, false);
        }
        for (&base, &len) in &self.heap_live {
            hook.on_alloc(base, len, true);
        }
    }

    /// Attach a syscall host.
    pub fn set_host(&mut self, host: &'a dyn SyscallHost) {
        self.host = Some(host);
    }

    /// Attach the periodic tick callback (Cosy watchdog hook-in).
    pub fn set_ticker(&mut self, t: &'a TickFn<'a>) {
        self.ticker = Some(t);
    }

    /// Steps executed so far (across runs).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Run `func(args...)` to completion.
    pub fn run(&mut self, func: &str, args: &[i64]) -> Result<ExecOutcome, InterpError> {
        match self.module.func_by_name(func) {
            Some(fidx) => self.run_func(fidx, args),
            None => Err(InterpError::NoSuchFunction(func.to_string())),
        }
    }

    /// [`Vm::run`] by function index ([`Module::func_by_name`]), for
    /// callers that resolved the entry point once up front.
    pub fn run_func(&mut self, fidx: u16, args: &[i64]) -> Result<ExecOutcome, InterpError> {
        let start = self.steps;
        match self.enter(fidx, args) {
            Ok(ret) => Ok(ExecOutcome { ret, steps: self.steps - start }),
            Err(e) => {
                self.unwind_all();
                Err(e)
            }
        }
    }

    fn enter(&mut self, fidx: u16, args: &[i64]) -> Result<i64, InterpError> {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(InterpError::Oom("call stack"));
        }
        let f = &self.module.funcs[fidx as usize];
        if f.n_params as usize != args.len() {
            return Err(InterpError::BadCall(format!(
                "{} expects {} args, got {}",
                f.name,
                f.n_params,
                args.len()
            )));
        }
        let base = self.stack.len() as u32;
        self.stack.extend_from_slice(args);
        let entry = f.entry;
        self.push_frame(u32::MAX, base, fidx);
        self.exec(entry)
    }

    fn push_frame(&mut self, ret_pc: u32, base: u32, fidx: u16) {
        let f: &FuncInfo = &self.module.funcs[fidx as usize];
        let slot_base = self.slots.len() as u32;
        self.slots.resize(self.slots.len() + f.n_slots as usize, 0);
        self.frames.push(Frame {
            ret_pc,
            base,
            slot_base,
            scope_mark: self.scope_stack.len() as u32,
            arg_cursor: 0,
        });
        self.scope_stack
            .push(Scope { watermark: self.stack_ptr, decl_mark: self.decl_stack.len() as u32 });
    }

    // ---- arena allocators (identical to the interpreter's) ---------------

    fn alloc_data(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = size.max(1).next_multiple_of(8) + 8;
        let addr = self.data_ptr;
        if addr + size as u64 > self.arena_end {
            return Err(InterpError::Oom("data"));
        }
        self.data_ptr += size as u64;
        Ok(addr)
    }

    fn alloc_heap(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = size.max(1).next_multiple_of(8) + 8;
        let addr = self.heap_ptr;
        if addr + (size as u64) >= self.stack_ptr {
            return Err(InterpError::Oom("heap"));
        }
        self.heap_ptr += size as u64;
        self.heap_live.insert(addr, size);
        Ok(addr)
    }

    fn alloc_stack(&mut self, size: usize) -> Result<u64, InterpError> {
        let size = size.max(1).next_multiple_of(8) + 8;
        if self.stack_ptr - (size as u64) <= self.heap_ptr {
            return Err(InterpError::Oom("stack"));
        }
        self.stack_ptr -= size as u64;
        Ok(self.stack_ptr)
    }

    fn mem(&self) -> MemCtx<'a> {
        MemCtx::new(self.machine, self.cfg.asid, self.cfg.seg)
    }

    // ---- step accounting --------------------------------------------------

    /// Charge `n` evaluation steps. The fast path batches the whole run
    /// when neither the fuel limit nor a tick boundary falls inside it;
    /// otherwise it replays the interpreter's per-step sequence exactly
    /// (charge, then timeout test, then tick).
    fn charge(&mut self, n: u32) -> Result<(), InterpError> {
        let n = n as u64;
        let before = self.steps;
        let after = before + n;
        let timeout_ok = self.cfg.max_steps.map(|m| after <= m).unwrap_or(true);
        let tick = self.cfg.tick_every;
        let tick_ok =
            self.ticker.is_none() || tick == 0 || before / tick == after / tick;
        if timeout_ok && tick_ok {
            self.steps = after;
            let cycles = n * self.cfg.cycles_per_step;
            if self.cfg.charge_sys {
                self.machine.charge_sys(cycles);
            } else {
                self.machine.charge_user(cycles);
            }
            return Ok(());
        }
        for _ in 0..n {
            self.steps += 1;
            if self.cfg.charge_sys {
                self.machine.charge_sys(self.cfg.cycles_per_step);
            } else {
                self.machine.charge_user(self.cfg.cycles_per_step);
            }
            if let Some(max) = self.cfg.max_steps {
                if self.steps > max {
                    return Err(InterpError::Timeout { steps: self.steps });
                }
            }
            if self.steps.is_multiple_of(tick) {
                if let Some(t) = self.ticker {
                    t(self.steps)?;
                }
            }
        }
        Ok(())
    }

    // ---- hook calls (none without a hook) ---------------------------------

    fn on_alloc(&self, base: u64, len: usize, is_heap: bool) {
        if let Some(hook) = self.hook {
            hook.on_alloc(base, len, is_heap);
        }
    }

    fn on_ptr_arith(&self, site: u32, old: u64, new: u64) -> Result<u64, InterpError> {
        match self.hook {
            Some(hook) => Ok(hook.on_ptr_arith(site, old, new)?),
            None => Ok(new),
        }
    }

    // ---- scalar access ----------------------------------------------------

    fn load(
        &mut self,
        addr: u64,
        access: Access,
        site: u32,
        checked: bool,
    ) -> Result<i64, InterpError> {
        if checked {
            if let Some(hook) = self.hook {
                hook.on_access(site, addr, access.len as usize, false)?;
            }
        }
        let mem = self.mem();
        if access.byte {
            let mut b = [0u8; 1];
            mem.read(addr, &mut b)?;
            Ok(b[0] as i64)
        } else {
            let mut b = [0u8; 8];
            mem.read(addr, &mut b)?;
            Ok(i64::from_le_bytes(b))
        }
    }

    fn store(
        &mut self,
        addr: u64,
        access: Access,
        v: i64,
        site: u32,
        checked: bool,
    ) -> Result<(), InterpError> {
        if checked {
            if let Some(hook) = self.hook {
                hook.on_access(site, addr, access.len as usize, true)?;
            }
        }
        let mem = self.mem();
        if access.byte {
            mem.write(addr, &[v as u8])?;
        } else {
            mem.write(addr, &v.to_le_bytes())?;
        }
        Ok(())
    }

    // ---- scope/frame unwinding --------------------------------------------

    fn exit_scope(&mut self, slot_base: u32) {
        let sc = self.scope_stack.pop().expect("scope underflow");
        if let Some(hook) = self.hook {
            for &slot in &self.decl_stack[sc.decl_mark as usize..] {
                hook.on_dealloc(self.slots[slot_base as usize + slot as usize], false);
            }
        }
        self.decl_stack.truncate(sc.decl_mark as usize);
        self.stack_ptr = sc.watermark;
    }

    /// After an error: pop every live frame, notifying the hook of dying
    /// stack objects and restoring the arena stack pointer — the same
    /// cleanup the interpreter performs as an error propagates out of its
    /// nested `call_func`/`exec_block` calls.
    fn unwind_all(&mut self) {
        while let Some(f) = self.frames.pop() {
            while self.scope_stack.len() > f.scope_mark as usize {
                self.exit_scope(f.slot_base);
            }
            self.slots.truncate(f.slot_base as usize);
        }
        self.stack.clear();
        self.decl_stack.clear();
    }

    // ---- the dispatch loop ------------------------------------------------

    fn exec(&mut self, entry: u32) -> Result<i64, InterpError> {
        let module: &'a Module = self.module;
        let code = &module.code;
        let mut pc = entry as usize;
        loop {
            let op = code[pc];
            pc += 1;
            match op {
                Op::Step(n) => self.charge(n)?,
                Op::PushInt(v) => self.stack.push(v),
                Op::PushLocalAddr(slot) => {
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    self.stack.push(self.slots[sb + slot as usize] as i64);
                }
                Op::PushGlobalAddr(g) => {
                    self.stack.push(self.global_addrs[g as usize] as i64);
                }
                Op::LoadLocal { slot, site, access, checked } => {
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    let addr = self.slots[sb + slot as usize];
                    let v = self.load(addr, access, site, checked)?;
                    self.stack.push(v);
                }
                Op::LoadGlobal { gidx, site, access, checked } => {
                    let addr = self.global_addrs[gidx as usize];
                    let v = self.load(addr, access, site, checked)?;
                    self.stack.push(v);
                }
                Op::LoadInd { site, access, checked } => {
                    let addr = self.stack.pop().expect("operand") as u64;
                    let v = self.load(addr, access, site, checked)?;
                    self.stack.push(v);
                }
                Op::StoreInd { site, access, checked } => {
                    let addr = self.stack.pop().expect("operand") as u64;
                    let v = *self.stack.last().expect("operand");
                    self.store(addr, access, v, site, checked)?;
                }
                Op::StoreLocalKeep { slot, site, access, checked } => {
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    let addr = self.slots[sb + slot as usize];
                    let v = *self.stack.last().expect("operand");
                    self.store(addr, access, v, site, checked)?;
                }
                Op::StoreGlobalKeep { gidx, site, access, checked } => {
                    let addr = self.global_addrs[gidx as usize];
                    let v = *self.stack.last().expect("operand");
                    self.store(addr, access, v, site, checked)?;
                }
                Op::StoreLocalPop { slot, site, access, checked } => {
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    let addr = self.slots[sb + slot as usize];
                    let v = self.stack.pop().expect("operand");
                    self.store(addr, access, v, site, checked)?;
                }
                Op::StoreGlobalPop { gidx, site, access, checked } => {
                    let addr = self.global_addrs[gidx as usize];
                    let v = self.stack.pop().expect("operand");
                    self.store(addr, access, v, site, checked)?;
                }
                Op::StrLit { id, sidx } => {
                    if let Some(&addr) = self.strings.get(&id) {
                        self.stack.push(addr as i64);
                    } else {
                        let bytes = &module.strings[sidx as usize];
                        let addr = self.alloc_data(bytes.len() + 1)?;
                        self.on_alloc(addr, bytes.len() + 1, false);
                        let mem = self.mem();
                        mem.write(addr, bytes)?;
                        mem.write(addr + bytes.len() as u64, &[0])?;
                        self.strings.insert(id, addr);
                        self.stack.push(addr as i64);
                    }
                }
                Op::IndexAddr { site, elem_size, checked } => {
                    let i = self.stack.pop().expect("operand");
                    let base = self.stack.pop().expect("operand") as u64;
                    let addr = (base as i64 + i * elem_size as i64) as u64;
                    let addr =
                        if checked { self.on_ptr_arith(site, base, addr)? } else { addr };
                    self.stack.push(addr as i64);
                }
                Op::PtrArith { site, scale, sub, checked } => {
                    let r = self.stack.pop().expect("operand");
                    let l = self.stack.pop().expect("operand");
                    let new = if sub { l - r * scale as i64 } else { l + r * scale as i64 };
                    let v = if checked {
                        self.on_ptr_arith(site, l as u64, new as u64)? as i64
                    } else {
                        new
                    };
                    self.stack.push(v);
                }
                Op::PtrArithRev { site, scale, checked } => {
                    let r = self.stack.pop().expect("operand");
                    let l = self.stack.pop().expect("operand");
                    let new = r + l * scale as i64;
                    let v = if checked {
                        self.on_ptr_arith(site, r as u64, new as u64)? as i64
                    } else {
                        new
                    };
                    self.stack.push(v);
                }
                Op::PtrDiff { scale } => {
                    let r = self.stack.pop().expect("operand");
                    let l = self.stack.pop().expect("operand");
                    self.stack.push((l - r) / scale as i64);
                }
                Op::Bin { op, loc } => {
                    let r = self.stack.pop().expect("operand");
                    let l = self.stack.pop().expect("operand");
                    self.stack.push(binop(op, l, r, loc)?);
                }
                Op::Neg => {
                    let v = self.stack.pop().expect("operand");
                    self.stack.push(-v);
                }
                Op::NotOp => {
                    let v = self.stack.pop().expect("operand");
                    self.stack.push((v == 0) as i64);
                }
                Op::NormBool => {
                    let v = self.stack.pop().expect("operand");
                    self.stack.push((v != 0) as i64);
                }
                Op::Jump(t) => pc = t as usize,
                Op::JumpIfZero(t) => {
                    if self.stack.pop().expect("operand") == 0 {
                        pc = t as usize;
                    }
                }
                Op::JumpIfNonZero(t) => {
                    if self.stack.pop().expect("operand") != 0 {
                        pc = t as usize;
                    }
                }
                Op::Pop => {
                    self.stack.pop().expect("operand");
                }
                Op::EnterScope => {
                    self.scope_stack.push(Scope {
                        watermark: self.stack_ptr,
                        decl_mark: self.decl_stack.len() as u32,
                    });
                }
                Op::ExitScope => {
                    let sb = self.frames.last().expect("frame").slot_base;
                    self.exit_scope(sb);
                }
                Op::DeclLocal { slot, size } => {
                    let addr = self.alloc_stack(size as usize)?;
                    self.on_alloc(addr, size as usize, false);
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    self.slots[sb + slot as usize] = addr;
                    self.decl_stack.push(slot);
                }
                Op::Param { slot, size, access } => {
                    let f = self.frames.last_mut().expect("frame");
                    let v = self.stack[f.base as usize + f.arg_cursor as usize];
                    f.arg_cursor += 1;
                    let addr = self.alloc_stack(size as usize)?;
                    self.on_alloc(addr, size as usize, false);
                    let sb = self.frames.last().expect("frame").slot_base as usize;
                    self.slots[sb + slot as usize] = addr;
                    self.decl_stack.push(slot);
                    // Parameter spill is a trusted store (site u32::MAX),
                    // same as the interpreter's prologue.
                    self.store(addr, access, v, u32::MAX, true)?;
                }
                Op::Malloc => {
                    let size = self.stack.pop().expect("operand").max(0) as usize;
                    let addr = self.alloc_heap(size)?;
                    self.on_alloc(addr, size, true);
                    self.stack.push(addr as i64);
                }
                Op::Free { site, checked } => {
                    let addr = self.stack.pop().expect("operand") as u64;
                    if checked {
                        if let Some(hook) = self.hook {
                            hook.on_free_check(site, addr)?;
                        }
                    }
                    if self.heap_live.remove(&addr).is_some() {
                        if let Some(hook) = self.hook {
                            hook.on_dealloc(addr, true);
                        }
                    }
                    self.stack.push(0);
                }
                Op::PrintInt => {
                    let v = self.stack.pop().expect("operand");
                    self.output.push(v);
                    self.stack.push(0);
                }
                Op::CallFn { fidx, argc } => {
                    if self.frames.len() >= MAX_CALL_DEPTH {
                        return Err(InterpError::Oom("call stack"));
                    }
                    let f = &module.funcs[fidx as usize];
                    if f.n_params != argc {
                        return Err(InterpError::BadCall(format!(
                            "{} expects {} args, got {}",
                            f.name, f.n_params, argc
                        )));
                    }
                    let base = (self.stack.len() - argc as usize) as u32;
                    self.push_frame(pc as u32, base, fidx);
                    pc = f.entry as usize;
                }
                Op::CallHost { name, argc } => {
                    let at = self.stack.len() - argc as usize;
                    let vals: Vec<i64> = self.stack.split_off(at);
                    let host = self.host.ok_or_else(|| {
                        InterpError::BadCall(format!("no syscall host for {name}"))
                    })?;
                    let v = host.host_call(name.as_str(), &vals, &self.mem())?;
                    self.stack.push(v);
                }
                Op::Ret => {
                    let val = self.stack.pop().expect("operand");
                    let f = self.frames.pop().expect("frame");
                    while self.scope_stack.len() > f.scope_mark as usize {
                        self.exit_scope(f.slot_base);
                    }
                    self.slots.truncate(f.slot_base as usize);
                    self.stack.truncate(f.base as usize);
                    if f.ret_pc == u32::MAX {
                        return Ok(val);
                    }
                    self.stack.push(val);
                    pc = f.ret_pc as usize;
                }
                Op::AllocGlobal { gidx } => {
                    let size = module.globals[gidx as usize].size;
                    let addr = self.alloc_data(size)?;
                    self.on_alloc(addr, size, false);
                    self.global_addrs[gidx as usize] = addr;
                }
                Op::Trap(kind) => {
                    return Err(match kind {
                        TrapKind::NoSuchFunction(n) => {
                            InterpError::NoSuchFunction(n.to_string())
                        }
                        TrapKind::NotLvalue(loc) => {
                            InterpError::Misc(format!("not an lvalue at {loc}"))
                        }
                    })
                }
            }
        }
    }
}

fn binop(op: BinOp, l: i64, r: i64, loc: SourceLoc) -> Result<i64, InterpError> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(InterpError::DivByZero(loc));
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return Err(InterpError::DivByZero(loc));
            }
            l.wrapping_rem(r)
        }
        BinOp::Lt => (l < r) as i64,
        BinOp::Le => (l <= r) as i64,
        BinOp::Gt => (l > r) as i64,
        BinOp::Ge => (l >= r) as i64,
        BinOp::Eq => (l == r) as i64,
        BinOp::Ne => (l != r) as i64,
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops compile to jumps"),
    })
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("steps", &self.steps)
            .field("frames", &self.frames.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::interp::{Interp, SegMode};
    use crate::parser::parse_program;
    use crate::types::typecheck;
    use ksim::{MachineConfig, PteFlags, PAGE_SIZE};

    const ARENA: u64 = 0x100_0000;
    const ARENA_PAGES: usize = 64;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small_free())
    }

    fn prep(m: &Machine, pages: usize) -> ksim::AsId {
        let asid = m.mem.create_space();
        for i in 0..pages {
            m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
        }
        asid
    }

    fn run_vm(m: &Machine, src: &str, func: &str, args: &[i64]) -> Result<i64, InterpError> {
        run_vm_out(m, src, func, args).map(|(v, _)| v)
    }

    fn run_vm_out(
        m: &Machine,
        src: &str,
        func: &str,
        args: &[i64],
    ) -> Result<(i64, Vec<i64>), InterpError> {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let asid = prep(m, ARENA_PAGES);
        let mut vm =
            Vm::new(m, &module, ExecConfig::flat(asid), ARENA, ARENA_PAGES * PAGE_SIZE)?;
        let out = vm.run(func, args)?;
        Ok((out.ret, vm.output.clone()))
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let m = machine();
        let src = r#"
            int collatz_len(int n) {
                int len = 0;
                while (n != 1) {
                    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                    len = len + 1;
                }
                return len;
            }
        "#;
        assert_eq!(run_vm(&m, src, "collatz_len", &[27]).unwrap(), 111);
        assert_eq!(run_vm(&m, src, "collatz_len", &[1]).unwrap(), 0);
    }

    #[test]
    fn recursion_works() {
        let m = machine();
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(run_vm(&m, src, "fib", &[15]).unwrap(), 610);
    }

    #[test]
    fn arrays_pointers_and_address_of() {
        let m = machine();
        let src = r#"
            int sum(int *p, int n) {
                int acc = 0;
                int i;
                for (i = 0; i < n; i = i + 1) { acc = acc + p[i]; }
                return acc;
            }
            int main() {
                int a[8];
                int i;
                for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
                int *q = &a[0];
                *(q + 3) = 100;
                return sum(a, 8);
            }
        "#;
        assert_eq!(run_vm(&m, src, "main", &[]).unwrap(), 231);
    }

    #[test]
    fn char_buffers_and_string_literals() {
        let m = machine();
        let src = r#"
            int strlen_(char *s) {
                int n = 0;
                while (s[n] != '\0') { n = n + 1; }
                return n;
            }
            int main() { return strlen_("hello kc"); }
        "#;
        assert_eq!(run_vm(&m, src, "main", &[]).unwrap(), 8);
    }

    #[test]
    fn globals_persist_and_initialise() {
        let m = machine();
        let src = r#"
            int counter = 10;
            int bump() { counter = counter + 1; return counter; }
            int main() { bump(); bump(); return bump(); }
        "#;
        assert_eq!(run_vm(&m, src, "main", &[]).unwrap(), 13);
    }

    #[test]
    fn malloc_free_roundtrip() {
        let m = machine();
        let src = r#"
            int main() {
                int *p = malloc(80);
                int i;
                for (i = 0; i < 10; i = i + 1) { p[i] = i; }
                int total = 0;
                for (i = 0; i < 10; i = i + 1) { total = total + p[i]; }
                free(p);
                return total;
            }
        "#;
        assert_eq!(run_vm(&m, src, "main", &[]).unwrap(), 45);
    }

    #[test]
    fn print_int_collects_output() {
        let m = machine();
        let src = r#"
            void main() {
                int i;
                for (i = 0; i < 3; i = i + 1) { print_int(i * 7); }
            }
        "#;
        let (_, out) = run_vm_out(&m, src, "main", &[]).unwrap();
        assert_eq!(out, vec![0, 7, 14]);
    }

    #[test]
    fn division_by_zero_is_caught() {
        let m = machine();
        let err = run_vm(&m, "int f(int x) { return 10 / x; }", "f", &[0]).unwrap_err();
        assert!(matches!(err, InterpError::DivByZero(_)));
        let err = run_vm(&m, "int f(int x) { return 10 % x; }", "f", &[0]).unwrap_err();
        assert!(matches!(err, InterpError::DivByZero(_)));
    }

    #[test]
    fn break_and_continue() {
        let m = machine();
        let src = r#"
            int f() {
                int total = 0;
                int i;
                for (i = 0; i < 10; i = i + 1) {
                    if (i == 7) { break; }
                    if (i % 2 == 0) { continue; }
                    total = total + i;
                }
                return total;
            }
        "#;
        // 1 + 3 + 5
        assert_eq!(run_vm(&m, src, "f", &[]).unwrap(), 9);
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let m = machine();
        let prog = parse_program("int f() { while (1) { } return 0; }").unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let asid = prep(&m, 4);
        let mut cfg = ExecConfig::flat(asid);
        cfg.max_steps = Some(10_000);
        let mut vm = Vm::new(&m, &module, cfg, ARENA, 4 * PAGE_SIZE).unwrap();
        let err = vm.run("f", &[]).unwrap_err();
        assert!(matches!(err, InterpError::Timeout { .. }));
    }

    #[test]
    fn ticker_can_kill_execution() {
        let m = machine();
        let prog = parse_program("int f() { while (1) { } return 0; }").unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let asid = prep(&m, 4);
        let mut vm = Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, 4 * PAGE_SIZE).unwrap();
        let ticker = |steps: u64| {
            if steps >= 1_000 {
                Err(InterpError::Killed("watchdog".into()))
            } else {
                Ok(())
            }
        };
        vm.set_ticker(&ticker);
        let err = vm.run("f", &[]).unwrap_err();
        assert!(matches!(err, InterpError::Killed(_)));
    }

    #[test]
    fn segmented_mode_blocks_out_of_segment_access() {
        use ksim::{SegKind, Segment};
        let m = machine();
        let prog =
            parse_program("int peek(int addr) { int *p = addr; return *p; }").unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let asid = prep(&m, 8);
        let sel = m.segs.install(Segment {
            asid,
            base: ARENA,
            limit: (8 * PAGE_SIZE) as u64,
            kind: SegKind::Data,
        });
        let mut cfg = ExecConfig::flat(asid);
        cfg.seg = SegMode::Segmented(sel);
        let mut vm = Vm::new(&m, &module, cfg, ARENA, 8 * PAGE_SIZE).unwrap();
        vm.run("peek", &[ARENA as i64]).unwrap();
        let err = vm.run("peek", &[0x7000_0000]).unwrap_err();
        assert!(matches!(err, InterpError::Segment { .. }), "got {err:?}");
    }

    #[test]
    fn unmapped_memory_faults_through_the_mmu() {
        let m = machine();
        let src = "int f(int addr) { int *p = addr; return *p; }";
        let err = run_vm(&m, src, "f", &[0xdead_0000]).unwrap_err();
        assert!(matches!(err, InterpError::Mem(_)));
    }

    #[test]
    fn stack_depth_is_bounded_by_arena() {
        let m = machine();
        let src = "int f(int n) { int pad[64]; pad[0] = n; return f(n + pad[0]); }";
        let err = run_vm(&m, src, "f", &[1]).unwrap_err();
        assert!(matches!(err, InterpError::Oom(_)), "got {err:?}");
    }

    #[test]
    fn unknown_function_is_reported() {
        let m = machine();
        let err = run_vm(&m, "int f() { return 1; }", "missing", &[]).unwrap_err();
        assert!(matches!(err, InterpError::NoSuchFunction(_)));
    }

    #[test]
    fn arity_mismatch_is_a_bad_call() {
        let m = machine();
        let err = run_vm(&m, "int f(int a) { return a; }", "f", &[1, 2]).unwrap_err();
        match err {
            InterpError::BadCall(msg) => assert_eq!(msg, "f expects 1 args, got 2"),
            other => panic!("expected BadCall, got {other:?}"),
        }
    }

    // ---- differential parity with the tree-walker -------------------------

    /// Run both engines on separate but identically-configured machines and
    /// demand identical results, output, step counts, and cycle charges.
    pub(super) fn assert_parity(src: &str, func: &str, args: &[i64]) {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();

        let mi = machine();
        let asid_i = prep(&mi, ARENA_PAGES);
        let iu0 = mi.clock.user_cycles();
        let is0 = mi.clock.sys_cycles();
        let mut interp = Interp::new(
            &mi,
            &prog,
            &info,
            ExecConfig::flat(asid_i),
            ARENA,
            ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        let ri = interp.run(func, args);

        let mv = machine();
        let asid_v = prep(&mv, ARENA_PAGES);
        let vu0 = mv.clock.user_cycles();
        let vs0 = mv.clock.sys_cycles();
        let mut vm = Vm::new(
            &mv,
            &module,
            ExecConfig::flat(asid_v),
            ARENA,
            ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        let rv = vm.run(func, args);

        match (&ri, &rv) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ret, b.ret, "return value diverged for {src}");
                assert_eq!(a.steps, b.steps, "charged steps diverged for {src}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged for {src}"),
            other => panic!("one engine failed, the other did not: {other:?} for {src}"),
        }
        assert_eq!(interp.output, vm.output, "print_int output diverged");
        assert_eq!(interp.steps(), vm.steps(), "total steps diverged");
        assert_eq!(
            mi.clock.user_cycles() - iu0,
            mv.clock.user_cycles() - vu0,
            "user cycles diverged for {src}"
        );
        assert_eq!(
            mi.clock.sys_cycles() - is0,
            mv.clock.sys_cycles() - vs0,
            "sys cycles diverged for {src}"
        );
    }

    #[test]
    fn parity_on_representative_corpus() {
        let corpus: &[(&str, &str, &[i64])] = &[
            (
                "int collatz(int n) { int len = 0; while (n != 1) { if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } len = len + 1; } return len; }",
                "collatz",
                &[27],
            ),
            ("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }", "fib", &[15]),
            (
                r#"
                int sum(int *p, int n) {
                    int acc = 0; int i;
                    for (i = 0; i < n; i = i + 1) { acc = acc + p[i]; }
                    return acc;
                }
                int main() {
                    int a[8]; int i;
                    for (i = 0; i < 8; i = i + 1) { a[i] = i * i; }
                    int *q = &a[0];
                    *(q + 3) = 100;
                    return sum(a, 8);
                }
                "#,
                "main",
                &[],
            ),
            (
                r#"
                int strlen_(char *s) { int n = 0; while (s[n] != '\0') { n = n + 1; } return n; }
                int main() { return strlen_("hello kc") + strlen_("x"); }
                "#,
                "main",
                &[],
            ),
            (
                r#"
                int counter = 10;
                int arr_g[4];
                int bump() { counter = counter + 1; return counter; }
                int main() { int i; for (i = 0; i < 4; i = i + 1) { arr_g[i] = bump(); } return arr_g[3]; }
                "#,
                "main",
                &[],
            ),
            (
                r#"
                int main() {
                    int *p = malloc(80); int i;
                    for (i = 0; i < 10; i = i + 1) { p[i] = i * 3; }
                    int t = 0;
                    for (i = 0; i < 10; i = i + 1) { t = t + p[i]; }
                    free(p);
                    print_int(t);
                    return t;
                }
                "#,
                "main",
                &[],
            ),
            (
                r#"
                int f() {
                    int total = 0; int i; int j;
                    for (i = 0; i < 6; i = i + 1) {
                        j = 0;
                        while (j < 6) {
                            j = j + 1;
                            if (j == 4) { continue; }
                            if (i * j > 12) { break; }
                            total = total + i * j;
                        }
                    }
                    return total;
                }
                "#,
                "f",
                &[],
            ),
            (
                "int logic(int a, int b) { return (a && b) + (a || b) + (!a) + (a < b && b > 0 || a == 3); }",
                "logic",
                &[3, 0],
            ),
            ("int df(int x) { return 100 / x; }", "df", &[0]),
            (
                r#"
                int rec(int n) { int pad[32]; pad[1] = n; return rec(n + pad[1]); }
                "#,
                "rec",
                &[1],
            ),
        ];
        for (src, func, args) in corpus {
            assert_parity(src, func, args);
        }
    }

    #[test]
    fn parity_holds_under_tight_fuel() {
        // The fuel limit must fire on exactly the same step in both
        // engines, whatever the batch boundaries are.
        let src = "int f() { int i; int s = 0; for (i = 0; i < 100000; i = i + 1) { s = s + i; } return s; }";
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        for max in [1u64, 7, 64, 65, 1000, 4096] {
            let mi = machine();
            let asid_i = prep(&mi, ARENA_PAGES);
            let mut cfg = ExecConfig::flat(asid_i);
            cfg.max_steps = Some(max);
            let mut interp =
                Interp::new(&mi, &prog, &info, cfg, ARENA, ARENA_PAGES * PAGE_SIZE).unwrap();
            let ri = interp.run("f", &[]);

            let mv = machine();
            let asid_v = prep(&mv, ARENA_PAGES);
            let mut cfg = ExecConfig::flat(asid_v);
            cfg.max_steps = Some(max);
            let mut vm = Vm::new(&mv, &module, cfg, ARENA, ARENA_PAGES * PAGE_SIZE).unwrap();
            let rv = vm.run("f", &[]);

            assert_eq!(ri, rv, "fuel={max}");
            assert_eq!(interp.steps(), vm.steps(), "fuel={max}");
        }
    }

    #[test]
    fn parity_of_tick_boundaries() {
        // Record each tick's step counter in both engines; sequences must
        // match exactly (the watchdog sees the same preemption points).
        use std::cell::RefCell;
        let src =
            "int f(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) { s = s + i * i; } return s; }";
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();

        let ticks_i = RefCell::new(Vec::new());
        let mi = machine();
        let asid_i = prep(&mi, ARENA_PAGES);
        let mut interp = Interp::new(
            &mi,
            &prog,
            &info,
            ExecConfig::flat(asid_i),
            ARENA,
            ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        let ti = |s: u64| {
            ticks_i.borrow_mut().push(s);
            Ok(())
        };
        interp.set_ticker(&ti);
        interp.run("f", &[500]).unwrap();

        let ticks_v = RefCell::new(Vec::new());
        let mv = machine();
        let asid_v = prep(&mv, ARENA_PAGES);
        let mut vm = Vm::new(
            &mv,
            &module,
            ExecConfig::flat(asid_v),
            ARENA,
            ARENA_PAGES * PAGE_SIZE,
        )
        .unwrap();
        let tv = |s: u64| {
            ticks_v.borrow_mut().push(s);
            Ok(())
        };
        vm.set_ticker(&tv);
        vm.run("f", &[500]).unwrap();

        assert!(!ticks_i.borrow().is_empty());
        assert_eq!(*ticks_i.borrow(), *ticks_v.borrow());
    }

    #[test]
    fn vm_is_reusable_after_an_error() {
        let m = machine();
        let src = r#"
            int g = 5;
            int f(int x) { return g / x; }
        "#;
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let asid = prep(&m, ARENA_PAGES);
        let mut vm =
            Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, ARENA_PAGES * PAGE_SIZE).unwrap();
        assert!(vm.run("f", &[0]).is_err());
        assert_eq!(vm.run("f", &[5]).unwrap().ret, 1);
    }

    /// Logs every hook call, to compare two VMs' object lifetimes.
    #[derive(Default)]
    struct Recorder(std::cell::RefCell<Vec<String>>);

    impl MemHook for Recorder {
        fn on_access(
            &self,
            site: u32,
            addr: u64,
            len: usize,
            is_write: bool,
        ) -> Result<(), crate::hooks::CheckViolation> {
            self.0.borrow_mut().push(format!("access {site} {addr:#x} {len} {is_write}"));
            Ok(())
        }
        fn on_alloc(&self, base: u64, len: usize, is_heap: bool) {
            self.0.borrow_mut().push(format!("alloc {base:#x} {len} {is_heap}"));
        }
        fn on_dealloc(&self, base: u64, is_heap: bool) {
            self.0.borrow_mut().push(format!("dealloc {base:#x} {is_heap}"));
        }
    }

    #[test]
    fn reused_buffers_start_as_fresh_as_new() {
        // A trap at x == 0 leaves a heap object, a string literal and a
        // nested frame live; the next VM on the same buffers must not see
        // any of them (a stale heap object would be re-registered by
        // `set_hook`).
        let src = r#"
            int g = 3;
            int div(int a, int b) { return a / b; }
            int f(int x) {
                char *s = "kc";
                int *p = malloc(8);
                p[0] = s[0];
                return div(g * p[0], x);
            }
        "#;
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        let (ml, mf) = (machine(), machine());
        let (asid_l, asid_f) = (prep(&ml, ARENA_PAGES), prep(&mf, ARENA_PAGES));
        let mut bufs = VmBuffers::default();
        for x in [2, 0, 0, 3, 0, 1] {
            let (rec_l, rec_f) = (Recorder::default(), Recorder::default());
            let cyc_l = ml.clock.sys_cycles() + ml.clock.user_cycles();
            let cfg = ExecConfig::flat(asid_l);
            let mut vm =
                Vm::with_buffers(&ml, &module, cfg, ARENA, ARENA_PAGES * PAGE_SIZE, &mut bufs)
                    .unwrap();
            vm.set_hook(&rec_l);
            let lent = vm.run("f", &[x]);
            bufs = vm.into_buffers();
            let cyc_l = ml.clock.sys_cycles() + ml.clock.user_cycles() - cyc_l;
            let cyc_f = mf.clock.sys_cycles() + mf.clock.user_cycles();
            let mut vm =
                Vm::new(&mf, &module, ExecConfig::flat(asid_f), ARENA, ARENA_PAGES * PAGE_SIZE)
                    .unwrap();
            vm.set_hook(&rec_f);
            let fresh = vm.run("f", &[x]);
            let cyc_f = mf.clock.sys_cycles() + mf.clock.user_cycles() - cyc_f;
            assert_eq!(lent, fresh, "x={x}");
            assert_eq!(cyc_l, cyc_f, "x={x}");
            assert_eq!(*rec_l.0.borrow(), *rec_f.0.borrow(), "x={x}");
        }
        assert!(bufs.stack.capacity() > 0, "the buffers kept their capacity");
    }
}

#[cfg(test)]
mod parity_proptests {
    //! Property-based differential testing: the VM must be observably
    //! identical to the tree-walking interpreter — same results or errors,
    //! same step counts, same cycle charges — on *arbitrary* safe KC
    //! programs, not just a hand-picked corpus. Programs are generated as
    //! source text from a bounded grammar (terminating loops, in-bounds
    //! array and pointer accesses; division by zero may occur and must then
    //! diverge identically in both engines).

    use super::tests::assert_parity;
    use proptest::prelude::*;

    /// Integer expressions over the function's variables. `ptr` enables
    /// in-bounds pointer reads through `p` (which aliases `arr`).
    fn arb_expr(depth: u32) -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            (-20i64..20).prop_map(|v| v.to_string()),
            prop_oneof![
                Just("a".to_string()),
                Just("b".to_string()),
                Just("t0".to_string()),
                Just("t1".to_string()),
            ],
            (0u8..4).prop_map(|k| format!("arr[{k}]")),
            (0u8..4).prop_map(|k| format!("*(p + {k})")),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let inner = arb_expr(depth - 1);
        prop_oneof![
            leaf,
            (inner.clone(), inner.clone(), 0u8..13).prop_map(|(l, r, op)| {
                let op = match op {
                    0 => "+",
                    1 => "-",
                    2 => "*",
                    3 => "/",
                    4 => "%",
                    5 => "<",
                    6 => "<=",
                    7 => ">",
                    8 => ">=",
                    9 => "==",
                    10 => "!=",
                    11 => "&&",
                    _ => "||",
                };
                format!("({l} {op} {r})")
            }),
            inner.clone().prop_map(|e| format!("(-{e})")),
            inner.prop_map(|e| format!("(!{e})")),
        ]
        .boxed()
    }

    /// Statements. Loops at nesting depth `d` use the counter `i{d}`, so
    /// nested loops never share a variable; all loops terminate.
    fn arb_stmt(depth: u32) -> BoxedStrategy<String> {
        let assign = || {
            prop_oneof![
                (prop_oneof![Just("t0"), Just("t1")], arb_expr(2))
                    .prop_map(|(v, e)| format!("{v} = {e};")),
                (0u8..4, arb_expr(2)).prop_map(|(k, e)| format!("arr[{k}] = {e};")),
                (0u8..4, arb_expr(2)).prop_map(|(k, e)| format!("*(p + {k}) = {e};")),
            ]
        };
        if depth == 0 {
            return assign().boxed();
        }
        let body = proptest::collection::vec(arb_stmt(depth - 1), 0..4)
            .prop_map(|ss| ss.join(" "));
        prop_oneof![
            assign(),
            assign(),
            (arb_expr(1), body.clone(), body.clone())
                .prop_map(|(c, t, e)| format!("if ({c}) {{ {t} }} else {{ {e} }}")),
            (1u8..6, body).prop_map(move |(k, b)| {
                let i = format!("i{depth}");
                format!("for ({i} = 0; {i} < {k}; {i} = {i} + 1) {{ {b} }}")
            }),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn vm_matches_interpreter_on_arbitrary_programs(
            stmts in proptest::collection::vec(arb_stmt(2), 1..6),
            a in -30i64..30,
            b in -30i64..30,
        ) {
            let src = format!(
                r#"
                int f(int a, int b) {{
                    int t0 = a; int t1 = b;
                    int i0; int i1; int i2;
                    int arr[4];
                    for (i0 = 0; i0 < 4; i0 = i0 + 1) {{ arr[i0] = i0; }}
                    int *p = &arr[0];
                    {}
                    return t0 + t1 + arr[0] + arr[1] + arr[2] + arr[3];
                }}
                "#,
                stmts.join("\n                    ")
            );
            // assert_parity panics on any divergence (result, error, steps,
            // output, user/sys cycles); proptest shrinks the program.
            assert_parity(&src, "f", &[a, b]);
        }
    }
}
