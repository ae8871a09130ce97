//! The bytecode VM, the engine every KC program runs on: executes
//! [`Module`]s compiled by [`crate::bytecode`] with observable behaviour
//! identical to the tree-walking reference [`Interp`](crate::interp::Interp).
//!
//! "Identical" is load-bearing: same results, same `print_int` output, same
//! step counts at every tick boundary (so fuel limits and the Cosy watchdog
//! fire at the same instant), same cycle charges, the same [`MemHook`]
//! callbacks in the same order with the same site ids, and the same errors.
//! The engine-parity table and property tests at the bottom of this file
//! hold the two engines to that contract.
//!
//! Each opcode's step is written once, in [`Core::step`], generic over a
//! [`Domain`]. The core owns the structure (operand stack, frames, scopes,
//! slots, jumps and calls); the domain owns values, memory, allocation,
//! step charging and conditions. [`Vm`] runs the step in the concrete
//! domain, simulated memory and `i64`s; kprog's load-time verifier runs the
//! same step in an abstract one, so the steps it proves are the steps the
//! VM charges.
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

use crate::arena::Arena;
use crate::ast::BinOp;
use crate::bytecode::{Access, FuncInfo, Module, Op, TrapKind};
use crate::exec::{
    ExecConfig, ExecOutcome, InterpError, MemCtx, SyscallHost, TickFn, CYCLES_PER_STEP,
    MAX_CALL_DEPTH, TICK_EVERY,
};
use crate::hooks::MemHook;
use crate::sym::Sym;

/// What [`Core::step`] leaves to the executor: values, memory, allocation,
/// step charging and conditions. `site`/`checked` are the op's KGCC check
/// site and whether the check is compiled in.
pub trait Domain {
    /// One operand-stack value.
    type Val: Copy;
    /// Why a run stops. A runtime error of the step itself (division by
    /// zero, call depth, a bad call, a trap) arrives as an [`InterpError`].
    type Err: From<InterpError>;

    /// An integer literal.
    fn int(&mut self, v: i64) -> Self::Val;
    /// The address of a declared local or global object.
    fn addr(&mut self, a: u64) -> Self::Val;
    /// Whether `v` is nonzero; `None` when the domain cannot tell.
    fn truth(&mut self, v: Self::Val) -> Option<bool>;
    /// `l op r`; `None` on division by zero.
    fn bin(&mut self, op: BinOp, l: Self::Val, r: Self::Val) -> Option<Self::Val>;
    /// `ptr ± idx * scale` (pointer arithmetic and array indexing).
    fn offset(
        &mut self,
        ptr: Self::Val,
        idx: Self::Val,
        scale: u32,
        sub: bool,
        site: u32,
        checked: bool,
    ) -> Result<Self::Val, Self::Err>;
    /// `(l - r) / scale` for two pointers.
    fn ptr_diff(&mut self, l: Self::Val, r: Self::Val, scale: u32) -> Self::Val;
    /// The value at `addr`; a store writes `v` there.
    fn load(
        &mut self,
        addr: Self::Val,
        access: Access,
        site: u32,
        checked: bool,
    ) -> Result<Self::Val, Self::Err>;
    fn store(
        &mut self,
        addr: Self::Val,
        access: Access,
        v: Self::Val,
        site: u32,
        checked: bool,
    ) -> Result<(), Self::Err>;
    /// The address of string literal `id`, holding `bytes` and a NUL.
    fn str_lit(&mut self, id: u32, bytes: &[u8]) -> Result<Self::Val, Self::Err>;
    /// A new object of `size` bytes: a global, or a local on the stack.
    fn alloc(&mut self, size: usize, global: bool) -> Result<u64, Self::Err>;
    /// The stack object at `addr` (0 if never declared) went out of scope.
    fn free_local(&mut self, addr: u64);
    /// The stack allocation mark a scope restores on exit.
    fn mark(&mut self) -> u64 {
        0
    }
    /// Return to a [`Domain::mark`] at scope exit.
    fn release(&mut self, _mark: u64) {}
    /// Charge `n` steps on top of `steps`.
    fn charge(&mut self, steps: &mut u64, n: u32) -> Result<(), Self::Err>;
    /// A jump from `from` to `to` was taken.
    fn jumped(&mut self, _from: u32, _to: u32) {}
    // The defaults are a domain with no heap, no output and no host.
    fn malloc(&mut self, _size: Self::Val) -> Result<Self::Val, Self::Err> {
        Err(InterpError::Oom("heap").into())
    }
    /// `free` of an address that is no live heap object does nothing.
    fn free(&mut self, _addr: Self::Val, _site: u32, _checked: bool) -> Result<(), Self::Err> {
        Ok(())
    }
    fn print(&mut self, _v: Self::Val) {}
    fn host(&mut self, name: Sym, _args: &[Self::Val]) -> Result<Self::Val, Self::Err> {
        Err(InterpError::BadCall(format!("no syscall host for {name}")).into())
    }
}

/// Where [`Core::step`] goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow<V> {
    /// Go on at this pc.
    Next(u32),
    /// A conditional jump's truth is unknown: the run may go on at either
    /// pc. The condition has been popped.
    Fork { fall: u32, taken: u32 },
    /// The run's entry frame returned this value.
    Return(V),
}

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
    /// [`Domain::mark`] to restore on exit.
    mark: u64,
    /// `decls` length at scope entry.
    decl_mark: u32,
}

/// The execution state one step reads and writes, over values `V`.
#[derive(Debug, Clone, Default)]
pub struct Core<V> {
    /// Where a path resumes, for a caller that keeps its pc here (the
    /// verifier). The VM keeps its running pc in a local instead.
    pub pc: u32,
    /// Steps charged so far.
    pub steps: u64,
    pub stack: Vec<V>,
    /// Object address per local slot of every live frame (0: undeclared).
    slots: Vec<u64>,
    frames: Vec<Frame>,
    scopes: Vec<Scope>,
    /// Slots declared in the live scopes, innermost last.
    decls: Vec<u16>,
    /// Per-global address, set by `AllocGlobal`.
    globals: Vec<u64>,
}

impl<V: Copy> Core<V> {
    /// Empty state for `module` under the run-entry sentinel frame, at the
    /// init chunk's entry.
    pub fn start(&mut self, module: &Module, mark: u64) {
        self.stack.clear();
        self.slots.clear();
        self.frames.clear();
        self.scopes.clear();
        self.decls.clear();
        self.globals.clear();
        self.globals.resize(module.globals.len(), 0);
        self.steps = 0;
        self.pc = module.init_entry;
        self.push_frame(mark, u32::MAX, 0, 0);
    }

    /// Enter a frame whose arguments start at stack index `base`, with
    /// `n_slots` local slots and one scope opened at `mark`.
    pub fn push_frame(&mut self, mark: u64, ret_pc: u32, base: u32, n_slots: u16) {
        let slot_base = self.slots.len() as u32;
        self.slots.resize(self.slots.len() + n_slots as usize, 0);
        self.frames.push(Frame {
            ret_pc,
            base,
            slot_base,
            scope_mark: self.scopes.len() as u32,
            arg_cursor: 0,
        });
        self.scopes.push(Scope { mark, decl_mark: self.decls.len() as u32 });
    }

    fn pop(&mut self) -> V {
        self.stack.pop().expect("operand")
    }

    fn top(&self) -> V {
        *self.stack.last().expect("operand")
    }

    fn local(&self, slot: u16) -> u64 {
        self.slots[self.frames.last().expect("frame").slot_base as usize + slot as usize]
    }

    fn declare<D: Domain<Val = V>>(
        &mut self,
        d: &mut D,
        slot: u16,
        size: u32,
    ) -> Result<u64, D::Err> {
        let addr = d.alloc(size as usize, false)?;
        let sb = self.frames.last().expect("frame").slot_base as usize;
        self.slots[sb + slot as usize] = addr;
        self.decls.push(slot);
        Ok(addr)
    }

    fn exit_scope<D: Domain<Val = V>>(&mut self, d: &mut D, slot_base: u32) {
        let sc = self.scopes.pop().expect("scope underflow");
        for &slot in &self.decls[sc.decl_mark as usize..] {
            d.free_local(self.slots[slot_base as usize + slot as usize]);
        }
        self.decls.truncate(sc.decl_mark as usize);
        d.release(sc.mark);
    }

    /// Leave the innermost frame: close its scopes and drop its slots.
    fn pop_frame<D: Domain<Val = V>>(&mut self, d: &mut D) -> Option<Frame> {
        let f = self.frames.pop()?;
        while self.scopes.len() > f.scope_mark as usize {
            self.exit_scope(d, f.slot_base);
        }
        self.slots.truncate(f.slot_base as usize);
        Some(f)
    }

    /// After an error: pop every live frame, letting the domain see each
    /// dying stack object and restore its marks — the same cleanup the
    /// interpreter performs as an error propagates out of its nested
    /// `call_func`/`exec_block` calls.
    fn unwind<D: Domain<Val = V>>(&mut self, d: &mut D) {
        while self.pop_frame(d).is_some() {}
        self.stack.clear();
        self.decls.clear();
    }

    /// Replace the top of stack `v` with `v op k`.
    fn bin_const<D: Domain<Val = V>>(&mut self, d: &mut D, op: BinOp, k: i64) {
        let v = self.pop();
        let k = d.int(k);
        self.stack.push(d.bin(op, v, k).expect("only division can fail"));
    }

    fn cond<D: Domain<Val = V>>(&mut self, d: &mut D, pc: u32, t: u32, on: bool) -> Flow<V> {
        let c = self.pop();
        match d.truth(c) {
            Some(b) if b == on => {
                d.jumped(pc, t);
                Flow::Next(t)
            }
            Some(_) => Flow::Next(pc + 1),
            None => Flow::Fork { fall: pc + 1, taken: t },
        }
    }

    /// Execute the op at `pc`.
    #[inline(always)]
    pub fn step<D: Domain<Val = V>>(
        &mut self,
        d: &mut D,
        module: &Module,
        pc: u32,
    ) -> Result<Flow<V>, D::Err> {
        let mut next = pc + 1;
        match module.code[pc as usize] {
            Op::Step(n) => d.charge(&mut self.steps, n)?,
            Op::PushInt(v) => self.stack.push(d.int(v)),
            Op::PushLocalAddr(slot) => self.stack.push(d.addr(self.local(slot))),
            Op::PushGlobalAddr(g) => self.stack.push(d.addr(self.globals[g as usize])),
            Op::LoadLocal { slot, site, access, checked } => {
                let addr = d.addr(self.local(slot));
                self.stack.push(d.load(addr, access, site, checked)?);
            }
            Op::LoadGlobal { gidx, site, access, checked } => {
                let addr = d.addr(self.globals[gidx as usize]);
                self.stack.push(d.load(addr, access, site, checked)?);
            }
            Op::LoadInd { site, access, checked } => {
                let addr = self.pop();
                self.stack.push(d.load(addr, access, site, checked)?);
            }
            Op::StoreInd { site, access, checked } => {
                let addr = self.pop();
                d.store(addr, access, self.top(), site, checked)?;
            }
            Op::StoreLocalKeep { slot, site, access, checked } => {
                let addr = d.addr(self.local(slot));
                d.store(addr, access, self.top(), site, checked)?;
            }
            Op::StoreGlobalKeep { gidx, site, access, checked } => {
                let addr = d.addr(self.globals[gidx as usize]);
                d.store(addr, access, self.top(), site, checked)?;
            }
            Op::StoreLocalPop { slot, site, access, checked } => {
                let addr = d.addr(self.local(slot));
                let v = self.pop();
                d.store(addr, access, v, site, checked)?;
            }
            Op::StoreGlobalPop { gidx, site, access, checked } => {
                let addr = d.addr(self.globals[gidx as usize]);
                let v = self.pop();
                d.store(addr, access, v, site, checked)?;
            }
            Op::StrLit { id, sidx } => {
                self.stack.push(d.str_lit(id, &module.strings[sidx as usize])?);
            }
            Op::IndexAddr { site, elem_size, checked } => {
                let i = self.pop();
                let base = self.pop();
                self.stack.push(d.offset(base, i, elem_size, false, site, checked)?);
            }
            Op::PtrArith { site, scale, sub, checked } => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(d.offset(l, r, scale, sub, site, checked)?);
            }
            Op::PtrArithRev { site, scale, checked } => {
                // `int + ptr`: the pointer is the right operand.
                let r = self.pop();
                let l = self.pop();
                self.stack.push(d.offset(r, l, scale, false, site, checked)?);
            }
            Op::PtrDiff { scale } => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(d.ptr_diff(l, r, scale));
            }
            Op::Bin { op, loc } => {
                let r = self.pop();
                let l = self.pop();
                self.stack.push(d.bin(op, l, r).ok_or(InterpError::DivByZero(loc))?);
            }
            // `-v`, `!v` and the 0/1 normalisation are `v * -1`, `v == 0`
            // and `v != 0`.
            Op::Neg => self.bin_const(d, BinOp::Mul, -1),
            Op::NotOp => self.bin_const(d, BinOp::Eq, 0),
            Op::NormBool => self.bin_const(d, BinOp::Ne, 0),
            Op::Jump(t) => {
                d.jumped(pc, t);
                next = t;
            }
            Op::JumpIfZero(t) => return Ok(self.cond(d, pc, t, false)),
            Op::JumpIfNonZero(t) => return Ok(self.cond(d, pc, t, true)),
            Op::Pop => {
                self.pop();
            }
            Op::EnterScope => {
                let mark = d.mark();
                self.scopes.push(Scope { mark, decl_mark: self.decls.len() as u32 });
            }
            Op::ExitScope => {
                let sb = self.frames.last().expect("frame").slot_base;
                self.exit_scope(d, sb);
            }
            Op::DeclLocal { slot, size } => {
                self.declare(d, slot, size)?;
            }
            Op::Param { slot, size, access } => {
                let f = self.frames.last_mut().expect("frame");
                let v = self.stack[f.base as usize + f.arg_cursor as usize];
                f.arg_cursor += 1;
                let addr = self.declare(d, slot, size)?;
                let addr = d.addr(addr);
                // Parameter spill is a trusted store (site u32::MAX),
                // same as the interpreter's prologue.
                d.store(addr, access, v, u32::MAX, true)?;
            }
            Op::Malloc => {
                let size = self.pop();
                self.stack.push(d.malloc(size)?);
            }
            Op::Free { site, checked } => {
                let addr = self.pop();
                d.free(addr, site, checked)?;
                self.stack.push(d.int(0));
            }
            Op::PrintInt => {
                let v = self.pop();
                d.print(v);
                self.stack.push(d.int(0));
            }
            Op::CallFn { fidx, argc } => {
                if self.frames.len() >= MAX_CALL_DEPTH {
                    return Err(InterpError::Oom("call stack").into());
                }
                let f = &module.funcs[fidx as usize];
                if f.n_params != argc {
                    return Err(arity_error(f, argc as usize).into());
                }
                let base = (self.stack.len() - argc as usize) as u32;
                self.push_frame(d.mark(), next, base, f.n_slots);
                next = f.entry;
            }
            Op::CallHost { name, argc } => {
                let at = self.stack.len() - argc as usize;
                let ret = d.host(name, &self.stack[at..])?;
                self.stack.truncate(at);
                self.stack.push(ret);
            }
            Op::Ret => {
                let val = self.pop();
                let f = self.pop_frame(d).expect("frame");
                self.stack.truncate(f.base as usize);
                if f.ret_pc == u32::MAX {
                    return Ok(Flow::Return(val));
                }
                self.stack.push(val);
                next = f.ret_pc;
            }
            Op::AllocGlobal { gidx } => {
                self.globals[gidx as usize] = d.alloc(module.globals[gidx as usize].size, true)?;
            }
            Op::Trap(kind) => {
                return Err(match kind {
                    TrapKind::NoSuchFunction(n) => InterpError::NoSuchFunction(n.to_string()),
                    TrapKind::NotLvalue(loc) => {
                        InterpError::Misc(format!("not an lvalue at {loc}"))
                    }
                }
                .into())
            }
        }
        Ok(Flow::Next(next))
    }
}

fn arity_error(f: &FuncInfo, got: usize) -> InterpError {
    InterpError::BadCall(format!("{} expects {} args, got {}", f.name, f.n_params, got))
}

/// The heap buffers a [`Vm`] executes in. A caller that runs many short
/// programs keeps one set and passes it to [`Vm::with_buffers`]; only the
/// buffers' capacity carries over, never their contents, so a VM built on
/// reused buffers starts from exactly the state [`Vm::new`] builds.
#[derive(Debug, Default)]
pub struct VmBuffers {
    core: Core<i64>,
    strings: HashMap<u32, u64>,
    heap_live: HashMap<u64, usize>,
}

/// The VM's side of the concrete domain: the simulated machine, the
/// arena, and what is attached.
struct Env<'a> {
    machine: &'a Machine,
    /// `None` until KGCC attaches one: an unhooked VM makes no hook calls.
    hook: Option<&'a dyn MemHook>,
    host: Option<&'a dyn SyscallHost>,
    ticker: Option<&'a TickFn<'a>>,
    cfg: ExecConfig,
    arena: Arena,
    /// String literal id → its arena copy.
    strings: HashMap<u32, u64>,
}

/// A bytecode VM instance. Owns the same kind of caller-prepared arena as
/// the interpreter and is reusable across `run` calls (globals persist).
pub struct Vm<'a> {
    module: &'a Module,
    core: Core<i64>,
    env: Env<'a>,
    /// `print_int` output, for tests and demos.
    pub output: Vec<i64>,
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
        let bufs = &mut VmBuffers::default();
        Self::with_buffers(machine, module, cfg, arena_base, arena_len, bufs)
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
        let VmBuffers { core, mut strings, heap_live } = std::mem::take(bufs);
        strings.clear();
        let arena = Arena::new(arena_base, arena_len, heap_live);
        let env = Env { machine, hook: None, host: None, ticker: None, cfg, arena, strings };
        let mut vm = Vm { module, core, env, output: Vec::new() };
        if let Err(e) = vm.init() {
            *bufs = vm.into_buffers();
            return Err(e);
        }
        Ok(vm)
    }

    /// Hand the execution buffers back for the next [`Vm::with_buffers`].
    pub fn into_buffers(self) -> VmBuffers {
        let Env { strings, arena, .. } = self.env;
        VmBuffers { core: self.core, strings, heap_live: arena.heap_live }
    }

    /// Run the init chunk (global allocation + initialisers) under a
    /// sentinel frame with no slots.
    fn init(&mut self) -> Result<(), InterpError> {
        self.core.start(self.module, self.env.arena.stack_ptr);
        self.exec(self.module.init_entry)?;
        self.env.arena.start_heap();
        Ok(())
    }

    /// Attach an instrumentation hook (KGCC). Re-registers global and
    /// currently-live heap objects with the new hook.
    pub fn set_hook(&mut self, hook: &'a dyn MemHook) {
        self.env.hook = Some(hook);
        for (g, &addr) in self.module.globals.iter().zip(&self.core.globals) {
            hook.on_alloc(addr, g.size, false);
        }
        for (&base, &len) in &self.env.arena.heap_live {
            hook.on_alloc(base, len, true);
        }
    }

    /// Attach a syscall host.
    pub fn set_host(&mut self, host: &'a dyn SyscallHost) {
        self.env.host = Some(host);
    }

    /// Attach the periodic tick callback (Cosy watchdog hook-in).
    pub fn set_ticker(&mut self, t: &'a TickFn<'a>) {
        self.env.ticker = Some(t);
    }

    /// Steps executed so far (across runs).
    pub fn steps(&self) -> u64 {
        self.core.steps
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
        let start = self.core.steps;
        let module = self.module;
        let f = &module.funcs[fidx as usize];
        if f.n_params as usize != args.len() {
            return Err(arity_error(f, args.len()));
        }
        let base = self.core.stack.len() as u32;
        self.core.stack.extend_from_slice(args);
        self.core.push_frame(self.env.arena.stack_ptr, u32::MAX, base, f.n_slots);
        let ret = self.exec(f.entry)?;
        Ok(ExecOutcome { ret, steps: self.core.steps - start })
    }

    /// Step from `entry` until the entry frame returns. On an error every
    /// frame is unwound, so the VM is ready for the next run.
    fn exec(&mut self, entry: u32) -> Result<i64, InterpError> {
        let module: &Module = self.module;
        let Vm { core, env, output, .. } = self;
        let d = &mut Concrete { env, output };
        let mut pc = entry;
        loop {
            match core.step(d, module, pc) {
                Ok(Flow::Next(next)) => pc = next,
                Ok(Flow::Return(v)) => return Ok(v),
                Ok(Flow::Fork { .. }) => unreachable!("a concrete condition is always known"),
                Err(e) => {
                    core.unwind(d);
                    return Err(e);
                }
            }
        }
    }
}

/// The concrete domain: `i64` values in the simulated machine's memory,
/// with KGCC's hook calls, the arena, fuel and the watchdog tick.
struct Concrete<'r, 'a> {
    env: &'r mut Env<'a>,
    output: &'r mut Vec<i64>,
}

impl Env<'_> {
    fn mem(&self) -> MemCtx<'_> {
        MemCtx::new(self.machine, self.cfg.asid, self.cfg.seg)
    }

    fn on_alloc(&self, base: u64, len: usize, is_heap: bool) {
        if let Some(hook) = self.hook {
            hook.on_alloc(base, len, is_heap);
        }
    }

    fn on_access(
        &self,
        checked: bool,
        site: u32,
        addr: u64,
        len: u8,
        write: bool,
    ) -> Result<(), InterpError> {
        match self.hook {
            Some(hook) if checked => Ok(hook.on_access(site, addr, len as usize, write)?),
            _ => Ok(()),
        }
    }

    fn charge_cycles(&self, cycles: u64) {
        if self.cfg.charge_sys {
            self.machine.charge_sys(cycles);
        } else {
            self.machine.charge_user(cycles);
        }
    }
}

impl Domain for Concrete<'_, '_> {
    type Val = i64;
    type Err = InterpError;

    fn int(&mut self, v: i64) -> i64 {
        v
    }

    fn addr(&mut self, a: u64) -> i64 {
        a as i64
    }

    fn truth(&mut self, v: i64) -> Option<bool> {
        Some(v != 0)
    }

    fn bin(&mut self, op: BinOp, l: i64, r: i64) -> Option<i64> {
        op.eval(l, r)
    }

    fn offset(
        &mut self,
        ptr: i64,
        idx: i64,
        scale: u32,
        sub: bool,
        site: u32,
        checked: bool,
    ) -> Result<i64, InterpError> {
        let new = if sub { ptr - idx * scale as i64 } else { ptr + idx * scale as i64 };
        match self.env.hook {
            Some(hook) if checked => Ok(hook.on_ptr_arith(site, ptr as u64, new as u64)? as i64),
            _ => Ok(new),
        }
    }

    fn ptr_diff(&mut self, l: i64, r: i64, scale: u32) -> i64 {
        (l - r) / scale as i64
    }

    #[inline(always)]
    fn load(
        &mut self,
        addr: i64,
        access: Access,
        site: u32,
        checked: bool,
    ) -> Result<i64, InterpError> {
        let addr = addr as u64;
        self.env.on_access(checked, site, addr, access.len, false)?;
        let mut b = [0u8; 8];
        self.env.mem().read(addr, &mut b[..access.width()])?;
        Ok(i64::from_le_bytes(b))
    }

    #[inline(always)]
    fn store(
        &mut self,
        addr: i64,
        access: Access,
        v: i64,
        site: u32,
        checked: bool,
    ) -> Result<(), InterpError> {
        let addr = addr as u64;
        self.env.on_access(checked, site, addr, access.len, true)?;
        self.env.mem().write(addr, &v.to_le_bytes()[..access.width()])
    }

    fn str_lit(&mut self, id: u32, bytes: &[u8]) -> Result<i64, InterpError> {
        if let Some(&addr) = self.env.strings.get(&id) {
            return Ok(addr as i64);
        }
        let addr = self.env.arena.alloc_data(bytes.len() + 1)?;
        self.env.on_alloc(addr, bytes.len() + 1, false);
        let mem = self.env.mem();
        mem.write(addr, bytes)?;
        mem.write(addr + bytes.len() as u64, &[0])?;
        self.env.strings.insert(id, addr);
        Ok(addr as i64)
    }

    fn alloc(&mut self, size: usize, global: bool) -> Result<u64, InterpError> {
        let arena = &mut self.env.arena;
        let addr = if global { arena.alloc_data(size)? } else { arena.alloc_stack(size)? };
        self.env.on_alloc(addr, size, false);
        Ok(addr)
    }

    fn free_local(&mut self, addr: u64) {
        if let Some(hook) = self.env.hook {
            hook.on_dealloc(addr, false);
        }
    }

    fn mark(&mut self) -> u64 {
        self.env.arena.stack_ptr
    }

    fn release(&mut self, mark: u64) {
        self.env.arena.stack_ptr = mark;
    }

    /// The fast path batches the whole run when neither the fuel limit nor
    /// a tick boundary falls inside it; otherwise it replays the
    /// interpreter's per-step sequence exactly (charge, then timeout test,
    /// then tick).
    #[inline(always)]
    fn charge(&mut self, steps: &mut u64, n: u32) -> Result<(), InterpError> {
        let cfg = &self.env.cfg;
        let n = n as u64;
        let before = *steps;
        let after = before + n;
        let timeout_ok = cfg.max_steps.map(|m| after <= m).unwrap_or(true);
        let tick_ok = self.env.ticker.is_none() || before / TICK_EVERY == after / TICK_EVERY;
        if timeout_ok && tick_ok {
            *steps = after;
            self.env.charge_cycles(n * CYCLES_PER_STEP);
            return Ok(());
        }
        for _ in 0..n {
            *steps += 1;
            self.env.charge_cycles(CYCLES_PER_STEP);
            if let Some(max) = self.env.cfg.max_steps {
                if *steps > max {
                    return Err(InterpError::Timeout { steps: *steps });
                }
            }
            if steps.is_multiple_of(TICK_EVERY) {
                if let Some(t) = self.env.ticker {
                    t(*steps)?;
                }
            }
        }
        Ok(())
    }

    fn malloc(&mut self, size: i64) -> Result<i64, InterpError> {
        let size = size.max(0) as usize;
        let addr = self.env.arena.alloc_heap(size)?;
        self.env.on_alloc(addr, size, true);
        Ok(addr as i64)
    }

    fn free(&mut self, addr: i64, site: u32, checked: bool) -> Result<(), InterpError> {
        let addr = addr as u64;
        if let Some(hook) = self.env.hook {
            if checked {
                hook.on_free_check(site, addr)?;
            }
        }
        if self.env.arena.free(addr) {
            if let Some(hook) = self.env.hook {
                hook.on_dealloc(addr, true);
            }
        }
        Ok(())
    }

    fn print(&mut self, v: i64) {
        self.output.push(v);
    }

    fn host(&mut self, name: Sym, args: &[i64]) -> Result<i64, InterpError> {
        let host =
            self.env.host.ok_or_else(|| InterpError::BadCall(format!("no syscall host for {name}")))?;
        host.host_call(name.as_str(), args, &self.env.mem())
    }
}

impl std::fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("steps", &self.core.steps)
            .field("frames", &self.core.frames.len())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::exec::SegMode;
    use crate::interp::Interp;
    use crate::parser::parse_program;
    use crate::types::typecheck;
    use ksim::{MachineConfig, PteFlags, PAGE_SIZE};
    use std::cell::RefCell;

    pub(crate) const ARENA: u64 = 0x100_0000;
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

    // ---- differential parity with the tree-walker -------------------------

    /// What an engine case sets up beyond [`ExecConfig::flat`].
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Setup {
        Flat,
        /// Fuel limit of this many steps.
        Fuel(u64),
        /// A watchdog ticker that kills the run at this step.
        KillAt(u64),
        /// A ticker that only records the steps it is called at.
        Ticks,
        /// Data confined to a segment covering just the arena.
        Segment,
    }

    impl Setup {
        /// Map the arena on `m` and build the case's config.
        fn config(self, m: &Machine) -> ExecConfig {
            let asid = prep(m, ARENA_PAGES);
            let mut cfg = ExecConfig::flat(asid);
            match self {
                Setup::Fuel(max) => cfg.max_steps = Some(max),
                Setup::Segment => {
                    let limit = (ARENA_PAGES * PAGE_SIZE) as u64;
                    let kind = ksim::SegKind::Data;
                    let sel = m.segs.install(ksim::Segment { asid, base: ARENA, limit, kind });
                    cfg.seg = SegMode::Segmented(sel);
                }
                Setup::Flat | Setup::KillAt(_) | Setup::Ticks => {}
            }
            cfg
        }

        /// The case's ticker, if it has one: it logs each tick's step count.
        fn ticker(
            self,
            log: &RefCell<Vec<u64>>,
        ) -> Option<impl Fn(u64) -> Result<(), InterpError> + '_> {
            matches!(self, Setup::KillAt(_) | Setup::Ticks).then_some(move |steps| {
                log.borrow_mut().push(steps);
                match self {
                    Setup::KillAt(at) if steps >= at => Err(InterpError::Killed("watchdog".into())),
                    _ => Ok(()),
                }
            })
        }
    }

    /// One engine's run of a case on a fresh machine: its result,
    /// `print_int` output, total steps and the (user, sys) cycles charged.
    pub(crate) struct EngineRun {
        pub(crate) result: Result<ExecOutcome, InterpError>,
        pub(crate) output: Vec<i64>,
        steps: u64,
        pub(crate) cycles: (u64, u64),
        /// The step count at each tick the ticker saw.
        ticks: Vec<u64>,
    }

    /// One engine's run of a case on a fresh machine: `go` gets the
    /// machine, the case's config and ticker, and returns the result,
    /// `print_int` output and total steps.
    fn observe(
        setup: Setup,
        go: impl FnOnce(
            &Machine,
            ExecConfig,
            Option<&TickFn<'_>>,
        ) -> (Result<ExecOutcome, InterpError>, Vec<i64>, u64),
    ) -> EngineRun {
        let m = machine();
        let cfg = setup.config(&m);
        let (u0, s0) = (m.clock.user_cycles(), m.clock.sys_cycles());
        let log = RefCell::default();
        let ticker = setup.ticker(&log);
        let (result, output, steps) = go(&m, cfg, ticker.as_ref().map(|t| t as &TickFn<'_>));
        let cycles = (m.clock.user_cycles() - u0, m.clock.sys_cycles() - s0);
        EngineRun { result, output, steps, cycles, ticks: log.take() }
    }

    /// Run a case on the tree-walker.
    pub(crate) fn run_reference(src: &str, func: &str, args: &[i64], setup: Setup) -> EngineRun {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        observe(setup, |m, cfg, ticker| {
            let mut interp =
                Interp::new(m, &prog, &info, cfg, ARENA, ARENA_PAGES * PAGE_SIZE).unwrap();
            if let Some(t) = ticker {
                interp.set_ticker(t);
            }
            (interp.run(func, args), interp.output.clone(), interp.steps())
        })
    }

    /// Run a case on the VM.
    fn run_vm(src: &str, func: &str, args: &[i64], setup: Setup) -> EngineRun {
        let prog = parse_program(src).unwrap();
        let module = compile(&prog, &typecheck(&prog).unwrap()).unwrap();
        observe(setup, |m, cfg, ticker| {
            let mut vm = Vm::new(m, &module, cfg, ARENA, ARENA_PAGES * PAGE_SIZE).unwrap();
            if let Some(t) = ticker {
                vm.set_ticker(t);
            }
            (vm.run(func, args), vm.output.clone(), vm.steps())
        })
    }

    /// Run both engines on separate but identically-configured machines,
    /// demand identical results, errors, output, step counts and cycle
    /// charges, and return the VM's result and output.
    fn parity(
        src: &str,
        func: &str,
        args: &[i64],
        setup: Setup,
    ) -> (Result<i64, InterpError>, Vec<i64>) {
        let (ri, rv) = (run_reference(src, func, args, setup), run_vm(src, func, args, setup));
        match (&ri.result, &rv.result) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.ret, b.ret, "return value diverged for {src}");
                assert_eq!(a.steps, b.steps, "charged steps diverged for {src}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged for {src}"),
            other => panic!("one engine failed, the other did not: {other:?} for {src}"),
        }
        assert_eq!(ri.output, rv.output, "print_int output diverged");
        assert_eq!(ri.steps, rv.steps, "total steps diverged");
        assert_eq!(ri.ticks, rv.ticks, "tick boundaries diverged");
        assert_eq!(ri.cycles.0, rv.cycles.0, "user cycles diverged for {src}");
        assert_eq!(ri.cycles.1, rv.cycles.1, "sys cycles diverged for {src}");
        (rv.result.map(|o| o.ret), rv.output)
    }

    pub(super) fn assert_parity(src: &str, func: &str, args: &[i64]) {
        let _ = parity(src, func, args, Setup::Flat);
    }

    /// One test per case: each runs on both engines under `parity`, and
    /// the VM's (result, `print_int` output) must match the case's pattern.
    macro_rules! parity_cases {
        ($($name:ident: $setup:ident$(($n:expr))?, $src:expr, $func:literal, $args:expr
            => $want:pat $(if $guard:expr)?,)*) => {$(
            #[test]
            fn $name() {
                let (got, out) = parity($src, $func, $args, Setup::$setup$(($n))?);
                assert!(matches!((&got, out.as_slice()), $want $(if $guard)?), "{got:?} {out:?}");
            }
        )*};
    }

    /// The engines' unit cases, written once. `engine_cases!(m)` hands
    /// every row to the case macro `m`: `parity_cases` here, and the
    /// tree-walker-only `reference_cases` in `interp::tests`. A row is
    /// `name: setup, source, function, args => pattern`, the pattern
    /// matching (result, `print_int` output).
    macro_rules! engine_cases {
        ($cases:ident) => {
            const COLLATZ: &str = r#"
                int collatz_len(int n) {
                    int len = 0;
                    while (n != 1) {
                        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                        len = len + 1;
                    }
                    return len;
                }
            "#;
            const SPIN: &str = "int f() { while (1) { } return 0; }";
            const PEEK: &str = "int f(int addr) { int *p = addr; return *p; }";

            $cases! {
                arithmetic_and_control_flow: Flat, COLLATZ, "collatz_len", &[27] => (Ok(111), []),
                // The loop body never runs.
                collatz_of_one_is_zero: Flat, COLLATZ, "collatz_len", &[1] => (Ok(0), []),
                recursion_works: Flat,
                    "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }", "fib", &[15]
                    => (Ok(610), []),
                arrays_pointers_and_address_of: Flat, r#"
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
                "#, "main", &[] => (Ok(231), []), // 0+1+4+100+16+25+36+49
                char_buffers_and_string_literals: Flat, r#"
                    int strlen_(char *s) {
                        int n = 0;
                        while (s[n] != '\0') { n = n + 1; }
                        return n;
                    }
                    int main() { return strlen_("hello kc"); }
                "#, "main", &[] => (Ok(8), []),
                globals_persist_and_initialise: Flat, r#"
                    int counter = 10;
                    int bump() { counter = counter + 1; return counter; }
                    int main() { bump(); bump(); return bump(); }
                "#, "main", &[] => (Ok(13), []),
                malloc_free_roundtrip: Flat, r#"
                    int main() {
                        int *p = malloc(80);
                        int i;
                        for (i = 0; i < 10; i = i + 1) { p[i] = i; }
                        int total = 0;
                        for (i = 0; i < 10; i = i + 1) { total = total + p[i]; }
                        free(p);
                        print_int(total);
                        return total;
                    }
                "#, "main", &[] => (Ok(45), [45]),
                print_int_collects_output: Flat, r#"
                    void main() {
                        int i;
                        for (i = 0; i < 3; i = i + 1) { print_int(i * 7); }
                    }
                "#, "main", &[] => (Ok(0), [0, 7, 14]),
                division_by_zero_is_caught: Flat, "int f(int x) { return 10 / x; }", "f", &[0]
                    => (Err(InterpError::DivByZero(_)), []),
                remainder_by_zero_is_caught: Flat, "int f(int x) { return 10 % x; }", "f", &[0]
                    => (Err(InterpError::DivByZero(_)), []),
                break_and_continue: Flat, r#"
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
                "#, "f", &[] => (Ok(9), []), // 1 + 3 + 5
                fuel_limit_stops_infinite_loops: Fuel(10_000), SPIN, "f", &[]
                    => (Err(InterpError::Timeout { steps: 10_001 }), []),
                ticker_can_kill_execution: KillAt(1_000), SPIN, "f", &[]
                    => (Err(InterpError::Killed(_)), []),
                in_segment_access_is_allowed: Segment, PEEK, "f", &[ARENA as i64] => (Ok(_), []),
                segmented_mode_blocks_out_of_segment_access: Segment, PEEK, "f", &[0x7000_0000]
                    => (Err(InterpError::Segment { .. }), []),
                unmapped_memory_faults_through_the_mmu: Flat, PEEK, "f", &[0xdead_0000]
                    => (Err(InterpError::Mem(_)), []),
                stack_depth_is_bounded_by_arena: Flat,
                    "int f(int n) { int pad[64]; pad[0] = n; return f(n + pad[0]); }", "f", &[1]
                    => (Err(InterpError::Oom(_)), []),
                unknown_function_is_reported: Flat, "int f() { return 1; }", "missing", &[]
                    => (Err(InterpError::NoSuchFunction(_)), []),
                arity_mismatch_is_a_bad_call: Flat, "int f(int a) { return a; }", "f", &[1, 2]
                    => (Err(InterpError::BadCall(msg)), []) if msg == "f expects 1 args, got 2",
                // A literal first used after init must not share memory with the
                // heap: writing a fresh malloc'd object leaves the string intact.
                late_string_literal_survives_a_heap_write: Flat, r#"
                    int f() {
                        char *s = "ab";
                        int *p = malloc(16);
                        p[0] = 0;
                        p[1] = 0;
                        return s[0] + s[1];
                    }
                "#, "f", &[] => (Ok(195), []), // 'a' + 'b'
            }
        };
    }
    pub(crate) use engine_cases;

    engine_cases!(parity_cases);

    #[test]
    fn parity_on_representative_corpus() {
        let corpus: &[(&str, &str, &[i64])] = &[
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
        for max in [1u64, 7, 64, 65, 1000, 4096] {
            let ri = run_reference(src, "f", &[], Setup::Fuel(max));
            let rv = run_vm(src, "f", &[], Setup::Fuel(max));
            assert_eq!(ri.result, rv.result, "fuel={max}");
            assert_eq!(ri.steps, rv.steps, "fuel={max}");
        }
    }

    #[test]
    fn parity_of_tick_boundaries() {
        // Record each tick's step counter in both engines; sequences must
        // match exactly (the watchdog sees the same preemption points).
        let src =
            "int f(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) { s = s + i * i; } return s; }";
        let ri = run_reference(src, "f", &[500], Setup::Ticks);
        let rv = run_vm(src, "f", &[500], Setup::Ticks);
        assert!(rv.result.is_ok() && !ri.ticks.is_empty());
        assert_eq!(ri.ticks, rv.ticks);
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
        assert!(bufs.core.stack.capacity() > 0, "the buffers kept their capacity");
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
