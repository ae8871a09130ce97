//! Bytecode compilation of KC programs.
//!
//! The tree-walking [`crate::Interp`] is the semantic reference: simple,
//! auditable, and hook-complete. This module compiles a typechecked
//! [`Program`] into a flat instruction stream executed by [`crate::Vm`],
//! with **bit-exact observable behaviour**: the same results, the same
//! step/cycle charges, the same [`MemHook`](crate::MemHook) callbacks in
//! the same order, the same errors. Variable lookups, type dispatch, and
//! step accounting are resolved at compile time instead of per node, which
//! is where the speedup comes from.
//!
//! Two compile modes:
//!
//! * [`compile`] — full-hook mode: every load, store, indexing and pointer
//!   arithmetic op carries its check-site id and calls the hook, exactly
//!   like the interpreter. Use this for arbitrary hooks and differential
//!   testing.
//! * [`compile_with_filter`] — check specialisation: only sites the filter
//!   enables call the hook (KGCC compiles with its
//!   `CheckPlan::is_enabled`). Sites the plan disables are free — the
//!   paper's static check elimination becomes *not emitting* the check.
//!
//! [`Module::patch_sites`] supports §3.5 dynamic deinstrumentation as the
//! paper planned it for compiled code: check ops whose site has proven
//! itself clean are patched to unchecked form **in place**, so subsequent
//! executions of cached bytecode skip them entirely.

use std::collections::HashMap;

use crate::ast::*;
use crate::types::TypeInfo;

/// Width/kind of a scalar memory access, resolved at compile time.
/// `len` is the hook-visible length (`ty.size().clamp(1, 8)`), `byte`
/// selects the 1-byte (`char`) vs 8-byte little-endian access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub byte: bool,
    pub len: u8,
}

impl Access {
    pub fn of(ty: &Type) -> Access {
        Access { byte: matches!(ty, Type::Char), len: ty.size().clamp(1, 8) as u8 }
    }

    /// Bytes the access moves: 1 for a `char`, else a whole word.
    pub fn width(self) -> usize {
        if self.byte {
            1
        } else {
            8
        }
    }
}

/// A runtime error baked into the instruction stream: the interpreter only
/// raises these when the offending node is actually executed, so the
/// compiler defers them the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    NoSuchFunction(Sym),
    NotLvalue(SourceLoc),
}

/// One VM instruction. `site` fields are AST expression ids — the KGCC
/// check-site keys. Ops with a `checked` flag call the memory hook only
/// when it is set; [`Module::patch_sites`] clears it in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Charge `n` evaluation steps (budget + watchdog tick).
    Step(u32),
    PushInt(i64),
    PushLocalAddr(u16),
    PushGlobalAddr(u16),
    LoadLocal { slot: u16, site: u32, access: Access, checked: bool },
    LoadGlobal { gidx: u16, site: u32, access: Access, checked: bool },
    /// Pop an address, push the loaded value.
    LoadInd { site: u32, access: Access, checked: bool },
    /// Pop an address, store the value below it, keep the value (assignment
    /// expressions evaluate to the stored value).
    StoreInd { site: u32, access: Access, checked: bool },
    StoreLocalKeep { slot: u16, site: u32, access: Access, checked: bool },
    StoreGlobalKeep { gidx: u16, site: u32, access: Access, checked: bool },
    StoreLocalPop { slot: u16, site: u32, access: Access, checked: bool },
    StoreGlobalPop { gidx: u16, site: u32, access: Access, checked: bool },
    /// Push the (lazily materialised, per-node cached) address of a string
    /// literal.
    StrLit { id: u32, sidx: u16 },
    /// Pop index and base address, push `base + i * elem_size` through the
    /// pointer-arithmetic hook.
    IndexAddr { site: u32, elem_size: u32, checked: bool },
    /// Pointer ± integer (`ptr op int`): pop int, pop pointer.
    PtrArith { site: u32, scale: u32, sub: bool, checked: bool },
    /// Integer + pointer (`int + ptr`): pop pointer, pop int.
    PtrArithRev { site: u32, scale: u32, checked: bool },
    /// Pointer difference: pop rhs, pop lhs, push `(l - r) / scale`.
    PtrDiff { scale: u32 },
    Bin { op: BinOp, loc: SourceLoc },
    Neg,
    NotOp,
    /// Normalise the top of stack to 0/1 (`&&`/`||` operands).
    NormBool,
    Jump(u32),
    JumpIfZero(u32),
    JumpIfNonZero(u32),
    Pop,
    EnterScope,
    ExitScope,
    /// Allocate a local on the simulated stack and bind its slot.
    DeclLocal { slot: u16, size: u32 },
    /// Function prologue: bind the next argument to a parameter slot.
    Param { slot: u16, size: u32, access: Access },
    Malloc,
    Free { site: u32, checked: bool },
    PrintInt,
    CallFn { fidx: u16, argc: u16 },
    CallHost { name: Sym, argc: u16 },
    Ret,
    /// Allocate a global in the data segment (init chunk only).
    AllocGlobal { gidx: u16 },
    Trap(TrapKind),
}

impl Op {
    /// Stable opcode name, for verifier verdicts and disassembly.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Step(_) => "step",
            Op::PushInt(_) => "push_int",
            Op::PushLocalAddr(_) => "push_local_addr",
            Op::PushGlobalAddr(_) => "push_global_addr",
            Op::LoadLocal { .. } => "load_local",
            Op::LoadGlobal { .. } => "load_global",
            Op::LoadInd { .. } => "load_ind",
            Op::StoreInd { .. } => "store_ind",
            Op::StoreLocalKeep { .. } => "store_local_keep",
            Op::StoreGlobalKeep { .. } => "store_global_keep",
            Op::StoreLocalPop { .. } => "store_local_pop",
            Op::StoreGlobalPop { .. } => "store_global_pop",
            Op::StrLit { .. } => "str_lit",
            Op::IndexAddr { .. } => "index_addr",
            Op::PtrArith { .. } => "ptr_arith",
            Op::PtrArithRev { .. } => "ptr_arith_rev",
            Op::PtrDiff { .. } => "ptr_diff",
            Op::Bin { .. } => "bin",
            Op::Neg => "neg",
            Op::NotOp => "not",
            Op::NormBool => "norm_bool",
            Op::Jump(_) => "jump",
            Op::JumpIfZero(_) => "jump_if_zero",
            Op::JumpIfNonZero(_) => "jump_if_nonzero",
            Op::Pop => "pop",
            Op::EnterScope => "enter_scope",
            Op::ExitScope => "exit_scope",
            Op::DeclLocal { .. } => "decl_local",
            Op::Param { .. } => "param",
            Op::Malloc => "malloc",
            Op::Free { .. } => "free",
            Op::PrintInt => "print_int",
            Op::CallFn { .. } => "call_fn",
            Op::CallHost { .. } => "call_host",
            Op::Ret => "ret",
            Op::AllocGlobal { .. } => "alloc_global",
            Op::Trap(_) => "trap",
        }
    }
}

/// Per-function metadata.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    pub name: Sym,
    pub entry: u32,
    pub n_params: u16,
    pub n_slots: u16,
}

/// A global's slot metadata (`size` is the unpadded `ty.size()`).
#[derive(Debug, Clone)]
pub struct GlobalSlot {
    pub name: Sym,
    pub size: usize,
}

/// A compiled program: one flat code vector, function entry points, global
/// metadata, string-literal bytes. Sharable across executions — each
/// [`crate::Vm`] instance owns its arena/globals state, not the module.
#[derive(Debug, Clone)]
pub struct Module {
    pub(crate) code: Vec<Op>,
    pub(crate) funcs: Vec<FuncInfo>,
    pub(crate) func_index: HashMap<Sym, u16>,
    pub(crate) globals: Vec<GlobalSlot>,
    pub(crate) strings: Vec<Vec<u8>>,
    pub(crate) init_entry: u32,
}

impl Module {
    pub fn funcs(&self) -> &[FuncInfo] {
        &self.funcs
    }

    /// The flat code vector — read-only access for static analysers (the
    /// kprog load-time verifier walks this).
    pub fn ops(&self) -> &[Op] {
        &self.code
    }

    /// String-literal bytes, indexed by `sidx`.
    pub fn strings(&self) -> &[Vec<u8>] {
        &self.strings
    }

    /// Look up a function's index by name.
    pub fn func_by_name(&self, name: &str) -> Option<u16> {
        self.func_index.get(&Sym::intern(name)).copied()
    }

    /// Number of ops currently carrying an armed check.
    pub fn checked_ops(&self) -> usize {
        self.code.iter().filter(|op| op_check(op).map(|(_, c)| c).unwrap_or(false)).count()
    }

    /// §3.5 dynamic deinstrumentation for compiled code: clear the check
    /// flag, **in place**, on every op whose site `disable` selects.
    /// Returns the number of ops patched. Monotonic — checks are never
    /// re-armed (recompile to re-arm).
    pub fn patch_sites(&mut self, disable: &dyn Fn(u32) -> bool) -> usize {
        let mut patched = 0;
        for op in &mut self.code {
            if let Some((site, checked)) = op_check(op) {
                if checked && disable(site) {
                    set_unchecked(op);
                    patched += 1;
                }
            }
        }
        patched
    }
}

fn op_check(op: &Op) -> Option<(u32, bool)> {
    match *op {
        Op::LoadLocal { site, checked, .. }
        | Op::LoadGlobal { site, checked, .. }
        | Op::LoadInd { site, checked, .. }
        | Op::StoreInd { site, checked, .. }
        | Op::StoreLocalKeep { site, checked, .. }
        | Op::StoreGlobalKeep { site, checked, .. }
        | Op::StoreLocalPop { site, checked, .. }
        | Op::StoreGlobalPop { site, checked, .. }
        | Op::IndexAddr { site, checked, .. }
        | Op::PtrArith { site, checked, .. }
        | Op::PtrArithRev { site, checked, .. }
        | Op::Free { site, checked } => Some((site, checked)),
        _ => None,
    }
}

fn set_unchecked(op: &mut Op) {
    match op {
        Op::LoadLocal { checked, .. }
        | Op::LoadGlobal { checked, .. }
        | Op::LoadInd { checked, .. }
        | Op::StoreInd { checked, .. }
        | Op::StoreLocalKeep { checked, .. }
        | Op::StoreGlobalKeep { checked, .. }
        | Op::StoreLocalPop { checked, .. }
        | Op::StoreGlobalPop { checked, .. }
        | Op::IndexAddr { checked, .. }
        | Op::PtrArith { checked, .. }
        | Op::PtrArithRev { checked, .. }
        | Op::Free { checked, .. } => *checked = false,
        _ => {}
    }
}

/// Compile-time failures. A program that passed [`crate::typecheck`] never
/// produces these; raw ASTs might.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    UndefinedVar(String),
    BreakOutsideLoop(SourceLoc),
    TooManyLocals,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UndefinedVar(n) => write!(f, "undefined variable '{n}'"),
            CompileError::BreakOutsideLoop(l) => {
                write!(f, "break/continue outside a loop at {l}")
            }
            CompileError::TooManyLocals => write!(f, "function exceeds 65535 locals"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile with every check site armed: full interpreter-equivalent hook
/// coverage.
pub fn compile(prog: &Program, info: &TypeInfo) -> Result<Module, CompileError> {
    compile_with_filter(prog, info, &|_| true)
}

/// Compile with hook calls emitted only at sites `enabled` selects (KGCC
/// passes its check plan). Disabled sites execute with zero check cost.
pub fn compile_with_filter(
    prog: &Program,
    info: &TypeInfo,
    enabled: &dyn Fn(u32) -> bool,
) -> Result<Module, CompileError> {
    let mut c = Compiler {
        info,
        enabled,
        code: Vec::new(),
        labels: Vec::new(),
        patches: Vec::new(),
        mergeable: false,
        strings: Vec::new(),
        funcs: Vec::new(),
        func_index: HashMap::new(),
        globals: Vec::new(),
        global_index: HashMap::new(),
        global_types: Vec::new(),
        scopes: vec![Vec::new()],
        slot_types: Vec::new(),
        loops: Vec::new(),
        scope_depth: 0,
        user_funcs: prog,
    };
    // First-match wins, like `Program::func`.
    for (i, f) in prog.funcs.iter().enumerate() {
        c.func_index.entry(f.name).or_insert(i as u16);
    }
    c.compile_init(prog)?;
    for f in &prog.funcs {
        c.compile_func(f)?;
    }
    c.finish()
}

struct LoopCtx {
    cont: u32,
    brk: u32,
    depth: u32,
}

struct Compiler<'a> {
    info: &'a TypeInfo,
    enabled: &'a dyn Fn(u32) -> bool,
    code: Vec<Op>,
    labels: Vec<u32>,
    patches: Vec<usize>,
    mergeable: bool,
    strings: Vec<Vec<u8>>,
    funcs: Vec<FuncInfo>,
    func_index: HashMap<Sym, u16>,
    globals: Vec<GlobalSlot>,
    global_index: HashMap<Sym, u16>,
    global_types: Vec<Type>,
    scopes: Vec<Vec<(Sym, u16)>>,
    slot_types: Vec<Type>,
    loops: Vec<LoopCtx>,
    scope_depth: u32,
    user_funcs: &'a Program,
}

enum Place {
    Local(u16, Type),
    Global(u16, Type),
}

impl<'a> Compiler<'a> {
    fn emit(&mut self, op: Op) {
        self.mergeable = false;
        self.code.push(op);
    }

    /// Charge one evaluation step, merging into the preceding `Step` when
    /// no label (jump target) was bound in between — preserving exact step
    /// totals and tick boundaries while batching the bookkeeping.
    fn step(&mut self) {
        if self.mergeable {
            if let Some(Op::Step(n)) = self.code.last_mut() {
                *n += 1;
                return;
            }
        }
        self.code.push(Op::Step(1));
        self.mergeable = true;
    }

    fn label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    fn bind(&mut self, l: u32) {
        self.labels[l as usize] = self.code.len() as u32;
        self.mergeable = false;
    }

    fn jump(&mut self, op: Op) {
        self.patches.push(self.code.len());
        self.emit(op);
    }

    fn checked(&self, site: u32) -> bool {
        (self.enabled)(site)
    }

    fn declare(&mut self, name: Sym, ty: Type) -> Result<u16, CompileError> {
        let slot =
            u16::try_from(self.slot_types.len()).map_err(|_| CompileError::TooManyLocals)?;
        self.slot_types.push(ty);
        self.scopes.last_mut().expect("scope").push((name, slot));
        Ok(slot)
    }

    fn resolve(&self, name: Sym) -> Result<Place, CompileError> {
        for sc in self.scopes.iter().rev() {
            for &(n, slot) in sc.iter().rev() {
                if n == name {
                    return Ok(Place::Local(slot, self.slot_types[slot as usize].clone()));
                }
            }
        }
        if let Some(&g) = self.global_index.get(&name) {
            return Ok(Place::Global(g, self.global_types[g as usize].clone()));
        }
        Err(CompileError::UndefinedVar(name.to_string()))
    }

    fn type_of(&self, id: u32) -> Type {
        self.info.type_of(id).cloned().unwrap_or(Type::Int)
    }

    fn compile_init(&mut self, prog: &Program) -> Result<(), CompileError> {
        for (gi, g) in prog.globals.iter().enumerate() {
            let gidx = gi as u16;
            self.global_index.insert(g.name, gidx);
            self.global_types.push(g.ty.clone());
            self.globals.push(GlobalSlot { name: g.name, size: g.ty.size() });
            self.emit(Op::AllocGlobal { gidx });
            if let Some(init) = &g.init {
                self.expr(init)?;
                self.emit(Op::StoreGlobalPop {
                    gidx,
                    site: init.id,
                    access: Access::of(&g.ty),
                    checked: self.checked(init.id),
                });
            }
        }
        self.emit(Op::PushInt(0));
        self.emit(Op::Ret);
        Ok(())
    }

    fn compile_func(&mut self, f: &Func) -> Result<(), CompileError> {
        let entry = self.code.len() as u32;
        self.scopes = vec![Vec::new()];
        self.slot_types.clear();
        self.loops.clear();
        self.scope_depth = 0;
        self.mergeable = false;
        for (name, ty) in &f.params {
            let slot = self.declare(*name, ty.clone())?;
            self.emit(Op::Param { slot, size: ty.size() as u32, access: Access::of(ty) });
        }
        // Function bodies share the parameter scope (`exec_block_inner`).
        for s in &f.body.stmts {
            self.stmt(s)?;
        }
        // Falling off the end returns 0.
        self.emit(Op::PushInt(0));
        self.emit(Op::Ret);
        let n_slots =
            u16::try_from(self.slot_types.len()).map_err(|_| CompileError::TooManyLocals)?;
        self.funcs.push(FuncInfo {
            name: f.name,
            entry,
            n_params: f.params.len() as u16,
            n_slots,
        });
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<(), CompileError> {
        self.emit(Op::EnterScope);
        self.scopes.push(Vec::new());
        self.scope_depth += 1;
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scope_depth -= 1;
        self.scopes.pop();
        self.emit(Op::ExitScope);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        // Every statement charges one step at entry, like `exec_stmt`.
        self.step();
        match s {
            Stmt::Decl(d) => {
                let slot = self.declare(d.name, d.ty.clone())?;
                self.emit(Op::DeclLocal { slot, size: d.ty.size() as u32 });
                if let Some(init) = &d.init {
                    self.expr(init)?;
                    self.emit(Op::StoreLocalPop {
                        slot,
                        site: init.id,
                        access: Access::of(&d.ty),
                        checked: self.checked(init.id),
                    });
                }
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Op::Pop);
            }
            Stmt::If { cond, then, els, .. } => {
                self.expr(cond)?;
                let l_else = self.label();
                self.jump(Op::JumpIfZero(l_else));
                self.block(then)?;
                if let Some(b) = els {
                    let l_end = self.label();
                    self.jump(Op::Jump(l_end));
                    self.bind(l_else);
                    self.block(b)?;
                    self.bind(l_end);
                } else {
                    self.bind(l_else);
                }
            }
            Stmt::While { cond, body, .. } => {
                let l_cond = self.label();
                self.bind(l_cond);
                self.expr(cond)?;
                let l_end = self.label();
                let l_cont = self.label();
                self.jump(Op::JumpIfZero(l_end));
                self.loops.push(LoopCtx { cont: l_cont, brk: l_end, depth: self.scope_depth });
                self.block(body)?;
                self.loops.pop();
                self.bind(l_cont);
                // The interpreter charges one extra step per completed
                // iteration (skipped by break, reached by continue).
                self.step();
                self.jump(Op::Jump(l_cond));
                self.bind(l_end);
            }
            Stmt::For { init, cond, step, body, .. } => {
                if let Some(e) = init {
                    self.expr(e)?;
                    self.emit(Op::Pop);
                }
                let l_cond = self.label();
                self.bind(l_cond);
                let l_end = self.label();
                let l_cont = self.label();
                if let Some(c) = cond {
                    self.expr(c)?;
                    self.jump(Op::JumpIfZero(l_end));
                }
                self.loops.push(LoopCtx { cont: l_cont, brk: l_end, depth: self.scope_depth });
                self.block(body)?;
                self.loops.pop();
                self.bind(l_cont);
                if let Some(e) = step {
                    self.expr(e)?;
                    self.emit(Op::Pop);
                }
                self.step();
                self.jump(Op::Jump(l_cond));
                self.bind(l_end);
            }
            Stmt::Return(e, _) => {
                match e {
                    Some(e) => self.expr(e)?,
                    None => self.emit(Op::PushInt(0)),
                }
                self.emit(Op::Ret);
            }
            Stmt::Block(b) => self.block(b)?,
            Stmt::Break(loc) => {
                let (brk, depth) = match self.loops.last() {
                    Some(l) => (l.brk, l.depth),
                    None => return Err(CompileError::BreakOutsideLoop(*loc)),
                };
                for _ in depth..self.scope_depth {
                    self.emit(Op::ExitScope);
                }
                self.jump(Op::Jump(brk));
            }
            Stmt::Continue(loc) => {
                let (cont, depth) = match self.loops.last() {
                    Some(l) => (l.cont, l.depth),
                    None => return Err(CompileError::BreakOutsideLoop(*loc)),
                };
                for _ in depth..self.scope_depth {
                    self.emit(Op::ExitScope);
                }
                self.jump(Op::Jump(cont));
            }
            // Markers charge their step and do nothing else.
            Stmt::CosyStart(_) | Stmt::CosyEnd(_) => {}
        }
        Ok(())
    }

    /// Compile an lvalue to code pushing its address. Does NOT charge a
    /// step for the node itself (mirroring `eval_lvalue`); inner rvalue
    /// sub-expressions charge normally. Returns the value type.
    fn lvalue(&mut self, e: &Expr) -> Result<Type, CompileError> {
        match &e.kind {
            ExprKind::Var(name) => match self.resolve(*name)? {
                Place::Local(slot, ty) => {
                    self.emit(Op::PushLocalAddr(slot));
                    Ok(ty)
                }
                Place::Global(g, ty) => {
                    self.emit(Op::PushGlobalAddr(g));
                    Ok(ty)
                }
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.expr(inner)?;
                Ok(self.type_of(e.id))
            }
            ExprKind::Index(base, idx) => {
                let base_ty = self.type_of(base.id);
                if matches!(base_ty, Type::Array(_, _)) {
                    self.lvalue(base)?;
                } else {
                    self.expr(base)?;
                }
                self.expr(idx)?;
                let elem = self.type_of(e.id);
                self.emit(Op::IndexAddr {
                    site: e.id,
                    elem_size: elem.size() as u32,
                    checked: self.checked(e.id),
                });
                Ok(elem)
            }
            _ => {
                // The interpreter raises this only when executed.
                self.emit(Op::Trap(TrapKind::NotLvalue(e.loc)));
                Ok(Type::Int)
            }
        }
    }

    /// Compile an rvalue. Charges one step for the node (pre-order), like
    /// `eval`.
    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        self.step();
        match &e.kind {
            ExprKind::IntLit(v) => self.emit(Op::PushInt(*v)),
            ExprKind::CharLit(c) => self.emit(Op::PushInt(*c as i64)),
            ExprKind::StrLit(s) => {
                let sidx = self.strings.len() as u16;
                self.strings.push(s.as_bytes().to_vec());
                self.emit(Op::StrLit { id: e.id, sidx });
            }
            ExprKind::Var(name) => match self.resolve(*name)? {
                Place::Local(slot, ty) => {
                    if matches!(ty, Type::Array(_, _)) {
                        // Arrays decay to their address: no load, no check.
                        self.emit(Op::PushLocalAddr(slot));
                    } else {
                        self.emit(Op::LoadLocal {
                            slot,
                            site: e.id,
                            access: Access::of(&ty),
                            checked: self.checked(e.id),
                        });
                    }
                }
                Place::Global(g, ty) => {
                    if matches!(ty, Type::Array(_, _)) {
                        self.emit(Op::PushGlobalAddr(g));
                    } else {
                        self.emit(Op::LoadGlobal {
                            gidx: g,
                            site: e.id,
                            access: Access::of(&ty),
                            checked: self.checked(e.id),
                        });
                    }
                }
            },
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg => {
                    self.expr(inner)?;
                    self.emit(Op::Neg);
                }
                UnOp::Not => {
                    self.expr(inner)?;
                    self.emit(Op::NotOp);
                }
                UnOp::Deref => {
                    let ty = self.lvalue(e)?;
                    if !matches!(ty, Type::Array(_, _)) {
                        self.emit(Op::LoadInd {
                            site: e.id,
                            access: Access::of(&ty),
                            checked: self.checked(e.id),
                        });
                    }
                }
                UnOp::Addr => {
                    self.lvalue(inner)?;
                }
            },
            ExprKind::Binary(op, lhs, rhs) => self.binary(e, *op, lhs, rhs)?,
            ExprKind::Assign(target, value) => {
                // Value first, then the target address (interpreter order).
                self.expr(value)?;
                match &target.kind {
                    ExprKind::Var(name) => match self.resolve(*name)? {
                        Place::Local(slot, ty) => self.emit(Op::StoreLocalKeep {
                            slot,
                            site: target.id,
                            access: Access::of(&ty),
                            checked: self.checked(target.id),
                        }),
                        Place::Global(g, ty) => self.emit(Op::StoreGlobalKeep {
                            gidx: g,
                            site: target.id,
                            access: Access::of(&ty),
                            checked: self.checked(target.id),
                        }),
                    },
                    _ => {
                        let ty = self.lvalue(target)?;
                        self.emit(Op::StoreInd {
                            site: target.id,
                            access: Access::of(&ty),
                            checked: self.checked(target.id),
                        });
                    }
                }
            }
            ExprKind::Index(_, _) => {
                let ty = self.lvalue(e)?;
                if !matches!(ty, Type::Array(_, _)) {
                    self.emit(Op::LoadInd {
                        site: e.id,
                        access: Access::of(&ty),
                        checked: self.checked(e.id),
                    });
                }
            }
            ExprKind::Call(name, args) => {
                for a in args {
                    self.expr(a)?;
                }
                let argc = args.len() as u16;
                match name.as_str() {
                    "malloc" => self.emit(Op::Malloc),
                    "free" => self.emit(Op::Free { site: e.id, checked: self.checked(e.id) }),
                    "print_int" => self.emit(Op::PrintInt),
                    _ if self.user_funcs.func(name).is_some() => {
                        let fidx = self.func_index[name];
                        self.emit(Op::CallFn { fidx, argc });
                    }
                    n if n.starts_with("sys_") => {
                        self.emit(Op::CallHost { name: *name, argc });
                    }
                    _ => self.emit(Op::Trap(TrapKind::NoSuchFunction(*name))),
                }
            }
        }
        Ok(())
    }

    fn binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<(), CompileError> {
        match op {
            BinOp::And => {
                self.expr(lhs)?;
                let l_false = self.label();
                let l_end = self.label();
                self.jump(Op::JumpIfZero(l_false));
                self.expr(rhs)?;
                self.emit(Op::NormBool);
                self.jump(Op::Jump(l_end));
                self.bind(l_false);
                self.emit(Op::PushInt(0));
                self.bind(l_end);
                return Ok(());
            }
            BinOp::Or => {
                self.expr(lhs)?;
                let l_true = self.label();
                let l_end = self.label();
                self.jump(Op::JumpIfNonZero(l_true));
                self.expr(rhs)?;
                self.emit(Op::NormBool);
                self.jump(Op::Jump(l_end));
                self.bind(l_true);
                self.emit(Op::PushInt(1));
                self.bind(l_end);
                return Ok(());
            }
            _ => {}
        }
        self.expr(lhs)?;
        self.expr(rhs)?;
        let lt_ptr = self.info.type_of(lhs.id).map(Type::is_ptr_like).unwrap_or(false);
        let rt_ptr = self.info.type_of(rhs.id).map(Type::is_ptr_like).unwrap_or(false);
        match op {
            BinOp::Add | BinOp::Sub if lt_ptr && !rt_ptr => self.emit(Op::PtrArith {
                site: e.id,
                scale: self.info.elem_size(e.id) as u32,
                sub: op == BinOp::Sub,
                checked: self.checked(e.id),
            }),
            BinOp::Add if rt_ptr && !lt_ptr => self.emit(Op::PtrArithRev {
                site: e.id,
                scale: self.info.elem_size(e.id) as u32,
                checked: self.checked(e.id),
            }),
            BinOp::Sub if lt_ptr && rt_ptr => {
                let scale = self
                    .info
                    .type_of(lhs.id)
                    .and_then(Type::pointee)
                    .map(Type::size)
                    .unwrap_or(1) as u32;
                self.emit(Op::PtrDiff { scale });
            }
            _ => self.emit(Op::Bin { op, loc: e.loc }),
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Module, CompileError> {
        for p in self.patches {
            let target = |l: u32| self.labels[l as usize];
            match &mut self.code[p] {
                Op::Jump(l) | Op::JumpIfZero(l) | Op::JumpIfNonZero(l) => *l = target(*l),
                _ => unreachable!("patch points at a jump"),
            }
        }
        Ok(Module {
            code: self.code,
            funcs: self.funcs,
            func_index: self.func_index,
            globals: self.globals,
            strings: self.strings,
            init_entry: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::types::typecheck;

    fn module(src: &str) -> Module {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        compile(&prog, &info).unwrap()
    }

    #[test]
    fn compiles_and_indexes_functions() {
        let m = module("int add(int a, int b) { return a + b; } int one() { return 1; }");
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.funcs[0].n_params, 2);
        assert!(m.func_index.contains_key(&Sym::intern("add")));
        assert!(m.func_index.contains_key(&Sym::intern("one")));
        // Init chunk precedes function code.
        assert_eq!(m.init_entry, 0);
        assert!(m.funcs[0].entry >= 2, "init chunk occupies the head");
    }

    #[test]
    fn step_ops_are_merged_but_not_across_labels() {
        let m = module("int f(int n) { int x = n + 1; while (x) { x = x - 1; } return x; }");
        // Merged steps exist (e.g. stmt+expr adjacency)...
        assert!(
            m.code.iter().any(|op| matches!(op, Op::Step(n) if *n > 1)),
            "expected merged Step ops in {:?}",
            m.code
        );
        // ...and the loop head (a jump target) starts its own Step, so the
        // total per iteration is preserved.
        let n_steps: u32 = m
            .code
            .iter()
            .map(|op| if let Op::Step(n) = op { *n } else { 0 })
            .sum();
        assert!(n_steps > 5);
    }

    #[test]
    fn filter_controls_checked_flags() {
        let src = "int f(int *p) { return p[3]; }";
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let full = compile(&prog, &info).unwrap();
        let none = compile_with_filter(&prog, &info, &|_| false).unwrap();
        assert!(full.checked_ops() > 0);
        assert_eq!(none.checked_ops(), 0);
        assert_eq!(full.code.len(), none.code.len(), "same code shape either way");
    }

    #[test]
    fn patch_sites_disarms_in_place() {
        let src = "int f(int *p, int i) { return p[i] + p[i + 1]; }";
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let mut m = compile(&prog, &info).unwrap();
        let before = m.checked_ops();
        assert!(before > 0);
        let patched = m.patch_sites(&|_| true);
        assert_eq!(patched, before);
        assert_eq!(m.checked_ops(), 0);
        // Patching is idempotent.
        assert_eq!(m.patch_sites(&|_| true), 0);
    }

    #[test]
    fn breaks_compile_to_scope_exits() {
        let m = module(
            "int f() { int t = 0; while (1) { if (t > 3) { break; } t = t + 1; } return t; }",
        );
        let exits = m.code.iter().filter(|op| matches!(op, Op::ExitScope)).count();
        assert!(exits >= 3, "body scope + if scope + break unwinds: {:?}", m.code);
    }

    #[test]
    fn unknown_call_becomes_a_trap() {
        // `ghost` is not defined anywhere, but typecheck only validates
        // declared builtins/functions — mirror the interpreter's runtime
        // error by compiling it as a trap.
        let prog = parse_program("int f() { return 1; }").unwrap();
        let info = typecheck(&prog).unwrap();
        let m = compile(&prog, &info).unwrap();
        assert!(!m.code.iter().any(|op| matches!(op, Op::Trap(_))));
    }
}
