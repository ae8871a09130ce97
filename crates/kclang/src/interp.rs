//! The tree-walking KC interpreter: the semantic reference for the
//! bytecode [`Vm`](crate::Vm). It walks the typed AST directly — simple,
//! auditable and hook-complete — and runs under the same execution contract
//! ([`crate::exec`]): the parity tests hold the VM to its results, step
//! counts, cycle charges, hook calls and errors. Nothing outside those
//! tests, the A7 comparison and the micro benchmarks runs KC on it.
//!
//! Instrumentation ([`MemHook`]) fires on dereferences, indexing, and
//! pointer arithmetic — the KGCC check sites. Unlike the VM, which takes a
//! check plan when the module is compiled, the tree-walker calls the hook
//! at every site.

use std::collections::HashMap;
use std::fmt;

use ksim::Machine;

use crate::arena::Arena;
use crate::ast::*;
use crate::exec::{
    ExecConfig, ExecOutcome, InterpError, MemCtx, SyscallHost, TickFn, MAX_CALL_DEPTH,
};
use crate::hooks::{MemHook, NoopHook};
use crate::types::TypeInfo;

#[derive(Debug, Clone)]
struct Binding {
    addr: u64,
    ty: Type,
}

enum Flow {
    Normal,
    Return(i64),
    Break,
    Continue,
}

/// The interpreter instance. Owns an arena inside an address space;
/// reusable across multiple `run` calls (globals persist).
pub struct Interp<'a> {
    machine: &'a Machine,
    prog: &'a Program,
    info: &'a TypeInfo,
    hook: &'a dyn MemHook,
    host: Option<&'a dyn SyscallHost>,
    ticker: Option<&'a TickFn<'a>>,
    cfg: ExecConfig,
    arena: Arena,
    globals: HashMap<Sym, Binding>,
    scopes: Vec<HashMap<Sym, Binding>>,
    strings: HashMap<u32, u64>,
    depth: usize,
    steps: u64,
    /// `print_int` output, for tests and demos.
    pub output: Vec<i64>,
}

impl<'a> Interp<'a> {
    /// Create an interpreter over a caller-prepared arena: `[base, base+len)`
    /// must be mapped read-write in `cfg.asid`. Globals are allocated and
    /// initialised immediately.
    pub fn new(
        machine: &'a Machine,
        prog: &'a Program,
        info: &'a TypeInfo,
        cfg: ExecConfig,
        arena_base: u64,
        arena_len: usize,
    ) -> Result<Self, InterpError> {
        static NOOP: NoopHook = NoopHook;
        let mut interp = Interp {
            machine,
            prog,
            info,
            hook: &NOOP,
            host: None,
            ticker: None,
            cfg,
            arena: Arena::new(arena_base, arena_len, HashMap::new()),
            globals: HashMap::new(),
            scopes: Vec::new(),
            strings: HashMap::new(),
            depth: 0,
            steps: 0,
            output: Vec::new(),
        };
        interp.init_globals()?;
        interp.arena.start_heap();
        Ok(interp)
    }

    /// Attach an instrumentation hook (KGCC). Re-registers global and
    /// currently-live heap objects with the new hook.
    pub fn set_hook(&mut self, hook: &'a dyn MemHook) {
        self.hook = hook;
        for b in self.globals.values() {
            hook.on_alloc(b.addr, b.ty.size(), false);
        }
        for (&base, &len) in &self.arena.heap_live {
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

    fn mem(&self) -> MemCtx<'a> {
        MemCtx::new(self.machine, self.cfg.asid, self.cfg.seg)
    }

    fn init_globals(&mut self) -> Result<(), InterpError> {
        for g in &self.prog.globals {
            let addr = self.arena.alloc_data(g.ty.size())?;
            self.hook.on_alloc(addr, g.ty.size(), false);
            self.globals.insert(g.name, Binding { addr, ty: g.ty.clone() });
            if let Some(init) = &g.init {
                let v = self.eval(init)?;
                self.store_scalar(addr, &g.ty, v, init.id)?;
            }
        }
        Ok(())
    }

    fn step(&mut self, loc: SourceLoc) -> Result<(), InterpError> {
        let _ = loc;
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
        if self.steps.is_multiple_of(self.cfg.tick_every) {
            if let Some(t) = self.ticker {
                t(self.steps)?;
            }
        }
        Ok(())
    }

    // ---- typed loads/stores ------------------------------------------------

    fn load_scalar(&mut self, addr: u64, ty: &Type, site: u32) -> Result<i64, InterpError> {
        let len = ty.size().clamp(1, 8);
        self.hook.on_access(site, addr, len, false)?;
        let mem = self.mem();
        Ok(match ty {
            Type::Char => {
                let mut b = [0u8; 1];
                mem.read(addr, &mut b)?;
                b[0] as i64
            }
            _ => {
                let mut b = [0u8; 8];
                mem.read(addr, &mut b)?;
                i64::from_le_bytes(b)
            }
        })
    }

    fn store_scalar(&mut self, addr: u64, ty: &Type, v: i64, site: u32) -> Result<(), InterpError> {
        let len = ty.size().clamp(1, 8);
        self.hook.on_access(site, addr, len, true)?;
        let mem = self.mem();
        match ty {
            Type::Char => mem.write(addr, &[v as u8])?,
            _ => mem.write(addr, &v.to_le_bytes())?,
        }
        Ok(())
    }

    // ---- running -----------------------------------------------------------

    /// Run `func(args...)` to completion.
    pub fn run(&mut self, func: &str, args: &[i64]) -> Result<ExecOutcome, InterpError> {
        let start_steps = self.steps;
        let ret = self.call_func(func, args)?;
        Ok(ExecOutcome { ret, steps: self.steps - start_steps })
    }

    fn call_func(&mut self, name: &str, args: &[i64]) -> Result<i64, InterpError> {
        // The interpreter recurses with the guest: bound guest call depth
        // explicitly so runaway recursion is a guest error, not a host
        // stack overflow.
        if self.depth >= MAX_CALL_DEPTH {
            return Err(InterpError::Oom("call stack"));
        }
        let func = self
            .prog
            .func(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_string()))?;
        if func.params.len() != args.len() {
            return Err(InterpError::BadCall(format!(
                "{name} expects {} args, got {}",
                func.params.len(),
                args.len()
            )));
        }
        let saved_scopes = std::mem::take(&mut self.scopes);
        let saved_stack = self.arena.stack_ptr;
        self.depth += 1;
        self.scopes.push(HashMap::new());

        let result = (|| {
            for ((pname, pty), &v) in func.params.iter().zip(args) {
                let addr = self.arena.alloc_stack(pty.size())?;
                self.hook.on_alloc(addr, pty.size(), false);
                self.declare_local(*pname, pty.clone(), addr);
                self.store_scalar(addr, pty, v, u32::MAX)?;
            }
            match self.exec_block_inner(&func.body)? {
                Flow::Return(v) => Ok(v),
                Flow::Normal => Ok(0),
                Flow::Break | Flow::Continue => {
                    Err(InterpError::Misc("break/continue escaped all loops".into()))
                }
            }
        })();

        // Pop the frame: stack objects die.
        self.notify_frame_dealloc(&self.collect_frame_addrs());
        self.scopes = saved_scopes;
        self.arena.stack_ptr = saved_stack;
        self.depth -= 1;
        result
    }

    fn collect_frame_addrs(&self) -> Vec<u64> {
        self.scopes
            .iter()
            .flat_map(|s| s.values().map(|b| b.addr))
            .collect()
    }

    fn notify_frame_dealloc(&self, addrs: &[u64]) {
        for &a in addrs {
            self.hook.on_dealloc(a, false);
        }
    }

    fn declare_local(&mut self, name: Sym, ty: Type, addr: u64) {
        self.scopes
            .last_mut()
            .expect("active scope")
            .insert(name, Binding { addr, ty });
    }

    fn lookup(&self, name: Sym) -> Result<Binding, InterpError> {
        for s in self.scopes.iter().rev() {
            if let Some(b) = s.get(&name) {
                return Ok(b.clone());
            }
        }
        self.globals
            .get(&name)
            .cloned()
            .ok_or_else(|| InterpError::UndefinedVar(name.to_string()))
    }

    fn exec_block(&mut self, b: &Block) -> Result<Flow, InterpError> {
        self.scopes.push(HashMap::new());
        let watermark = self.arena.stack_ptr;
        let flow = self.exec_stmts(&b.stmts);
        // Scope exit: stack objects die.
        if let Some(scope) = self.scopes.last() {
            for binding in scope.values() {
                self.hook.on_dealloc(binding.addr, false);
            }
        }
        self.scopes.pop();
        self.arena.stack_ptr = watermark;
        flow
    }

    /// Like [`Interp::exec_block`] but reusing the current scope (function
    /// bodies: parameters share the top-level scope).
    fn exec_block_inner(&mut self, b: &Block) -> Result<Flow, InterpError> {
        self.exec_stmts(&b.stmts)
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow, InterpError> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                r => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, InterpError> {
        self.step(s.loc())?;
        match s {
            Stmt::Decl(d) => {
                let addr = self.arena.alloc_stack(d.ty.size())?;
                self.hook.on_alloc(addr, d.ty.size(), false);
                self.declare_local(d.name, d.ty.clone(), addr);
                if let Some(init) = &d.init {
                    let v = self.eval(init)?;
                    self.store_scalar(addr, &d.ty, v, init.id)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, els, .. } => {
                if self.eval(cond)? != 0 {
                    self.exec_block(then)
                } else if let Some(b) = els {
                    self.exec_block(b)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval(cond)? != 0 {
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    self.step(s.loc())?;
                }
                Ok(Flow::Normal)
            }
            Stmt::For { init, cond, step, body, .. } => {
                if let Some(e) = init {
                    self.eval(e)?;
                }
                loop {
                    if let Some(c) = cond {
                        if self.eval(c)? == 0 {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    if let Some(e) = step {
                        self.eval(e)?;
                    }
                    self.step(s.loc())?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e, _) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => 0,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            // Markers are no-ops at run time; Cosy-GCC consumes them
            // statically.
            Stmt::CosyStart(_) | Stmt::CosyEnd(_) => Ok(Flow::Normal),
        }
    }

    /// Evaluate an lvalue to (address, value type).
    fn eval_lvalue(&mut self, e: &Expr) -> Result<(u64, Type), InterpError> {
        match &e.kind {
            ExprKind::Var(name) => {
                let b = self.lookup(*name)?;
                Ok((b.addr, b.ty))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let addr = self.eval(inner)? as u64;
                let ty = self
                    .info
                    .type_of(e.id)
                    .cloned()
                    .unwrap_or(Type::Int);
                Ok((addr, ty))
            }
            ExprKind::Index(base, idx) => {
                let base_ty = self.info.type_of(base.id).cloned().unwrap_or(Type::Int);
                let base_addr = match base_ty {
                    Type::Array(_, _) => self.eval_lvalue(base)?.0,
                    _ => self.eval(base)? as u64,
                };
                let i = self.eval(idx)?;
                let elem = self.info.type_of(e.id).cloned().unwrap_or(Type::Int);
                let addr = (base_addr as i64 + i * elem.size() as i64) as u64;
                // Indexing is pointer arithmetic: give the hook its shot
                // (this is where KGCC bounds-checks array accesses).
                let addr = self.hook.on_ptr_arith(e.id, base_addr, addr)?;
                Ok((addr, elem))
            }
            _ => Err(InterpError::Misc(format!("not an lvalue at {}", e.loc))),
        }
    }

    /// Evaluate an expression to a value.
    fn eval(&mut self, e: &Expr) -> Result<i64, InterpError> {
        self.step(e.loc)?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(*v),
            ExprKind::CharLit(c) => Ok(*c as i64),
            ExprKind::StrLit(s) => {
                if let Some(&addr) = self.strings.get(&e.id) {
                    return Ok(addr as i64);
                }
                let bytes = s.as_bytes();
                let addr = self.arena.alloc_data(bytes.len() + 1)?;
                self.hook.on_alloc(addr, bytes.len() + 1, false);
                let mem = self.mem();
                mem.write(addr, bytes)?;
                mem.write(addr + bytes.len() as u64, &[0])?;
                self.strings.insert(e.id, addr);
                Ok(addr as i64)
            }
            ExprKind::Var(name) => {
                let b = self.lookup(*name)?;
                match b.ty {
                    // Arrays decay to their base address (no load, no check).
                    Type::Array(_, _) => Ok(b.addr as i64),
                    ty => self.load_scalar(b.addr, &ty, e.id),
                }
            }
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg => Ok(-self.eval(inner)?),
                UnOp::Not => Ok((self.eval(inner)? == 0) as i64),
                UnOp::Deref => {
                    let (addr, ty) = self.eval_lvalue(e)?;
                    match ty {
                        Type::Array(_, _) => Ok(addr as i64),
                        ty => self.load_scalar(addr, &ty, e.id),
                    }
                }
                UnOp::Addr => Ok(self.eval_lvalue(inner)?.0 as i64),
            },
            ExprKind::Binary(op, lhs, rhs) => self.eval_binary(e, *op, lhs, rhs),
            ExprKind::Assign(target, value) => {
                let v = self.eval(value)?;
                let (addr, ty) = self.eval_lvalue(target)?;
                self.store_scalar(addr, &ty, v, target.id)?;
                Ok(v)
            }
            ExprKind::Index(_, _) => {
                let (addr, ty) = self.eval_lvalue(e)?;
                match ty {
                    Type::Array(_, _) => Ok(addr as i64),
                    ty => self.load_scalar(addr, &ty, e.id),
                }
            }
            ExprKind::Call(name, args) => self.eval_call(e, name, args),
        }
    }

    fn eval_binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<i64, InterpError> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                return Ok(if self.eval(lhs)? != 0 {
                    (self.eval(rhs)? != 0) as i64
                } else {
                    0
                })
            }
            BinOp::Or => {
                return Ok(if self.eval(lhs)? != 0 {
                    1
                } else {
                    (self.eval(rhs)? != 0) as i64
                })
            }
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        let lt_ptr = self.info.type_of(lhs.id).map(Type::is_ptr_like).unwrap_or(false);
        let rt_ptr = self.info.type_of(rhs.id).map(Type::is_ptr_like).unwrap_or(false);

        Ok(match op {
            BinOp::Add | BinOp::Sub if lt_ptr && !rt_ptr => {
                let scale = self.info.elem_size(e.id) as i64;
                let new = if op == BinOp::Add { l + r * scale } else { l - r * scale };
                self.hook.on_ptr_arith(e.id, l as u64, new as u64)? as i64
            }
            BinOp::Add if rt_ptr && !lt_ptr => {
                let scale = self.info.elem_size(e.id) as i64;
                let new = r + l * scale;
                self.hook.on_ptr_arith(e.id, r as u64, new as u64)? as i64
            }
            BinOp::Sub if lt_ptr && rt_ptr => {
                let scale = self
                    .info
                    .type_of(lhs.id)
                    .and_then(Type::pointee)
                    .map(Type::size)
                    .unwrap_or(1) as i64;
                (l - r) / scale
            }
            _ => op.eval(l, r).ok_or(InterpError::DivByZero(e.loc))?,
        })
    }

    fn eval_call(&mut self, e: &Expr, name: &str, args: &[Expr]) -> Result<i64, InterpError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        match name {
            "malloc" => {
                let size = vals[0].max(0) as usize;
                let addr = self.arena.alloc_heap(size)?;
                self.hook.on_alloc(addr, size, true);
                Ok(addr as i64)
            }
            "free" => {
                let addr = vals[0] as u64;
                self.hook.on_free_check(e.id, addr)?;
                // C semantics: a bad free is silent corruption in the
                // uninstrumented baseline; KGCC's hook above catches it.
                if self.arena.free(addr) {
                    self.hook.on_dealloc(addr, true);
                }
                Ok(0)
            }
            "print_int" => {
                self.output.push(vals[0]);
                Ok(0)
            }
            _ if self.prog.func(name).is_some() => self.call_func(name, &vals),
            _ if name.starts_with("sys_") => {
                let host = self
                    .host
                    .ok_or_else(|| InterpError::BadCall(format!("no syscall host for {name}")))?;
                host.host_call(name, &vals, &self.mem())
            }
            _ => Err(InterpError::NoSuchFunction(name.to_string())),
        }
    }
}

impl fmt::Debug for Interp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interp")
            .field("steps", &self.steps)
            .field("arena", &self.arena.span)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::vm::tests::{engine_cases, run_reference, Setup, ARENA};
    use crate::InterpError;

    /// One test per case of the engines' shared table, run on the
    /// tree-walker alone: its (result, `print_int` output) must match the
    /// case's pattern. (`vm::tests` runs the same table under parity.)
    macro_rules! reference_cases {
        ($($name:ident: $setup:ident$(($n:expr))?, $src:expr, $func:literal, $args:expr
            => $want:pat $(if $guard:expr)?,)*) => {$(
            #[test]
            fn $name() {
                let run = run_reference($src, $func, $args, Setup::$setup$(($n))?);
                let got = run.result.map(|o| o.ret);
                let out = run.output.as_slice();
                assert!(matches!((&got, out), $want $(if $guard)?), "{got:?} {out:?}");
            }
        )*};
    }

    engine_cases!(reference_cases);

    #[test]
    fn interpreter_charges_cycles() {
        let src = "int f() { int i; int s = 0; for (i=0;i<100;i=i+1) s=s+i; return s; }";
        let run = run_reference(src, "f", &[], Setup::Flat);
        assert_eq!(run.result.unwrap().ret, 4950);
        assert!(run.cycles.0 > 0, "user-mode run charges user time");
    }
}

#[cfg(test)]
mod break_continue_tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::types::typecheck;
    use ksim::{MachineConfig, PteFlags, PAGE_SIZE};

    fn run(src: &str, func: &str, args: &[i64]) -> Result<i64, InterpError> {
        let m = Machine::new(MachineConfig::small_free());
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let asid = m.mem.create_space();
        const ARENA: u64 = 0x100_0000;
        for i in 0..16 {
            m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
        }
        let mut interp =
            Interp::new(&m, &prog, &info, ExecConfig::flat(asid), ARENA, 16 * PAGE_SIZE)?;
        interp.run(func, args).map(|o| o.ret)
    }

    #[test]
    fn break_exits_only_the_innermost_loop() {
        let src = r#"
            int f() {
                int total = 0;
                int i;
                int j;
                for (i = 0; i < 4; i = i + 1) {
                    for (j = 0; j < 100; j = j + 1) {
                        if (j == 3) { break; }
                        total = total + 1;
                    }
                }
                return total;
            }
        "#;
        assert_eq!(run(src, "f", &[]).unwrap(), 12, "4 outer × 3 inner");
    }

    #[test]
    fn continue_skips_to_the_next_iteration() {
        let src = r#"
            int f(int n) {
                int sum = 0;
                int i;
                for (i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    sum = sum + i;
                }
                return sum;
            }
        "#;
        assert_eq!(run(src, "f", &[10]).unwrap(), 1 + 3 + 5 + 7 + 9);
    }

    #[test]
    fn while_break_and_continue() {
        let src = r#"
            int f() {
                int i = 0;
                int sum = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 3 == 0) { continue; }
                    sum = sum + i;
                }
                return sum;
            }
        "#;
        // 1..=10 minus multiples of 3: 55 - (3+6+9) = 37
        assert_eq!(run(src, "f", &[]).unwrap(), 37);
    }

    #[test]
    fn continue_in_for_still_runs_the_step() {
        // Would loop forever if `continue` skipped the step expression.
        let src = r#"
            int f() {
                int hits = 0;
                int i;
                for (i = 0; i < 5; i = i + 1) {
                    if (i == 2) { continue; }
                    hits = hits + 1;
                }
                return hits;
            }
        "#;
        assert_eq!(run(src, "f", &[]).unwrap(), 4);
    }

    #[test]
    fn break_outside_loop_is_a_type_error() {
        let prog = parse_program("int f() { break; return 0; }").unwrap();
        assert!(typecheck(&prog).is_err());
        let prog = parse_program("int f(int x) { if (x) { continue; } return 0; }").unwrap();
        assert!(typecheck(&prog).is_err());
        // But inside a loop within the if, it's fine.
        let prog =
            parse_program("int f() { while (1) { if (1) { break; } } return 0; }").unwrap();
        assert!(typecheck(&prog).is_ok());
    }

    #[test]
    fn break_roundtrips_through_the_pretty_printer() {
        use crate::pretty::{ast_eq, pretty_program};
        let prog = parse_program(
            "int f() { int i; for (i = 0; i < 9; i = i + 1) { if (i == 2) { break; } continue; } return i; }",
        )
        .unwrap();
        let printed = pretty_program(&prog);
        let reparsed = parse_program(&printed).unwrap();
        assert!(ast_eq(&prog, &reparsed), "{printed}");
    }
}

#[cfg(test)]
mod differential_proptests {
    //! Differential testing: random integer expressions are evaluated both
    //! by the full pipeline (pretty-print → parse → typecheck → interpret
    //! on the simulated machine) and by a direct reference evaluator over
    //! the same AST. Any divergence is a bug in one of the five stages.

    use super::*;
    use crate::ast::{BinOp, Expr, ExprKind, SourceLoc, UnOp};
    use crate::parser::parse_program;
    use crate::pretty;
    use crate::types::typecheck;
    use ksim::{MachineConfig, PteFlags, PAGE_SIZE};
    use proptest::prelude::*;

    fn dummy(kind: ExprKind) -> Expr {
        Expr { id: 0, loc: SourceLoc::default(), kind }
    }

    /// Integer-only expressions over parameters a, b, c.
    fn arb_int_expr(depth: u32) -> BoxedStrategy<Expr> {
        let leaf = prop_oneof![
            (-100i64..100).prop_map(|v| dummy(ExprKind::IntLit(v))),
            prop_oneof![Just("a"), Just("b"), Just("c")]
                .prop_map(|n| dummy(ExprKind::Var(n.into()))),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        let inner = arb_int_expr(depth - 1);
        prop_oneof![
            leaf,
            (inner.clone(), inner.clone(), 0u8..11).prop_map(|(l, r, op)| {
                let op = match op {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Lt,
                    4 => BinOp::Le,
                    5 => BinOp::Gt,
                    6 => BinOp::Ge,
                    7 => BinOp::Eq,
                    8 => BinOp::Ne,
                    9 => BinOp::And,
                    _ => BinOp::Or,
                };
                dummy(ExprKind::Binary(op, Box::new(l), Box::new(r)))
            }),
            inner.clone().prop_map(|e| dummy(ExprKind::Unary(UnOp::Neg, Box::new(e)))),
            inner.prop_map(|e| dummy(ExprKind::Unary(UnOp::Not, Box::new(e)))),
        ]
        .boxed()
    }

    /// The reference semantics.
    fn eval_ref(e: &Expr, a: i64, b: i64, c: i64) -> i64 {
        match &e.kind {
            ExprKind::IntLit(v) => *v,
            ExprKind::Var(n) => match n.as_str() {
                "a" => a,
                "b" => b,
                _ => c,
            },
            ExprKind::Unary(UnOp::Neg, i) => -eval_ref(i, a, b, c),
            ExprKind::Unary(UnOp::Not, i) => (eval_ref(i, a, b, c) == 0) as i64,
            ExprKind::Binary(op, l, r) => {
                let lv = eval_ref(l, a, b, c);
                match op {
                    BinOp::And => {
                        return if lv != 0 { (eval_ref(r, a, b, c) != 0) as i64 } else { 0 }
                    }
                    BinOp::Or => {
                        return if lv != 0 { 1 } else { (eval_ref(r, a, b, c) != 0) as i64 }
                    }
                    _ => {}
                }
                let rv = eval_ref(r, a, b, c);
                match op {
                    BinOp::Add => lv.wrapping_add(rv),
                    BinOp::Sub => lv.wrapping_sub(rv),
                    BinOp::Mul => lv.wrapping_mul(rv),
                    BinOp::Lt => (lv < rv) as i64,
                    BinOp::Le => (lv <= rv) as i64,
                    BinOp::Gt => (lv > rv) as i64,
                    BinOp::Ge => (lv >= rv) as i64,
                    BinOp::Eq => (lv == rv) as i64,
                    BinOp::Ne => (lv != rv) as i64,
                    BinOp::And | BinOp::Or => unreachable!(),
                    BinOp::Div | BinOp::Rem => unreachable!("not generated"),
                }
            }
            _ => unreachable!("not generated"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn interpreter_matches_reference_semantics(
            e in arb_int_expr(3),
            a in -50i64..50,
            b in -50i64..50,
            c in -50i64..50,
        ) {
            let src = format!(
                "int f(int a, int b, int c) {{ return {}; }}",
                pretty::expr(&e)
            );
            let prog = parse_program(&src)
                .map_err(|err| TestCaseError::fail(format!("{err}\n{src}")))?;
            let info = typecheck(&prog)
                .map_err(|err| TestCaseError::fail(format!("{err}\n{src}")))?;

            let m = Machine::new(MachineConfig::small_free());
            let asid = m.mem.create_space();
            const ARENA: u64 = 0x100_0000;
            for i in 0..8 {
                m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
            }
            let mut interp =
                Interp::new(&m, &prog, &info, ExecConfig::flat(asid), ARENA, 8 * PAGE_SIZE)
                    .unwrap();
            let got = interp.run("f", &[a, b, c]).unwrap().ret;
            let want = eval_ref(&e, a, b, c);
            prop_assert_eq!(got, want, "src: {}", src);
        }
    }
}
