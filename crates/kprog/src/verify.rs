//! The load-time verifier: the VM's own step, run in an abstract domain.
//!
//! A program is admitted to a kernel attach point only if this pass proves,
//! before the first invocation, the two properties the paper otherwise
//! enforces at runtime (KGCC checks + the Cosy watchdog):
//!
//! 1. **Memory safety** — every load and store lands inside an object the
//!    program legitimately owns: its context words, its persistent state
//!    block, the per-invocation data buffer, its own locals/globals, or a
//!    string literal. Pointers are tracked symbolically through the same
//!    [`kgcc::ObjectMap`] the runtime checker uses, so "in bounds" here
//!    means exactly what a KGCC check would have tested.
//! 2. **Termination within budget** — the walk executes
//!    [`kclang::Core::step`], the step [`kclang::Vm`] runs. Stack, frames,
//!    scopes, calls and jumps are the VM's own code; only values, memory
//!    and charging are abstract, and `Op::Step` has one arm for both. The
//!    proved `max_steps` is therefore an upper bound on the runtime step
//!    counter. The attach runtime runs with `max_steps` as fuel: the
//!    watchdog becomes unreachable instead of being a recovery mechanism.
//!
//! The abstract domain: a value is unknown, a constant, or a pointer into
//! an object of the map; each path keeps the contents it has stored and
//! the set of objects whose scope has exited. Conditions that fold to
//! constants follow one arm (so counted loops unroll concretely); when a
//! conditional jump's truth is unknown the step reports a fork and the
//! explorer follows both, depth first. A runtime error the VM would stop
//! on cleanly (division by zero, call depth) ends the path; its steps
//! still bound the proof.
//!
//! Rejections are structured verdicts: the faulting pc, the opcode's
//! mnemonic, and the rule that fired.

use std::collections::BTreeMap;
use std::fmt;

use kclang::{Access, BinOp, Core, Domain, Flow, InterpError, Module, Op};
use kgcc::{ObjKind, ObjectMap};
use ksim::FxHashSet;

use crate::engine::{HookClass, ProgSpec};

/// Abstract-op evaluation allowance for the whole verification. Paths are
/// explored depth-first; when the allowance runs out the program is
/// rejected with [`RejectRule::PathExplosion`] rather than admitted on
/// faith.
const VERIFY_GAS: u64 = 4_000_000;

/// Simultaneously-pending forked paths allowed before giving up.
const MAX_PATHS: usize = 4096;

/// Largest step budget a spec may request. Keeps `VERIFY_GAS` sufficient
/// to unroll any single loop the budget admits.
pub const MAX_BUDGET: u64 = 1_000_000;

/// Why the verifier rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectRule {
    /// Opcode outside the allowlist for the attach point (e.g. `malloc`,
    /// host syscalls, or `print_int` outside event programs).
    OpcodeForbidden,
    /// A compile-time trap (unknown function / not-an-lvalue) is reachable.
    TrapReachable,
    /// A loop back-edge was still live when the step budget ran out: the
    /// trip count could not be bounded under the budget.
    UnboundedLoop,
    /// Straight-line (or fully unrolled) cost alone exceeds the budget.
    BudgetExceeded,
    /// A memory access provably or possibly escapes every owned object.
    OutOfBounds,
    /// A value of unknown or integer provenance was dereferenced.
    UnprovenPointer,
    /// Path/fork count exceeded the verifier's exploration allowance.
    PathExplosion,
    /// Entry function missing or its arity does not match the attach class.
    BadSignature,
    /// Rejection injected by the fault plane (`kprog.verify.reject`).
    Injected,
}

impl fmt::Display for RejectRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectRule::OpcodeForbidden => "opcode-forbidden",
            RejectRule::TrapReachable => "trap-reachable",
            RejectRule::UnboundedLoop => "unbounded-loop",
            RejectRule::BudgetExceeded => "budget-exceeded",
            RejectRule::OutOfBounds => "out-of-bounds",
            RejectRule::UnprovenPointer => "unproven-pointer",
            RejectRule::PathExplosion => "path-explosion",
            RejectRule::BadSignature => "bad-signature",
            RejectRule::Injected => "injected",
        };
        f.write_str(s)
    }
}

/// The structured verdict for a rejected program: which instruction, which
/// rule, and a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Bytecode pc of the offending instruction (0 when pre-execution).
    pub pc: u32,
    /// Mnemonic of the offending opcode (`"<none>"` when pre-execution).
    pub mnemonic: &'static str,
    /// Which verifier rule fired.
    pub rule: RejectRule,
    /// Free-form context for the verdict.
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc {} ({}): {}: {}", self.pc, self.mnemonic, self.rule, self.detail)
    }
}

/// What an accepted program is entitled to: a proved fuel bound plus
/// exploration statistics (useful in verdicts and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proof {
    /// Upper bound on `Vm::steps()` for one init+entry invocation. The
    /// runtime uses this as `max_steps`; the VM's timeout fires strictly
    /// *above* `max_steps`, so a proved program can never hit it.
    pub max_steps: u64,
    /// Terminal abstract paths explored (clean returns and clean errors).
    pub paths: u32,
    /// Abstract ops evaluated during verification.
    pub gas_used: u64,
}

/// An abstract value: what the verifier knows about one operand slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum AbsVal {
    /// Nothing known.
    #[default]
    Top,
    /// Exactly this integer.
    Const(i64),
    /// A pointer to synthetic address `addr` inside some mapped object.
    Ptr(u64),
}

/// What one path knows about memory, beside the VM state in its core.
#[derive(Clone, Default)]
struct PathMem {
    /// Known memory: synthetic address -> (access width, value). Absent
    /// entries are Top. Only exact-width reads hit.
    contents: BTreeMap<u64, (u8, AbsVal)>,
    /// Objects whose scope has exited on this path; dereferencing them
    /// would be use-after-scope and is rejected.
    dead: FxHashSet<u64>,
    /// Backward jumps taken on this path (loop evidence for verdicts).
    backjumps: u32,
}

impl PathMem {
    fn jumped(&mut self, from: u32, to: u32) {
        if to <= from {
            self.backjumps += 1;
        }
    }
}

/// One explored execution path: the VM's state over abstract values, with
/// synthetic addresses in place of arena addresses.
#[derive(Clone)]
struct Path {
    core: Core<AbsVal>,
    mem: PathMem,
}

/// Why an abstract step stopped its path.
enum Stop {
    /// A clean runtime error (division by zero, call depth, a bad call):
    /// the concrete run stops here too, so the path ends with its steps.
    Terminal,
    /// The program is rejected at this op.
    Reject(RejectRule, String),
}

impl From<InterpError> for Stop {
    fn from(_: InterpError) -> Stop {
        Stop::Terminal
    }
}

/// The verifier proper: shared object map, synthetic address allocator
/// and exploration gas.
struct Verifier<'m> {
    module: &'m Module,
    budget: u64,
    map: ObjectMap,
    /// Next synthetic base; objects are spaced so no two ever touch and
    /// address 0 is never a valid object.
    cursor: u64,
    gas: u64,
    /// Pre-created string-literal objects (StrLit id -> base), shared by
    /// every path; their contents are seeded into the root state.
    strings: std::collections::HashMap<u32, u64>,
}

impl Verifier<'_> {
    fn alloc(&mut self, len: usize, kind: ObjKind) -> u64 {
        let base = self.cursor;
        let len = len.max(1);
        self.map.insert(base, len, kind);
        // Round up generously and leave a gap so one-past-end pointers of
        // one object can never alias the base of the next.
        self.cursor += (len as u64).next_multiple_of(8) + 64;
        base
    }

    /// Is `[addr, addr+len)` inside an object that is live on this path?
    fn check_access(
        &mut self,
        dead: &FxHashSet<u64>,
        addr: u64,
        access: Access,
    ) -> Result<(), Stop> {
        let len = access.len as usize;
        let detail = match self.map.containing(addr) {
            None => format!("no object contains address offset {addr:#x} (width {len})"),
            Some(obj) if dead.contains(&obj.base) => {
                "access to a local whose scope has exited".into()
            }
            Some(obj) if !obj.covers(addr, len) => {
                format!("access [{addr:#x},+{len}) escapes object [{:#x},+{})", obj.base, obj.len)
            }
            Some(_) => return Ok(()),
        };
        Err(Stop::Reject(RejectRule::OutOfBounds, detail))
    }
}

/// The abstract domain one path steps in: the verifier's shared object
/// map and the path's own memory.
struct Abs<'a, 'm> {
    v: &'a mut Verifier<'m>,
    mem: &'a mut PathMem,
}

impl Abs<'_, '_> {
    /// The address `ptr` names, if it is a pointer with room for `access`
    /// in a live object.
    fn deref(&mut self, ptr: AbsVal, access: Access, what: &str) -> Result<u64, Stop> {
        let source = match ptr {
            AbsVal::Ptr(addr) => {
                self.v.check_access(&self.mem.dead, addr, access)?;
                return Ok(addr);
            }
            AbsVal::Top => "a value of unknown provenance",
            AbsVal::Const(_) => "an integer fabricated as a pointer",
        };
        Err(Stop::Reject(RejectRule::UnprovenPointer, format!("{what} through {source}")))
    }
}

impl Domain for Abs<'_, '_> {
    type Val = AbsVal;
    type Err = Stop;

    fn int(&mut self, v: i64) -> AbsVal {
        AbsVal::Const(v)
    }

    fn addr(&mut self, a: u64) -> AbsVal {
        AbsVal::Ptr(a)
    }

    fn truth(&mut self, x: AbsVal) -> Option<bool> {
        match x {
            AbsVal::Const(c) => Some(c != 0),
            // An in-bounds pointer maps to a nonzero arena address; a pointer
            // driven out of bounds by arithmetic could concretely be anything.
            AbsVal::Ptr(a) => self.v.map.containing(a).is_some().then_some(true),
            AbsVal::Top => None,
        }
    }

    /// `None` when the division is provably by zero.
    fn bin(&mut self, op: BinOp, l: AbsVal, r: AbsVal) -> Option<AbsVal> {
        use AbsVal::*;
        // Pointer comparisons within one object fold to exact offsets; the
        // synthetic layout matches the concrete one offset-for-offset. Folds
        // apply only to strictly in-bounds pointers: out-of-bounds arithmetic
        // could concretely land anywhere.
        if let (Ptr(a), Ptr(b)) = (l, r) {
            let oa = self.v.map.containing(a);
            let ob = self.v.map.containing(b);
            if let (Some(oa), Some(ob)) = (oa, ob) {
                if oa.base == ob.base && op.is_cmp() {
                    return op.eval(a as i64, b as i64).map(Const);
                }
                if oa.base != ob.base
                    && matches!(op, BinOp::Eq | BinOp::Ne)
                    && !self.mem.dead.contains(&oa.base)
                    && !self.mem.dead.contains(&ob.base)
                {
                    // In-bounds pointers into distinct live objects never
                    // alias. (Dead objects excluded: the VM reuses their
                    // arena addresses after scope exit.)
                    return Some(Const((op == BinOp::Ne) as i64));
                }
            }
            return Some(Top);
        }
        // In-bounds pointers are non-null, so == 0 / != 0 fold.
        if let (Ptr(p), Const(0)) | (Const(0), Ptr(p)) = (l, r) {
            if matches!(op, BinOp::Eq | BinOp::Ne) && self.v.map.containing(p).is_some() {
                return Some(Const((op == BinOp::Ne) as i64));
            }
        }
        let (Const(a), Const(b)) = (l, r) else {
            if matches!(op, BinOp::Div | BinOp::Rem) && r == Const(0) {
                return None;
            }
            return Some(Top);
        };
        // Constant folding through the engines' own integer rule.
        op.eval(a, b).map(Const)
    }

    /// Provenance survives a constant offset; the arithmetic wraps like
    /// the VM's.
    fn offset(
        &mut self,
        ptr: AbsVal,
        idx: AbsVal,
        scale: u32,
        sub: bool,
        _site: u32,
        _checked: bool,
    ) -> Result<AbsVal, Stop> {
        let scaled = |x: i64| {
            let d = x.wrapping_mul(scale as i64);
            if sub {
                d.wrapping_neg()
            } else {
                d
            }
        };
        Ok(match (ptr, idx) {
            (AbsVal::Ptr(b), AbsVal::Const(x)) => {
                AbsVal::Ptr((b as i64).wrapping_add(scaled(x)) as u64)
            }
            (AbsVal::Const(b), AbsVal::Const(x)) => AbsVal::Const(b.wrapping_add(scaled(x))),
            _ => AbsVal::Top,
        })
    }

    fn ptr_diff(&mut self, l: AbsVal, r: AbsVal, scale: u32) -> AbsVal {
        match (l, r) {
            (AbsVal::Ptr(a), AbsVal::Ptr(b)) => {
                match (self.v.map.containing(a), self.v.map.containing(b)) {
                    (Some(oa), Some(ob)) if oa.base == ob.base => {
                        AbsVal::Const((a.wrapping_sub(b) as i64) / scale as i64)
                    }
                    _ => AbsVal::Top,
                }
            }
            (AbsVal::Const(a), AbsVal::Const(b)) => AbsVal::Const(a.wrapping_sub(b) / scale as i64),
            _ => AbsVal::Top,
        }
    }

    fn load(
        &mut self,
        addr: AbsVal,
        access: Access,
        _site: u32,
        _checked: bool,
    ) -> Result<AbsVal, Stop> {
        let addr = self.deref(addr, access, "load")?;
        Ok(contents_load(&self.mem.contents, addr, access))
    }

    fn store(
        &mut self,
        addr: AbsVal,
        access: Access,
        v: AbsVal,
        _site: u32,
        _checked: bool,
    ) -> Result<(), Stop> {
        let addr = self.deref(addr, access, "store")?;
        contents_store(&mut self.mem.contents, addr, access, v);
        Ok(())
    }

    fn str_lit(&mut self, id: u32, _bytes: &[u8]) -> Result<AbsVal, Stop> {
        Ok(AbsVal::Ptr(self.v.strings[&id]))
    }

    fn alloc(&mut self, size: usize, global: bool) -> Result<u64, Stop> {
        Ok(self.v.alloc(size, if global { ObjKind::Global } else { ObjKind::Stack }))
    }

    fn free_local(&mut self, addr: u64) {
        if addr != 0 {
            self.mem.dead.insert(addr);
        }
    }

    fn charge(&mut self, steps: &mut u64, n: u32) -> Result<(), Stop> {
        *steps += n as u64;
        if *steps <= self.v.budget {
            return Ok(());
        }
        let (rule, what) = if self.mem.backjumps > 0 {
            (RejectRule::UnboundedLoop, "loop trip count not bounded by budget")
        } else {
            (RejectRule::BudgetExceeded, "straight-line cost exceeds budget")
        };
        Err(Stop::Reject(rule, format!("{what}: {} steps > budget {}", steps, self.v.budget)))
    }

    fn jumped(&mut self, from: u32, to: u32) {
        self.mem.jumped(from, to);
    }

    // `malloc`, `free`, `print_int` and host calls keep the defaults: the
    // scan admits only `print_int`, whose value is not tracked.
}

fn contents_store(
    contents: &mut BTreeMap<u64, (u8, AbsVal)>,
    addr: u64,
    access: Access,
    v: AbsVal,
) {
    let w = access.width() as u8;
    // Invalidate anything overlapping [addr, addr + w).
    let lo = addr.saturating_sub(7);
    let hi = addr + w as u64;
    let stale: Vec<u64> = contents
        .range(lo..hi)
        .filter(|(&k, &(l, _))| k < hi && k + l as u64 > addr)
        .map(|(&k, _)| k)
        .collect();
    for k in stale {
        contents.remove(&k);
    }
    let v = match (access.byte, v) {
        // A byte store truncates exactly like the VM (`v as u8`).
        (true, AbsVal::Const(c)) => AbsVal::Const((c as u8) as i64),
        // A pointer squeezed through a byte store loses provenance.
        (true, AbsVal::Ptr(_)) => AbsVal::Top,
        (_, other) => other,
    };
    if v != AbsVal::Top {
        contents.insert(addr, (w, v));
    }
}

fn contents_load(contents: &BTreeMap<u64, (u8, AbsVal)>, addr: u64, access: Access) -> AbsVal {
    match contents.get(&addr) {
        Some(&(w, v)) if w as usize == access.width() => v,
        _ => AbsVal::Top,
    }
}

/// Whole-module opcode scan (pass 1). Anything that could reach outside the
/// sandbox — host syscalls, the shared heap, compile-time traps — is
/// rejected before any path is explored.
fn scan_opcodes(module: &Module, class: HookClass) -> Result<(), Rejection> {
    for (pc, op) in module.ops().iter().enumerate() {
        let (rule, detail) = match op {
            Op::CallHost { name, .. } => {
                (RejectRule::OpcodeForbidden, format!("host call '{name}' is not permitted"))
            }
            Op::Malloc => (RejectRule::OpcodeForbidden, "heap allocation is not permitted".into()),
            Op::Free { .. } => (RejectRule::OpcodeForbidden, "free is not permitted".into()),
            Op::PrintInt if class != HookClass::EventDispatch => (
                RejectRule::OpcodeForbidden,
                "print_int is only permitted in event programs".into(),
            ),
            Op::Trap(_) => (
                RejectRule::TrapReachable,
                "program contains a compile-time trap (unknown callee or bad lvalue)".into(),
            ),
            _ => continue,
        };
        return Err(Rejection { pc: pc as u32, mnemonic: op.mnemonic(), rule, detail });
    }
    Ok(())
}

/// A verdict about no single instruction.
pub(crate) fn reject_at(pc: u32, rule: RejectRule, detail: String) -> Rejection {
    Rejection { pc, mnemonic: "<none>", rule, detail }
}

/// Verify `module` against `spec`. On success the returned [`Proof`] bounds
/// one full invocation (init chunk + entry call) of the program.
pub fn verify(module: &Module, spec: &ProgSpec) -> Result<Proof, Rejection> {
    if spec.budget == 0 || spec.budget > MAX_BUDGET {
        let detail = format!("budget {} outside 1..={MAX_BUDGET}", spec.budget);
        return Err(reject_at(0, RejectRule::BudgetExceeded, detail));
    }
    scan_opcodes(module, spec.class)?;

    let Some(entry_fidx) = module.func_by_name(&spec.entry) else {
        let detail = format!("entry function '{}' not defined", spec.entry);
        return Err(reject_at(0, RejectRule::BadSignature, detail));
    };
    let entry = &module.funcs()[entry_fidx as usize];
    let want = spec.class.arity();
    if entry.n_params != want {
        let detail = format!(
            "{} programs take {} parameters, '{}' takes {}",
            spec.class, want, spec.entry, entry.n_params
        );
        return Err(reject_at(0, RejectRule::BadSignature, detail));
    }

    let mut v = Verifier {
        module,
        budget: spec.budget,
        map: ObjectMap::new(),
        cursor: 0x1000,
        gas: VERIFY_GAS,
        strings: std::collections::HashMap::new(),
    };

    // ABI objects the entry function receives pointers to.
    let mut args = vec![
        AbsVal::Ptr(v.alloc(crate::engine::CTX_BYTES, ObjKind::Global)),
        AbsVal::Ptr(v.alloc(spec.state_words.max(1) * 8, ObjKind::Global)),
    ];
    if spec.class == HookClass::UringCqe {
        args.push(AbsVal::Ptr(v.alloc(spec.buf_len.max(1), ObjKind::Global)));
    }

    // Root state: the sentinel frame the VM pushes before the init chunk.
    let mut root = Path { core: Core::default(), mem: PathMem::default() };
    root.core.start(module, 0);

    // Pre-create every string literal's object and seed its (constant)
    // bytes into the root state, so all paths share one object per literal
    // exactly as the VM caches one arena copy per StrLit id.
    for op in module.ops() {
        if let Op::StrLit { id, sidx } = op {
            if v.strings.contains_key(id) {
                continue;
            }
            let bytes = &module.strings()[*sidx as usize];
            let base = v.alloc(bytes.len() + 1, ObjKind::Global);
            let contents = &mut root.mem.contents;
            for (i, &b) in bytes.iter().enumerate() {
                contents.insert(base + i as u64, (1, AbsVal::Const(b as i64)));
            }
            contents.insert(base + bytes.len() as u64, (1, AbsVal::Const(0)));
            v.strings.insert(*id, base);
        }
    }

    // Phase 1: explore the init chunk; collect its terminal states.
    let mut max_steps = 0u64;
    let mut paths = 0u32;
    let init_terminals = explore(&mut v, root, &mut max_steps, &mut paths)?;

    // Phase 2: from every way init can finish, call the entry function with
    // the ABI pointers (contents unknown: the kernel writes them fresh each
    // invocation). The arguments are bound from stack slot 0 on.
    for mut st in init_terminals {
        st.core.stack.extend_from_slice(&args);
        st.core.push_frame(0, u32::MAX, 0, entry.n_slots);
        st.core.pc = entry.entry;
        explore(&mut v, st, &mut max_steps, &mut paths)?;
    }

    Ok(Proof { max_steps, paths, gas_used: VERIFY_GAS - v.gas })
}

/// Depth-first exploration from `seed` until every path terminates.
/// Returns the terminal states (for init-phase chaining); updates the
/// rolling `max_steps`/`paths` proof counters.
fn explore(
    v: &mut Verifier<'_>,
    seed: Path,
    max_steps: &mut u64,
    paths: &mut u32,
) -> Result<Vec<Path>, Rejection> {
    let module = v.module;
    let mut work = vec![seed];
    let mut terminals = Vec::new();
    while let Some(mut st) = work.pop() {
        loop {
            let pc = st.core.pc;
            if v.gas == 0 {
                let detail = format!("verification gas exhausted after {VERIFY_GAS} abstract ops");
                return Err(reject_at(pc, RejectRule::PathExplosion, detail));
            }
            v.gas -= 1;
            match st.core.step(&mut Abs { v, mem: &mut st.mem }, module, pc) {
                Ok(Flow::Next(next)) => st.core.pc = next,
                Ok(Flow::Fork { fall, taken }) => {
                    if work.len() + 1 > MAX_PATHS {
                        let detail = format!("more than {MAX_PATHS} pending paths");
                        return Err(reject_at(fall, RejectRule::PathExplosion, detail));
                    }
                    st.core.pc = fall;
                    let mut other = st.clone();
                    other.core.pc = taken;
                    other.mem.jumped(pc, taken);
                    work.push(other);
                }
                Ok(Flow::Return(_)) | Err(Stop::Terminal) => {
                    *max_steps = (*max_steps).max(st.core.steps);
                    *paths += 1;
                    terminals.push(st);
                    break;
                }
                Err(Stop::Reject(rule, detail)) => {
                    let mnemonic = module.ops()[pc as usize].mnemonic();
                    return Err(Rejection { pc, mnemonic, rule, detail });
                }
            }
        }
    }
    Ok(terminals)
}
