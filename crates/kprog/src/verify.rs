//! The load-time verifier: abstract interpretation of kclang bytecode.
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
//! 2. **Termination within budget** — the walk mirrors the VM's step
//!    accounting op-for-op ([`kclang::Vm`] charges only at `Op::Step`), so
//!    the proved `max_steps` is a true upper bound on the runtime step
//!    counter. The attach runtime then runs with `max_steps` as fuel: the
//!    watchdog becomes unreachable instead of being a recovery mechanism.
//!
//! The interpreter is a fork-on-unknown explorer: conditions that fold to
//! constants follow one arm (so counted loops unroll concretely), unknown
//! conditions explore both arms. Abstract state deliberately mirrors the
//! VM's frame/scope/slot machinery so each abstract path corresponds to a
//! possible concrete execution with *identical* step charges.
//!
//! Rejections carry the faulting pc, opcode mnemonic, and rule — the
//! structured verdict the issue asks for.

use std::collections::BTreeMap;
use std::fmt;

use kclang::{Access, BinOp, Module, Op, MAX_CALL_DEPTH};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Nothing known.
    Top,
    /// Exactly this integer.
    Const(i64),
    /// A pointer to synthetic address `addr` inside some mapped object.
    Ptr(u64),
}

#[derive(Debug, Clone, Copy)]
struct AbsFrame {
    ret_pc: u32,
    base: u32,
    slot_base: u32,
    scope_mark: u32,
    arg_cursor: u16,
}

/// One explored execution path. Field-for-field shadow of the VM's mutable
/// state, with synthetic addresses in place of arena addresses.
#[derive(Clone)]
struct PathState {
    pc: u32,
    steps: u64,
    stack: Vec<AbsVal>,
    /// Synthetic object base per local slot (0 = not yet declared).
    slots: Vec<u64>,
    frames: Vec<AbsFrame>,
    /// decl_stack length at each scope entry (the VM's `decl_mark`).
    scopes: Vec<u32>,
    decls: Vec<u16>,
    /// Per-global synthetic base, assigned by `AllocGlobal` during init.
    global_addrs: Vec<u64>,
    /// Known memory: synthetic address -> (access width, value). Absent
    /// entries are Top. Only exact-width reads hit.
    contents: BTreeMap<u64, (u8, AbsVal)>,
    /// Objects whose scope has exited on this path; dereferencing them
    /// would be use-after-scope and is rejected.
    dead: FxHashSet<u64>,
    /// Backward jumps taken on this path (loop evidence for verdicts).
    backjumps: u32,
}

enum StepOutcome {
    /// Keep executing this path.
    Continue,
    /// Path ended (clean return or clean runtime error such as div-by-zero
    /// or call-depth exhaustion). Steps so far feed the proof bound.
    Terminal,
    /// Condition unknown: also explore `forked`.
    Fork(Box<PathState>),
}

/// The verifier proper: shared object map + synthetic address allocator +
/// the DFS work list.
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
    /// `print_int` allowed? (Event programs may emit; other classes not.)
    allow_print: bool,
}

impl<'m> Verifier<'m> {
    fn alloc(&mut self, len: usize, kind: ObjKind) -> u64 {
        let base = self.cursor;
        let len = len.max(1);
        self.map.insert(base, len, kind);
        // Round up generously and leave a gap so one-past-end pointers of
        // one object can never alias the base of the next.
        self.cursor += (len as u64).next_multiple_of(8) + 64;
        base
    }

    fn reject(&self, pc: u32, op: Option<&Op>, rule: RejectRule, detail: String) -> Rejection {
        Rejection {
            pc,
            mnemonic: op.map(|o| o.mnemonic()).unwrap_or("<none>"),
            rule,
            detail,
        }
    }

    /// Is `[addr, addr+len)` inside a live object on this path?
    fn check_access(
        &mut self,
        st: &PathState,
        pc: u32,
        op: &Op,
        addr: u64,
        access: Access,
    ) -> Result<(), Rejection> {
        let len = access.len as usize;
        let Some(obj) = self.map.containing(addr) else {
            return Err(self.reject(
                pc,
                Some(op),
                RejectRule::OutOfBounds,
                format!("no object contains address offset {addr:#x} (width {len})"),
            ));
        };
        if st.dead.contains(&obj.base) {
            return Err(self.reject(
                pc,
                Some(op),
                RejectRule::OutOfBounds,
                "access to a local whose scope has exited".into(),
            ));
        }
        if !obj.covers(addr, len) {
            return Err(self.reject(
                pc,
                Some(op),
                RejectRule::OutOfBounds,
                format!(
                    "access [{:#x},+{}) escapes object [{:#x},+{})",
                    addr, len, obj.base, obj.len
                ),
            ));
        }
        Ok(())
    }
}

fn contents_store(st: &mut PathState, addr: u64, access: Access, v: AbsVal) {
    let w = if access.byte { 1u8 } else { 8 };
    // Invalidate anything overlapping [addr, addr + w).
    let lo = addr.saturating_sub(7);
    let hi = addr + w as u64;
    let stale: Vec<u64> = st
        .contents
        .range(lo..hi)
        .filter(|(&k, &(l, _))| k < hi && k + l as u64 > addr)
        .map(|(&k, _)| k)
        .collect();
    for k in stale {
        st.contents.remove(&k);
    }
    let v = match (access.byte, v) {
        // A byte store truncates exactly like the VM (`v as u8`).
        (true, AbsVal::Const(c)) => AbsVal::Const((c as u8) as i64),
        // A pointer squeezed through a byte store loses provenance.
        (true, AbsVal::Ptr(_)) => AbsVal::Top,
        (_, other) => other,
    };
    if v != AbsVal::Top {
        st.contents.insert(addr, (w, v));
    }
}

fn contents_load(st: &PathState, addr: u64, access: Access) -> AbsVal {
    let w = if access.byte { 1u8 } else { 8 };
    match st.contents.get(&addr) {
        Some(&(sw, v)) if sw == w => v,
        _ => AbsVal::Top,
    }
}

fn push_frame(module: &Module, st: &mut PathState, ret_pc: u32, base: u32, fidx: u16) {
    let f = &module.funcs()[fidx as usize];
    let slot_base = st.slots.len() as u32;
    st.slots.resize(st.slots.len() + f.n_slots as usize, 0);
    st.frames.push(AbsFrame {
        ret_pc,
        base,
        slot_base,
        scope_mark: st.scopes.len() as u32,
        arg_cursor: 0,
    });
    st.scopes.push(st.decls.len() as u32);
}

fn exit_scope(st: &mut PathState, slot_base: u32) {
    let decl_mark = st.scopes.pop().expect("scope underflow") as usize;
    for i in decl_mark..st.decls.len() {
        let slot = st.decls[i];
        let base = st.slots[slot_base as usize + slot as usize];
        if base != 0 {
            st.dead.insert(base);
        }
    }
    st.decls.truncate(decl_mark);
}

/// Whole-module opcode scan (pass 1). Anything that could reach outside the
/// sandbox — host syscalls, the shared heap, compile-time traps — is
/// rejected before any path is explored.
fn scan_opcodes(module: &Module, class: HookClass) -> Result<(), Rejection> {
    for (pc, op) in module.ops().iter().enumerate() {
        let bad = match op {
            Op::CallHost { name, .. } => Some(format!("host call '{name}' is not permitted")),
            Op::Malloc => Some("heap allocation is not permitted".into()),
            Op::Free { .. } => Some("free is not permitted".into()),
            Op::PrintInt if class != HookClass::EventDispatch => {
                Some("print_int is only permitted in event programs".into())
            }
            _ => None,
        };
        if let Some(detail) = bad {
            return Err(Rejection {
                pc: pc as u32,
                mnemonic: op.mnemonic(),
                rule: RejectRule::OpcodeForbidden,
                detail,
            });
        }
        if let Op::Trap(_) = op {
            return Err(Rejection {
                pc: pc as u32,
                mnemonic: op.mnemonic(),
                rule: RejectRule::TrapReachable,
                detail: "program contains a compile-time trap (unknown callee or bad lvalue)"
                    .into(),
            });
        }
    }
    Ok(())
}

/// Verify `module` against `spec`. On success the returned [`Proof`] bounds
/// one full invocation (init chunk + entry call) of the program.
pub fn verify(module: &Module, spec: &ProgSpec) -> Result<Proof, Rejection> {
    if spec.budget == 0 || spec.budget > MAX_BUDGET {
        return Err(Rejection {
            pc: 0,
            mnemonic: "<none>",
            rule: RejectRule::BudgetExceeded,
            detail: format!("budget {} outside 1..={MAX_BUDGET}", spec.budget),
        });
    }
    scan_opcodes(module, spec.class)?;

    let Some(entry_fidx) = module.func_by_name(&spec.entry) else {
        return Err(Rejection {
            pc: 0,
            mnemonic: "<none>",
            rule: RejectRule::BadSignature,
            detail: format!("entry function '{}' not defined", spec.entry),
        });
    };
    let n_params = module.funcs()[entry_fidx as usize].n_params;
    let want = spec.class.arity();
    if n_params != want {
        return Err(Rejection {
            pc: 0,
            mnemonic: "<none>",
            rule: RejectRule::BadSignature,
            detail: format!(
                "{} programs take {} parameters, '{}' takes {}",
                spec.class, want, spec.entry, n_params
            ),
        });
    }

    let mut v = Verifier {
        module,
        budget: spec.budget,
        map: ObjectMap::new(),
        cursor: 0x1000,
        gas: VERIFY_GAS,
        strings: std::collections::HashMap::new(),
        allow_print: spec.class == HookClass::EventDispatch,
    };

    // ABI objects the entry function receives pointers to.
    let ctx = v.alloc(crate::engine::CTX_BYTES, ObjKind::Global);
    let state = v.alloc(spec.state_words.max(1) * 8, ObjKind::Global);
    let buf = if spec.class == HookClass::UringCqe {
        Some(v.alloc(spec.buf_len.max(1), ObjKind::Global))
    } else {
        None
    };

    // Root state: the sentinel frame the VM pushes before the init chunk.
    let mut root = PathState {
        pc: module.init_entry(),
        steps: 0,
        stack: Vec::new(),
        slots: Vec::new(),
        frames: vec![AbsFrame { ret_pc: u32::MAX, base: 0, slot_base: 0, scope_mark: 0, arg_cursor: 0 }],
        scopes: vec![0],
        decls: Vec::new(),
        global_addrs: vec![0; module.globals().len()],
        contents: BTreeMap::new(),
        dead: FxHashSet::default(),
        backjumps: 0,
    };

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
            for (i, &b) in bytes.iter().enumerate() {
                root.contents.insert(base + i as u64, (1, AbsVal::Const(b as i64)));
            }
            root.contents.insert(base + bytes.len() as u64, (1, AbsVal::Const(0)));
            v.strings.insert(*id, base);
        }
    }

    // Phase 1: explore the init chunk; collect its terminal states.
    let mut max_steps = 0u64;
    let mut paths = 0u32;
    let init_terminals = explore(&mut v, root, &mut max_steps, &mut paths)?;

    // Phase 2: from every way init can finish, call the entry function with
    // the ABI pointers (contents unknown: the kernel writes them fresh each
    // invocation).
    for term in init_terminals {
        let mut st = term;
        st.stack.push(AbsVal::Ptr(ctx));
        st.stack.push(AbsVal::Ptr(state));
        if let Some(buf) = buf {
            st.stack.push(AbsVal::Ptr(buf));
        }
        st.pc = module.funcs()[entry_fidx as usize].entry;
        push_frame(module, &mut st, u32::MAX, 0, entry_fidx);
        explore(&mut v, st, &mut max_steps, &mut paths)?;
    }

    Ok(Proof { max_steps, paths, gas_used: VERIFY_GAS - v.gas })
}

/// Depth-first exploration from `seed` until every path terminates.
/// Returns the terminal states (for init-phase chaining); updates the
/// rolling `max_steps`/`paths` proof counters.
fn explore(
    v: &mut Verifier<'_>,
    seed: PathState,
    max_steps: &mut u64,
    paths: &mut u32,
) -> Result<Vec<PathState>, Rejection> {
    let mut work = vec![seed];
    let mut terminals = Vec::new();
    while let Some(mut st) = work.pop() {
        loop {
            if v.gas == 0 {
                return Err(v.reject(
                    st.pc,
                    None,
                    RejectRule::PathExplosion,
                    format!("verification gas exhausted after {VERIFY_GAS} abstract ops"),
                ));
            }
            v.gas -= 1;
            match step(v, &mut st)? {
                StepOutcome::Continue => {}
                StepOutcome::Terminal => {
                    *max_steps = (*max_steps).max(st.steps);
                    *paths += 1;
                    terminals.push(st);
                    break;
                }
                StepOutcome::Fork(other) => {
                    if work.len() + 1 > MAX_PATHS {
                        return Err(v.reject(
                            st.pc,
                            None,
                            RejectRule::PathExplosion,
                            format!("more than {MAX_PATHS} pending paths"),
                        ));
                    }
                    work.push(*other);
                }
            }
        }
    }
    Ok(terminals)
}

/// Execute one abstract op. Mirrors `Vm::exec`'s dispatch arm-for-arm.
fn step(v: &mut Verifier<'_>, st: &mut PathState) -> Result<StepOutcome, Rejection> {
    let module = v.module;
    let op_pc = st.pc;
    let op = &module.ops()[op_pc as usize];
    st.pc += 1;
    match *op {
        Op::Step(n) => {
            st.steps += n as u64;
            if st.steps > v.budget {
                let (rule, what) = if st.backjumps > 0 {
                    (RejectRule::UnboundedLoop, "loop trip count not bounded by budget")
                } else {
                    (RejectRule::BudgetExceeded, "straight-line cost exceeds budget")
                };
                return Err(v.reject(
                    op_pc,
                    Some(op),
                    rule,
                    format!("{what}: {} steps > budget {}", st.steps, v.budget),
                ));
            }
        }
        Op::PushInt(val) => st.stack.push(AbsVal::Const(val)),
        Op::PushLocalAddr(slot) => {
            let sb = st.frames.last().expect("frame").slot_base as usize;
            let base = st.slots[sb + slot as usize];
            st.stack.push(if base != 0 { AbsVal::Ptr(base) } else { AbsVal::Const(0) });
        }
        Op::PushGlobalAddr(g) => {
            st.stack.push(AbsVal::Ptr(st.global_addrs[g as usize]));
        }
        Op::LoadLocal { slot, access, .. } => {
            let sb = st.frames.last().expect("frame").slot_base as usize;
            let addr = st.slots[sb + slot as usize];
            v.check_access(st, op_pc, op, addr, access)?;
            st.stack.push(contents_load(st, addr, access));
        }
        Op::LoadGlobal { gidx, access, .. } => {
            let addr = st.global_addrs[gidx as usize];
            v.check_access(st, op_pc, op, addr, access)?;
            st.stack.push(contents_load(st, addr, access));
        }
        Op::LoadInd { access, .. } => {
            let ptr = st.stack.pop().expect("operand");
            let AbsVal::Ptr(addr) = ptr else {
                return Err(v.reject(
                    op_pc,
                    Some(op),
                    RejectRule::UnprovenPointer,
                    format!("load through {}", describe(ptr)),
                ));
            };
            v.check_access(st, op_pc, op, addr, access)?;
            st.stack.push(contents_load(st, addr, access));
        }
        Op::StoreInd { access, .. } => {
            let ptr = st.stack.pop().expect("operand");
            let val = *st.stack.last().expect("operand");
            let AbsVal::Ptr(addr) = ptr else {
                return Err(v.reject(
                    op_pc,
                    Some(op),
                    RejectRule::UnprovenPointer,
                    format!("store through {}", describe(ptr)),
                ));
            };
            v.check_access(st, op_pc, op, addr, access)?;
            contents_store(st, addr, access, val);
        }
        Op::StoreLocalKeep { slot, access, .. } => {
            let sb = st.frames.last().expect("frame").slot_base as usize;
            let addr = st.slots[sb + slot as usize];
            let val = *st.stack.last().expect("operand");
            v.check_access(st, op_pc, op, addr, access)?;
            contents_store(st, addr, access, val);
        }
        Op::StoreGlobalKeep { gidx, access, .. } => {
            let addr = st.global_addrs[gidx as usize];
            let val = *st.stack.last().expect("operand");
            v.check_access(st, op_pc, op, addr, access)?;
            contents_store(st, addr, access, val);
        }
        Op::StoreLocalPop { slot, access, .. } => {
            let sb = st.frames.last().expect("frame").slot_base as usize;
            let addr = st.slots[sb + slot as usize];
            let val = st.stack.pop().expect("operand");
            v.check_access(st, op_pc, op, addr, access)?;
            contents_store(st, addr, access, val);
        }
        Op::StoreGlobalPop { gidx, access, .. } => {
            let addr = st.global_addrs[gidx as usize];
            let val = st.stack.pop().expect("operand");
            v.check_access(st, op_pc, op, addr, access)?;
            contents_store(st, addr, access, val);
        }
        Op::StrLit { id, .. } => {
            st.stack.push(AbsVal::Ptr(v.strings[&id]));
        }
        Op::IndexAddr { elem_size, .. } => {
            let i = st.stack.pop().expect("operand");
            let base = st.stack.pop().expect("operand");
            st.stack.push(match (base, i) {
                (AbsVal::Ptr(b), AbsVal::Const(i)) => {
                    AbsVal::Ptr((b as i64).wrapping_add(i.wrapping_mul(elem_size as i64)) as u64)
                }
                (AbsVal::Const(b), AbsVal::Const(i)) => {
                    AbsVal::Const(b.wrapping_add(i.wrapping_mul(elem_size as i64)))
                }
                _ => AbsVal::Top,
            });
        }
        Op::PtrArith { scale, sub, .. } => {
            let r = st.stack.pop().expect("operand");
            let l = st.stack.pop().expect("operand");
            st.stack.push(arith_scaled(l, r, scale, sub));
        }
        Op::PtrArithRev { scale, .. } => {
            let r = st.stack.pop().expect("operand");
            let l = st.stack.pop().expect("operand");
            // new = r + l*scale: the pointer arrives on the left operand.
            st.stack.push(arith_scaled(r, l, scale, false));
        }
        Op::PtrDiff { scale } => {
            let r = st.stack.pop().expect("operand");
            let l = st.stack.pop().expect("operand");
            st.stack.push(match (l, r) {
                (AbsVal::Ptr(a), AbsVal::Ptr(b)) => {
                    let same = v.map.containing(a).map(|o| o.base)
                        == v.map.containing(b).map(|o| o.base);
                    if same && v.map.containing(a).is_some() {
                        AbsVal::Const((a.wrapping_sub(b) as i64) / scale as i64)
                    } else {
                        AbsVal::Top
                    }
                }
                (AbsVal::Const(a), AbsVal::Const(b)) => {
                    AbsVal::Const(a.wrapping_sub(b) / scale as i64)
                }
                _ => AbsVal::Top,
            });
        }
        Op::Bin { op: bop, .. } => {
            let r = st.stack.pop().expect("operand");
            let l = st.stack.pop().expect("operand");
            match abs_binop(v, &st.dead, bop, l, r) {
                BinResult::Val(x) => st.stack.push(x),
                // Constant division by zero: the concrete run stops here
                // with a clean DivByZero; the path's steps still bound it.
                BinResult::DivByZero => return Ok(StepOutcome::Terminal),
            }
        }
        Op::Neg => {
            let x = st.stack.pop().expect("operand");
            st.stack.push(match x {
                AbsVal::Const(c) => AbsVal::Const(c.wrapping_neg()),
                _ => AbsVal::Top,
            });
        }
        Op::NotOp => {
            let x = st.stack.pop().expect("operand");
            st.stack.push(match truth(v, x) {
                Some(t) => AbsVal::Const(!t as i64),
                None => AbsVal::Top,
            });
        }
        Op::NormBool => {
            let x = st.stack.pop().expect("operand");
            st.stack.push(match truth(v, x) {
                Some(t) => AbsVal::Const(t as i64),
                None => AbsVal::Top,
            });
        }
        Op::Jump(t) => {
            if t <= op_pc {
                st.backjumps += 1;
            }
            st.pc = t;
        }
        Op::JumpIfZero(t) => {
            let c = st.stack.pop().expect("operand");
            match truth(v, c) {
                Some(false) => {
                    if t <= op_pc {
                        st.backjumps += 1;
                    }
                    st.pc = t;
                }
                Some(true) => {}
                None => {
                    let mut taken = st.clone();
                    taken.pc = t;
                    if t <= op_pc {
                        taken.backjumps += 1;
                    }
                    return Ok(StepOutcome::Fork(Box::new(taken)));
                }
            }
        }
        Op::JumpIfNonZero(t) => {
            let c = st.stack.pop().expect("operand");
            match truth(v, c) {
                Some(true) => {
                    if t <= op_pc {
                        st.backjumps += 1;
                    }
                    st.pc = t;
                }
                Some(false) => {}
                None => {
                    let mut taken = st.clone();
                    taken.pc = t;
                    if t <= op_pc {
                        taken.backjumps += 1;
                    }
                    return Ok(StepOutcome::Fork(Box::new(taken)));
                }
            }
        }
        Op::Pop => {
            st.stack.pop().expect("operand");
        }
        Op::EnterScope => {
            st.scopes.push(st.decls.len() as u32);
        }
        Op::ExitScope => {
            let sb = st.frames.last().expect("frame").slot_base;
            exit_scope(st, sb);
        }
        Op::DeclLocal { slot, size } => {
            let base = v.alloc(size as usize, ObjKind::Stack);
            let sb = st.frames.last().expect("frame").slot_base as usize;
            st.slots[sb + slot as usize] = base;
            st.decls.push(slot);
        }
        Op::Param { slot, size, access } => {
            let f = st.frames.last_mut().expect("frame");
            let val = st.stack[f.base as usize + f.arg_cursor as usize];
            f.arg_cursor += 1;
            let base = v.alloc(size as usize, ObjKind::Stack);
            let sb = st.frames.last().expect("frame").slot_base as usize;
            st.slots[sb + slot as usize] = base;
            st.decls.push(slot);
            contents_store(st, base, access, val);
        }
        Op::PrintInt => {
            // Reachable only for event programs (scan_opcodes).
            debug_assert!(v.allow_print);
            st.stack.pop().expect("operand");
            st.stack.push(AbsVal::Const(0));
        }
        Op::CallFn { fidx, argc } => {
            if st.frames.len() >= MAX_CALL_DEPTH {
                // The VM stops with a clean Oom("call stack") here; for the
                // proof this is just another terminal.
                return Ok(StepOutcome::Terminal);
            }
            let f = &module.funcs()[fidx as usize];
            if f.n_params != argc {
                return Ok(StepOutcome::Terminal); // clean BadCall at runtime
            }
            let base = (st.stack.len() - argc as usize) as u32;
            let entry = f.entry;
            push_frame(module, st, st.pc, base, fidx);
            st.pc = entry;
        }
        Op::Ret => {
            let val = st.stack.pop().expect("operand");
            let f = st.frames.pop().expect("frame");
            while st.scopes.len() > f.scope_mark as usize {
                exit_scope(st, f.slot_base);
            }
            st.slots.truncate(f.slot_base as usize);
            st.stack.truncate(f.base as usize);
            if f.ret_pc == u32::MAX {
                return Ok(StepOutcome::Terminal);
            }
            st.stack.push(val);
            st.pc = f.ret_pc;
        }
        Op::AllocGlobal { gidx } => {
            let size = module.globals()[gidx as usize].size;
            let base = v.alloc(size, ObjKind::Global);
            st.global_addrs[gidx as usize] = base;
        }
        // Rejected by scan_opcodes before exploration starts.
        Op::Malloc | Op::Free { .. } | Op::CallHost { .. } | Op::Trap(_) => {
            unreachable!("forbidden opcode survived the scan: {}", op.mnemonic())
        }
    }
    Ok(StepOutcome::Continue)
}

fn describe(v: AbsVal) -> &'static str {
    match v {
        AbsVal::Top => "a value of unknown provenance",
        AbsVal::Const(_) => "an integer fabricated as a pointer",
        AbsVal::Ptr(_) => "a pointer",
    }
}

fn truth(v: &mut Verifier<'_>, x: AbsVal) -> Option<bool> {
    match x {
        AbsVal::Const(c) => Some(c != 0),
        // An in-bounds pointer maps to a nonzero arena address; a pointer
        // driven out of bounds by arithmetic could concretely be anything.
        AbsVal::Ptr(a) => v.map.containing(a).is_some().then_some(true),
        AbsVal::Top => None,
    }
}

/// `l ± r*scale` with pointer provenance preserved when the offset is
/// constant (the VM's PtrArith/IndexAddr arithmetic, wrapped identically).
fn arith_scaled(l: AbsVal, r: AbsVal, scale: u32, sub: bool) -> AbsVal {
    let scaled = |x: i64| {
        let d = x.wrapping_mul(scale as i64);
        if sub {
            d.wrapping_neg()
        } else {
            d
        }
    };
    match (l, r) {
        (AbsVal::Ptr(b), AbsVal::Const(x)) => AbsVal::Ptr((b as i64).wrapping_add(scaled(x)) as u64),
        (AbsVal::Const(b), AbsVal::Const(x)) => AbsVal::Const(b.wrapping_add(scaled(x))),
        _ => AbsVal::Top,
    }
}

enum BinResult {
    Val(AbsVal),
    DivByZero,
}

fn abs_binop(
    v: &mut Verifier<'_>,
    dead: &FxHashSet<u64>,
    op: BinOp,
    l: AbsVal,
    r: AbsVal,
) -> BinResult {
    use AbsVal::*;
    // Pointer comparisons within one object fold to exact offsets; the
    // synthetic layout matches the concrete one offset-for-offset. Folds
    // apply only to strictly in-bounds pointers: out-of-bounds arithmetic
    // could concretely land anywhere.
    if let (Ptr(a), Ptr(b)) = (l, r) {
        let oa = v.map.containing(a);
        let ob = v.map.containing(b);
        if let (Some(oa), Some(ob)) = (oa, ob) {
            if oa.base == ob.base && op.is_cmp() {
                return fold(op, a as i64, b as i64);
            }
            if oa.base != ob.base
                && matches!(op, BinOp::Eq | BinOp::Ne)
                && !dead.contains(&oa.base)
                && !dead.contains(&ob.base)
            {
                // In-bounds pointers into distinct live objects never
                // alias. (Dead objects excluded: the VM reuses their
                // arena addresses after scope exit.)
                return BinResult::Val(Const((op == BinOp::Ne) as i64));
            }
        }
        return BinResult::Val(Top);
    }
    // In-bounds pointers are non-null, so == 0 / != 0 fold.
    if let (Ptr(p), Const(0)) | (Const(0), Ptr(p)) = (l, r) {
        if matches!(op, BinOp::Eq | BinOp::Ne) && v.map.containing(p).is_some() {
            return BinResult::Val(Const((op == BinOp::Ne) as i64));
        }
    }
    let (Const(a), Const(b)) = (l, r) else {
        if matches!(op, BinOp::Div | BinOp::Rem) {
            if let Const(0) = r {
                return BinResult::DivByZero;
            }
        }
        return BinResult::Val(Top);
    };
    fold(op, a, b)
}

/// Constant folding through the engines' own integer rule.
fn fold(op: BinOp, a: i64, b: i64) -> BinResult {
    match op.eval(a, b) {
        Some(c) => BinResult::Val(AbsVal::Const(c)),
        None => BinResult::DivByZero,
    }
}
