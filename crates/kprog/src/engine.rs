//! Program loading: KC source → bytecode → verifier → cached proof.
//!
//! Verification is the expensive part of a load, so verified programs are
//! cached by their (spec, source) bytes in the same [`ksim::ByteCache`] as
//! Cosy's translation cache — re-attaching a program the kernel has seen
//! before skips parsing, compilation, and verification entirely and
//! reuses the same [`VerifiedProg`]. `load` has no caller pid, so every
//! program shares one owner's budget (256 programs, 1 MiB of key bytes,
//! CLOCK eviction past that). Rejections are *not* cached: the
//! `kprog.verify.reject` fault site can inject one per load attempt, and a
//! rejected program costs nothing to keep rejecting.

use std::fmt;
use std::sync::Arc;

use kclang::{compile, parse_program, typecheck, Module};
use ksim::{ByteCache, Machine};

use crate::verify::{reject_at, verify, Proof, Rejection, RejectRule};

/// Context block size: 4 i64 words every attach class shares.
pub const CTX_BYTES: usize = 32;
/// Number of i64 context words.
pub const CTX_WORDS: usize = CTX_BYTES / 8;
/// Persistent i64 state words carried across invocations.
pub const STATE_WORDS: usize = 8;

/// Where a program attaches — each class has its own ABI and opcode rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookClass {
    /// Syscall-entry filter: `int f(int *ctx, int *state)` with
    /// `ctx = [sysno, arg0, arg1, arg2]`. A negative return vetoes the
    /// call with that errno; otherwise the args are rewritten from
    /// `ctx[1..4]`. Program errors fail *closed* (call vetoed).
    SyscallEntry,
    /// kevents dispatch transform: `int f(int *ctx, int *state)` with
    /// `ctx = [obj, type_code, value, line]`. Return 0 drops the record;
    /// nonzero keeps it with `value := ctx[2]`. Errors fail *open*.
    EventDispatch,
    /// Per-CQE completion program: `int f(int *ctx, int *state, int *buf)`
    /// with `ctx = [user_data, res, off, len]` and `buf` a read-only copy
    /// of the completed operation's fixed-buffer data. Return 0 drops the
    /// CQE, 2 resubmits the op at `off := ctx[2]`, anything else posts the
    /// CQE with `user_data := ctx[0]`, `res := ctx[1]`. Errors fail
    /// *open* (the original CQE is posted).
    UringCqe,
}

impl HookClass {
    /// Entry-function arity for this class.
    pub fn arity(self) -> u16 {
        match self {
            HookClass::SyscallEntry | HookClass::EventDispatch => 2,
            HookClass::UringCqe => 3,
        }
    }

    fn tag(self) -> u8 {
        match self {
            HookClass::SyscallEntry => 1,
            HookClass::EventDispatch => 2,
            HookClass::UringCqe => 3,
        }
    }
}

impl fmt::Display for HookClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HookClass::SyscallEntry => "syscall-entry",
            HookClass::EventDispatch => "event-dispatch",
            HookClass::UringCqe => "uring-cqe",
        })
    }
}

/// Everything the loader needs to know besides the source text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgSpec {
    pub class: HookClass,
    /// Name of the entry function inside the source.
    pub entry: String,
    /// Step budget one invocation must provably stay within.
    pub budget: u64,
    /// Data-window bytes (UringCqe only; ignored elsewhere).
    pub buf_len: usize,
}

impl ProgSpec {
    pub fn new(class: HookClass, entry: &str) -> Self {
        ProgSpec {
            class,
            entry: entry.to_string(),
            budget: 4096,
            buf_len: 64,
        }
    }

    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    pub fn with_buf_len(mut self, n: usize) -> Self {
        self.buf_len = n;
        self
    }

    /// Stable byte encoding for the cache key.
    fn key_bytes(&self, src: &str) -> Vec<u8> {
        let mut k = Vec::with_capacity(src.len() + self.entry.len() + 32);
        k.push(self.class.tag());
        k.extend_from_slice(&self.budget.to_le_bytes());
        k.extend_from_slice(&(self.buf_len as u64).to_le_bytes());
        k.extend_from_slice(&(self.entry.len() as u32).to_le_bytes());
        k.extend_from_slice(self.entry.as_bytes());
        k.extend_from_slice(src.as_bytes());
        k
    }
}

/// A program that survived verification: its bytecode plus the proof that
/// makes it safe to run at an attach point.
pub struct VerifiedProg {
    spec: ProgSpec,
    module: Module,
    entry_fidx: u16,
    pub proof: Proof,
}

impl VerifiedProg {
    pub fn spec(&self) -> &ProgSpec {
        &self.spec
    }

    pub fn module(&self) -> &Module {
        &self.module
    }

    pub fn entry_fidx(&self) -> u16 {
        self.entry_fidx
    }
}

#[cfg(test)]
impl VerifiedProg {
    /// Compile `src` without verifying it, so runtime tests can run
    /// opcodes no attach class admits (`malloc`). The fuel bound is
    /// `max_steps` instead of a proof.
    pub(crate) fn unverified(src: &str, spec: ProgSpec, max_steps: u64) -> Arc<VerifiedProg> {
        let prog = parse_program(src).expect("parses");
        let info = typecheck(&prog).expect("typechecks");
        let module = compile(&prog, &info).expect("compiles");
        let entry_fidx = module.func_by_name(&spec.entry).expect("entry exists");
        let proof = Proof { max_steps, paths: 0, gas_used: 0 };
        Arc::new(VerifiedProg { spec, module, entry_fidx, proof })
    }
}

impl fmt::Debug for VerifiedProg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerifiedProg")
            .field("class", &self.spec.class)
            .field("entry", &self.spec.entry)
            .field("proof", &self.proof)
            .finish()
    }
}

/// Why a load failed.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// Source failed to parse.
    Parse(String),
    /// Source failed to typecheck.
    Type(String),
    /// Bytecode compilation failed.
    Compile(String),
    /// The verifier's structured verdict.
    Rejected(Rejection),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "parse error: {e}"),
            LoadError::Type(e) => write!(f, "type error: {e}"),
            LoadError::Compile(e) => write!(f, "compile error: {e}"),
            LoadError::Rejected(r) => write!(f, "rejected by verifier: {r}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The [`ByteCache`] owner every loaded program is charged to.
const PROG_OWNER: u64 = 0;

/// The program loader + verification cache.
pub struct ProgEngine {
    machine: Arc<Machine>,
    cache: ByteCache<Arc<VerifiedProg>>,
}

impl ProgEngine {
    pub fn new(machine: Arc<Machine>) -> Self {
        ProgEngine { machine, cache: ByteCache::new() }
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Cache statistics (hits mean verification was skipped).
    pub fn cache_stats(&self) -> ksim::ByteCacheStats {
        self.cache.stats()
    }

    /// Load (or re-load) a program: parse, typecheck, compile, verify —
    /// or skip all of that on a (spec, source) cache hit.
    pub fn load(&self, src: &str, spec: &ProgSpec) -> Result<Arc<VerifiedProg>, LoadError> {
        if self.machine.faults.should_fail(kfault::sites::KPROG_VERIFY_REJECT) {
            let detail = "rejection injected by the fault plane".into();
            return Err(LoadError::Rejected(reject_at(0, RejectRule::Injected, detail)));
        }
        let key = spec.key_bytes(src);
        if let Some(hit) = self.cache.lookup(&key) {
            return Ok(hit.value().clone());
        }
        let prog = parse_program(src).map_err(|e| LoadError::Parse(e.to_string()))?;
        let info = typecheck(&prog).map_err(|e| LoadError::Type(e.to_string()))?;
        let module = compile(&prog, &info).map_err(|e| LoadError::Compile(e.to_string()))?;
        let proof = verify(&module, spec).map_err(LoadError::Rejected)?;
        let entry_fidx = module.func_by_name(&spec.entry).expect("verified entry exists");
        let vp = Arc::new(VerifiedProg { spec: spec.clone(), module, entry_fidx, proof });
        let entry = self.cache.insert(PROG_OWNER, key, vp);
        Ok(entry.value().clone())
    }
}
