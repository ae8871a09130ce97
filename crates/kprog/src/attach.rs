//! The attach-point runtime: one [`Attachment`] per installed program.
//!
//! Defence in depth: even though the verifier proves memory safety, the
//! program runs in a **dedicated address space** containing only its own
//! pages (context block, persistent state, data window, VM arena). A
//! verifier bug therefore cannot leak kernel or user memory — the worst a
//! mis-verified program could do is fault cleanly in its own sandbox.
//!
//! Invocation cost is explicit and simulated: a fixed `kprog_invoke`
//! dispatch charge, copy charges for the context block and data window,
//! and the VM's per-step cycles (charged as system time — the program *is*
//! kernel code now). The proved `max_steps` is installed as the VM fuel
//! limit: the budget is a guarantee, not a watchdog.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use kclang::{ExecConfig, ExecOutcome, InterpError, SegMode, Vm, VmBuffers};
use ksim::{AsId, Machine, PteFlags, SimError, PAGE_SIZE};
use parking_lot::Mutex;

use crate::engine::{HookClass, VerifiedProg, CTX_BYTES, CTX_WORDS, STATE_WORDS};

/// Guest-virtual base of the attachment's private region.
const REGION_BASE: u64 = 0x6100_0000;
/// VM arena pages (64 KiB: locals, call frames, string literals).
const ARENA_PAGES: usize = 16;
const _: () = assert!(CTX_BYTES + STATE_WORDS * 8 <= PAGE_SIZE, "state must fit the header page");

/// Cap on how far a CQE program may point a resubmitted read (keeps a
/// buggy-but-verified program from walking a file forever).
pub const MAX_RESUBMIT_OFF: u64 = 65_536;

/// Errors surfaced by one invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgError {
    /// Step budget exhausted (proved bound hit, or injected via the
    /// `kprog.budget.exhausted` fault site).
    Budget { steps: u64 },
    /// The program stopped with a clean runtime error (div-by-zero, arena
    /// OOM, ...). Attach points treat this per their fail-open/closed
    /// policy.
    Exec(InterpError),
    /// Simulated-machine memory error while moving data in or out.
    Mem(SimError),
}

impl std::fmt::Display for ProgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgError::Budget { steps } => write!(f, "step budget exhausted after {steps}"),
            ProgError::Exec(e) => write!(f, "program error: {e}"),
            ProgError::Mem(e) => write!(f, "memory error: {e}"),
        }
    }
}

impl From<SimError> for ProgError {
    fn from(e: SimError) -> Self {
        ProgError::Mem(e)
    }
}

ksim::counters! {
    /// Live per-attachment invocation counters.
    struct AttachCounters => pub struct AttachStats {
        invocations,
        errors,
        budget_trips,
    }
}

/// An installed program: its private address space plus counters.
pub struct Attachment {
    machine: Arc<Machine>,
    prog: Arc<VerifiedProg>,
    asid: AsId,
    ctx_addr: u64,
    state_addr: u64,
    buf_addr: u64,
    arena_base: u64,
    arena_len: usize,
    /// Serialises invocations (one VM run at a time per attachment) and
    /// holds the VM's execution buffers between them.
    vm_bufs: Mutex<VmBuffers>,
    counters: AttachCounters,
}

impl Attachment {
    /// Build the sandbox for `prog`: a fresh address space with the header
    /// page (ctx + state), the data window, and the VM arena mapped.
    pub fn new(machine: Arc<Machine>, prog: Arc<VerifiedProg>) -> Result<Self, ProgError> {
        let spec = prog.spec();
        let asid = machine.mem.create_space();
        let ctx_addr = REGION_BASE;
        let state_addr = REGION_BASE + CTX_BYTES as u64;
        let buf_addr = REGION_BASE + PAGE_SIZE as u64;
        let buf_pages = spec.buf_len.max(1).div_ceil(PAGE_SIZE);
        let arena_base = buf_addr + (buf_pages * PAGE_SIZE) as u64;
        let arena_len = ARENA_PAGES * PAGE_SIZE;
        let total_pages = 1 + buf_pages + ARENA_PAGES;
        // Built before mapping, so a failed map drops it and `Drop` frees
        // the pages mapped so far.
        let att = Attachment {
            machine,
            prog,
            asid,
            ctx_addr,
            state_addr,
            buf_addr,
            arena_base,
            arena_len,
            vm_bufs: Mutex::new(VmBuffers::default()),
            counters: AttachCounters::default(),
        };
        for i in 0..total_pages {
            att.machine.mem.map_anon(asid, REGION_BASE + (i * PAGE_SIZE) as u64, PteFlags::rw())?;
        }
        Ok(att)
    }

    pub fn prog(&self) -> &Arc<VerifiedProg> {
        &self.prog
    }

    pub fn class(&self) -> HookClass {
        self.prog.spec().class
    }

    pub fn stats(&self) -> AttachStats {
        self.counters.snapshot()
    }

    /// Read the persistent state words out of the sandbox.
    pub fn state(&self) -> Vec<i64> {
        let n = STATE_WORDS;
        let mut bytes = vec![0u8; n * 8];
        self.machine
            .mem
            .read_virt(self.asid, self.state_addr, &mut bytes)
            .expect("state page is mapped");
        bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Overwrite the persistent state words (attach-time seeding).
    pub fn set_state(&self, vals: &[i64]) {
        let n = STATE_WORDS.min(vals.len());
        let mut bytes = Vec::with_capacity(n * 8);
        for v in &vals[..n] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.machine
            .mem
            .write_virt(self.asid, self.state_addr, &bytes)
            .expect("state page is mapped");
    }

    /// Run one invocation: marshal `ctx` (and optionally a data window)
    /// into the sandbox, execute the entry function under the proved fuel
    /// bound, and marshal `ctx` back out. Returns the program's value.
    pub fn run(&self, ctx: &mut [i64; CTX_WORDS], buf: Option<&[u8]>) -> Result<i64, ProgError> {
        self.run_outcome(ctx, buf).map(|out| out.ret)
    }

    /// [`Attachment::run`], keeping the VM's step count.
    fn run_outcome(
        &self,
        ctx: &mut [i64; CTX_WORDS],
        buf: Option<&[u8]>,
    ) -> Result<ExecOutcome, ProgError> {
        let mut bufs = self.vm_bufs.lock();
        // The VM runs in the attachment's buffers; only their capacity
        // outlives the invocation.
        self.invoke(ctx, buf, |cfg, args| {
            let module = self.prog.module();
            let mut vm = Vm::with_buffers(
                &self.machine,
                module,
                cfg,
                self.arena_base,
                self.arena_len,
                &mut bufs,
            )?;
            let out = vm.run_func(self.prog.entry_fidx(), args);
            *bufs = vm.into_buffers();
            out
        })
    }

    /// One invocation around `exec`, which builds a VM from the given
    /// config and runs the entry function on the given arguments. Callers
    /// hold `vm_bufs`.
    fn invoke(
        &self,
        ctx: &mut [i64; CTX_WORDS],
        buf: Option<&[u8]>,
        exec: impl FnOnce(ExecConfig, &[i64]) -> Result<ExecOutcome, InterpError>,
    ) -> Result<ExecOutcome, ProgError> {
        self.counters.invocations.fetch_add(1, Relaxed);
        let m = &self.machine;
        if m.faults.should_fail(kfault::sites::KPROG_BUDGET_EXHAUSTED) {
            self.counters.budget_trips.fetch_add(1, Relaxed);
            self.counters.errors.fetch_add(1, Relaxed);
            return Err(ProgError::Budget { steps: self.prog.proof.max_steps });
        }
        m.charge_sys(m.cost.kprog_invoke);

        // Context in.
        let mut bytes = [0u8; CTX_BYTES];
        for (i, v) in ctx.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
        m.charge_sys(m.cost.copy_cost(CTX_BYTES));
        m.mem.write_virt(self.asid, self.ctx_addr, &bytes)?;

        // Data window in (CQE programs).
        if let Some(data) = buf {
            let n = data.len().min(self.prog.spec().buf_len);
            m.charge_sys(m.cost.copy_cost(n));
            m.mem.write_virt(self.asid, self.buf_addr, &data[..n])?;
        }

        // Fresh VM per invocation: globals re-initialise from the init
        // chunk (covered by the proof), persistent state lives in the
        // state words, not in VM globals.
        let cfg = ExecConfig {
            asid: self.asid,
            seg: SegMode::Flat,
            charge_sys: true,
            max_steps: Some(self.prog.proof.max_steps),
        };
        let argbuf = [self.ctx_addr as i64, self.state_addr as i64, self.buf_addr as i64];
        let argc = if self.class() == HookClass::UringCqe { 3 } else { 2 };

        match exec(cfg, &argbuf[..argc]) {
            Ok(out) => {
                // Context out (the program's rewrite surface).
                m.charge_sys(m.cost.copy_cost(CTX_BYTES));
                let mut back = [0u8; CTX_BYTES];
                m.mem.read_virt(self.asid, self.ctx_addr, &mut back)?;
                for (i, v) in ctx.iter_mut().enumerate() {
                    *v = i64::from_le_bytes(back[i * 8..(i + 1) * 8].try_into().unwrap());
                }
                Ok(out)
            }
            Err(InterpError::Timeout { steps }) => {
                self.counters.budget_trips.fetch_add(1, Relaxed);
                self.counters.errors.fetch_add(1, Relaxed);
                Err(ProgError::Budget { steps })
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Relaxed);
                Err(ProgError::Exec(e))
            }
        }
    }
}

impl std::fmt::Debug for Attachment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Attachment")
            .field("class", &self.class())
            .field("entry", &self.prog.spec().entry)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Tearing down the sandbox frees its frames and shoots down only its own
/// TLB entries; like the rest of detach, it charges nothing.
impl Drop for Attachment {
    fn drop(&mut self) {
        // The space is this attachment's alone, so this cannot fail; a
        // panic in `drop` could abort an unwinding thread, so an error is
        // ignored rather than unwrapped.
        let _ = self.machine.mem.destroy_space_local(self.asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ProgEngine, ProgSpec};
    use ksim::MachineConfig;

    /// The reference invocation: the same marshalling as
    /// [`Attachment::run`], on a VM built by `Vm::new` from nothing.
    fn run_fresh(
        att: &Attachment,
        ctx: &mut [i64; CTX_WORDS],
        buf: Option<&[u8]>,
    ) -> Result<ExecOutcome, ProgError> {
        let _serial = att.vm_bufs.lock();
        att.invoke(ctx, buf, |cfg, args| {
            let module = att.prog.module();
            let mut vm = Vm::new(&att.machine, module, cfg, att.arena_base, att.arena_len)?;
            vm.run(&att.prog.spec().entry, args)
        })
    }

    /// What one invocation leaves behind, for comparison.
    #[derive(Debug, PartialEq)]
    struct Observed {
        result: Result<(i64, u64), ProgError>,
        sys_cycles: u64,
        ctx: [i64; CTX_WORDS],
        state: Vec<i64>,
    }

    fn observe(
        att: &Attachment,
        mut ctx: [i64; CTX_WORDS],
        buf: Option<&[u8]>,
        fresh: bool,
    ) -> Observed {
        let sys0 = att.machine.clock.sys_cycles();
        let out = if fresh { run_fresh(att, &mut ctx, buf) } else { att.run_outcome(&mut ctx, buf) };
        let sys_cycles = att.machine.clock.sys_cycles() - sys0;
        Observed {
            result: out.map(|o| (o.ret, o.steps)),
            sys_cycles,
            ctx,
            state: att.state(),
        }
    }

    /// Drive twin machines through the same invocations: one attachment
    /// reusing its VM buffers, the other building a fresh VM every time.
    /// `ctx[3] == -1` injects a budget trip into that invocation.
    fn assert_reuse_parity(
        make: impl Fn(&Arc<Machine>) -> Arc<VerifiedProg>,
        calls: &[[i64; CTX_WORDS]],
        buf: Option<&[u8]>,
    ) -> Vec<Observed> {
        let twins: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::new(Machine::new(MachineConfig::default()));
                let att = Attachment::new(m.clone(), make(&m)).unwrap();
                (m, att)
            })
            .collect();
        let mut seen = Vec::new();
        for (i, &ctx) in calls.iter().enumerate() {
            let inject = ctx[3] == -1;
            let obs: Vec<Observed> = twins
                .iter()
                .enumerate()
                .map(|(t, (m, att))| {
                    if inject {
                        m.faults.arm(1);
                        m.faults.add_policy(Some("kprog.budget"), kfault::Policy::FailNth(1));
                    }
                    let o = observe(att, ctx, buf, t == 1);
                    m.faults.disarm();
                    o
                })
                .collect();
            assert_eq!(obs[0], obs[1], "invocation {i} ({ctx:?}) diverged from a fresh VM");
            seen.push(obs.into_iter().next().unwrap());
        }
        assert_eq!(twins[0].1.stats(), twins[1].1.stats());
        seen
    }

    /// A string literal, a heap object and nested frames are all live
    /// when the division traps (`ctx[2] == 0`).
    const HEAP_SRC: &str = r#"
        int depth(int n, int d) {
            if (n == 0) { return 100 / d; }
            return depth(n - 1, d) + 1;
        }
        int f(int *ctx, int *state) {
            char *msg = "kprog";
            int c = msg[1];
            int *p = malloc(16);
            p[0] = ctx[0];
            p[1] = c;
            state[0] = state[0] + p[0] + p[1];
            ctx[1] = depth(3, ctx[2]);
            free(p);
            return state[0];
        }
    "#;

    /// The verified counterpart: a string literal and a trapping
    /// division, no heap.
    const VERIFIED_SRC: &str = r#"
        int len(char *s) {
            int n = 0;
            while (s[n] != '\0') { n = n + 1; }
            return n;
        }
        int f(int *ctx, int *state, int *buf) {
            state[0] = state[0] + len("kprog") + buf[0];
            ctx[1] = 100 / ctx[2];
            return state[0] + ctx[0];
        }
    "#;

    /// Clean, then a mid-body trap, then clean, then an injected budget
    /// trip, then clean again, twice over.
    const CALLS: [[i64; CTX_WORDS]; 12] = [
        [1, 0, 5, 0],
        [2, 0, 7, 0],
        [3, 0, 0, 0],
        [4, 0, 9, 0],
        [5, 0, 3, -1],
        [6, 0, 2, 0],
        [7, 0, 0, 0],
        [8, 0, 0, 0],
        [9, 0, 1, 0],
        [10, 0, 4, -1],
        [11, 0, 6, 0],
        [12, 0, 8, 0],
    ];

    #[test]
    fn reused_buffers_match_a_fresh_vm_with_heap_and_traps() {
        let spec = ProgSpec::new(HookClass::SyscallEntry, "f");
        let seen = assert_reuse_parity(
            |_| VerifiedProg::unverified(HEAP_SRC, spec.clone(), 4096),
            &CALLS,
            None,
        );
        assert!(matches!(seen[2].result, Err(ProgError::Exec(InterpError::DivByZero(_)))));
        assert!(matches!(seen[4].result, Err(ProgError::Budget { .. })));
        assert_eq!(seen[3].result.as_ref().unwrap().0, 1 + 2 + 3 + 4 + 4 * 112);
        assert_eq!(seen[3].ctx[1], 100 / 9 + 3, "depth(3, 9)");
    }

    #[test]
    fn reused_buffers_match_a_fresh_vm_for_a_verified_cqe_program() {
        let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(16);
        let mut window = [0u8; 16];
        window[..8].copy_from_slice(&10i64.to_le_bytes());
        let seen = assert_reuse_parity(
            |m| ProgEngine::new(m.clone()).load(VERIFIED_SRC, &spec).unwrap(),
            &CALLS,
            Some(&window),
        );
        assert!(matches!(seen[6].result, Err(ProgError::Exec(InterpError::DivByZero(_)))));
        assert!(matches!(seen[9].result, Err(ProgError::Budget { .. })));
        assert_eq!(seen[1].result.as_ref().unwrap().0, 2 * 15 + 2);
    }
}
