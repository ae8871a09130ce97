//! `kprog` — verified in-kernel bytecode programs.
//!
//! The paper's mechanisms (Cosy compounds, SFIP filters, event monitors)
//! all move user logic into the kernel and then contain it at *runtime*:
//! segment limits, bounds-check instrumentation, a watchdog. This crate
//! adds the complementary design point the kernel community converged on
//! with eBPF: **prove the program safe at load time**, then run it with no
//! runtime containment at all.
//!
//! Three pieces:
//!
//! * [`verify`](mod@verify) — kclang's VM step run over abstract values,
//!   proving every memory access lands in an object the program owns (tracked via
//!   the KGCC [`kgcc::ObjectMap`]) and deriving a hard step bound
//!   (`Proof::max_steps`), rejecting programs whose loops cannot be
//!   bounded under the declared budget. Rejections are structured
//!   verdicts: instruction, mnemonic, rule ([`Rejection`]).
//! * [`engine`] — the loader: KC source → bytecode → verifier, with
//!   verified programs cached by content hash (Cosy translation-cache
//!   style) so re-attaching skips verification.
//! * [`attach`] — the runtime: each attachment gets a dedicated address
//!   space (defence in depth) and runs under the proved fuel bound, with
//!   explicit simulated cycle charges.
//!
//! Attach points live in their host crates: syscall-entry filters and
//! per-CQE completion programs in `ksyscall`, dispatch transforms in
//! `kevents` (via [`EventProgram`]).

pub mod attach;
pub mod engine;
pub mod event;
pub mod registry;
pub mod verify;

pub use attach::{AttachStats, Attachment, ProgError, MAX_RESUBMIT_OFF};
pub use engine::{
    HookClass, LoadError, ProgEngine, ProgSpec, VerifiedProg, CTX_BYTES, CTX_WORDS,
};
pub use event::EventProgram;
pub use registry::ProgRegistry;
pub use verify::{verify, Proof, RejectRule, Rejection, MAX_BUDGET};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ksim::{Machine, MachineConfig};

    fn engine() -> ProgEngine {
        ProgEngine::new(Arc::new(Machine::new(MachineConfig::default())))
    }

    fn spec(class: HookClass) -> ProgSpec {
        ProgSpec::new(class, "f")
    }

    const OK_FILTER: &str = r#"
        int f(int *ctx, int *state) {
            state[0] = state[0] + 1;
            if (ctx[0] == 7) { return -13; }
            return 0;
        }
    "#;

    #[test]
    fn accepts_a_straight_line_filter() {
        let e = engine();
        let p = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
        assert!(p.proof.max_steps > 0);
        assert!(p.proof.max_steps <= 4096);
        assert!(p.proof.paths >= 2, "both branches explored");
    }

    #[test]
    fn accepts_counted_loops_and_proves_their_cost() {
        let e = engine();
        let src = r#"
            int f(int *ctx, int *state) {
                int i;
                int acc = 0;
                for (i = 0; i < 10; i = i + 1) { acc = acc + i; }
                return acc;
            }
        "#;
        let p = e.load(src, &spec(HookClass::SyscallEntry)).unwrap();
        assert!(p.proof.max_steps > 30, "loop cost counted: {:?}", p.proof);
    }

    #[test]
    fn rejects_unbounded_loops_with_a_structured_verdict() {
        let e = engine();
        let src = r#"
            int f(int *ctx, int *state) {
                while (ctx[0] != 0) { state[0] = state[0] + 1; }
                return 0;
            }
        "#;
        let err = e.load(src, &spec(HookClass::SyscallEntry)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        assert_eq!(r.rule, RejectRule::UnboundedLoop, "{r}");
        assert_eq!(r.mnemonic, "step");
    }

    #[test]
    fn rejects_out_of_bounds_accesses_at_load_time() {
        let e = engine();
        // ctx has 4 words; index 4 is one past the end.
        let src = "int f(int *ctx, int *state) { return ctx[4]; }";
        let err = e.load(src, &spec(HookClass::SyscallEntry)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        assert_eq!(r.rule, RejectRule::OutOfBounds, "{r}");
        assert_eq!(r.mnemonic, "load_ind");
    }

    #[test]
    fn rejects_fabricated_pointers() {
        let e = engine();
        let src = "int f(int *ctx, int *state) { int *p = 4096; return *p; }";
        let err = e.load(src, &spec(HookClass::SyscallEntry)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        assert_eq!(r.rule, RejectRule::UnprovenPointer, "{r}");
    }

    #[test]
    fn rejects_forbidden_opcodes_per_class() {
        let e = engine();
        let src = "int f(int *ctx, int *state) { int *p = malloc(8); return 0; }";
        let err = e.load(src, &spec(HookClass::SyscallEntry)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        assert_eq!(r.rule, RejectRule::OpcodeForbidden, "{r}");

        // print_int: forbidden for filters, permitted for event programs.
        let src = "int f(int *ctx, int *state) { print_int(ctx[0]); return 1; }";
        let err = e.load(src, &spec(HookClass::SyscallEntry)).unwrap_err();
        assert!(matches!(err, LoadError::Rejected(r) if r.rule == RejectRule::OpcodeForbidden));
        e.load(src, &spec(HookClass::EventDispatch)).unwrap();
    }

    #[test]
    fn rejects_wrong_arity_for_the_class() {
        let e = engine();
        let src = "int f(int *ctx, int *state) { return 0; }";
        let err = e.load(src, &spec(HookClass::UringCqe)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        assert_eq!(r.rule, RejectRule::BadSignature, "{r}");
    }

    #[test]
    fn budget_rejection_reports_straight_line_vs_loop() {
        let e = engine();
        let src = r#"
            int f(int *ctx, int *state) {
                int i;
                int acc = 0;
                for (i = 0; i < 1000; i = i + 1) { acc = acc + i; }
                return acc;
            }
        "#;
        let err = e.load(src, &spec(HookClass::SyscallEntry).with_budget(50)).unwrap_err();
        let LoadError::Rejected(r) = err else { panic!("expected rejection, got {err:?}") };
        // The loop is counted but its unrolled cost exceeds the budget
        // while a back edge is live: verdict names the loop.
        assert_eq!(r.rule, RejectRule::UnboundedLoop, "{r}");
    }

    #[test]
    fn cache_hit_skips_verification() {
        let e = engine();
        let s = spec(HookClass::SyscallEntry);
        let p1 = e.load(OK_FILTER, &s).unwrap();
        let p2 = e.load(OK_FILTER, &s).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "same verified program object");
        let stats = e.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different spec is a different program.
        e.load(OK_FILTER, &s.clone().with_budget(100)).unwrap();
        assert_eq!(e.cache_stats().misses, 2);
    }

    #[test]
    fn attachment_runs_and_keeps_state() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        let p = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Attachment::new(m, p).unwrap();
        let mut ctx = [1i64, 0, 0, 0];
        assert_eq!(att.run(&mut ctx, None).unwrap(), 0);
        let mut ctx = [7i64, 0, 0, 0];
        assert_eq!(att.run(&mut ctx, None).unwrap(), -13);
        assert_eq!(att.state()[0], 2, "state persists across invocations");
        assert_eq!(att.stats().invocations, 2);
        assert_eq!(att.stats().errors, 0);
    }

    #[test]
    fn attachment_charges_simulated_cycles() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        let p = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Attachment::new(m.clone(), p).unwrap();
        let sys0 = m.clock.sys_cycles();
        att.run(&mut [0, 0, 0, 0], None).unwrap();
        let spent = m.clock.sys_cycles() - sys0;
        assert!(
            spent >= m.cost.kprog_invoke + 2 * m.cost.copy_cost(CTX_BYTES),
            "dispatch + ctx copies are charged, got {spent}"
        );
    }

    #[test]
    fn runtime_steps_never_exceed_the_proof() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        // A data-dependent branch inside a loop forks a path per iteration,
        // so keep the trip count small; large loops should be written
        // branchless (see below).
        let src = r#"
            int f(int *ctx, int *state) {
                int i;
                int n = 0;
                for (i = 0; i < 8; i = i + 1) {
                    if (ctx[0] > i) { n = n + 2; } else { n = n + 1; }
                }
                return n;
            }
        "#;
        let p = e.load(src, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Attachment::new(m.clone(), p).unwrap();
        // The fuel limit *is* proof.max_steps; if the proof under-counted
        // any path, one of these runs would Err(Budget).
        for a in [-5i64, 0, 1, 3, 7, 8, 1000] {
            att.run(&mut [a, 0, 0, 0], None).unwrap();
        }
        assert_eq!(att.stats().budget_trips, 0);

        // Branchless form of the same predicate: comparisons fold into
        // arithmetic without forking, so 64 iterations verify in one path.
        let src = r#"
            int f(int *ctx, int *state) {
                int i;
                int n = 0;
                for (i = 0; i < 64; i = i + 1) {
                    n = n + 1 + (ctx[0] > i);
                }
                return n;
            }
        "#;
        let e2 = ProgEngine::new(m.clone());
        let p = e2
            .load(src, &spec(HookClass::SyscallEntry).with_budget(2048))
            .unwrap();
        let att = Attachment::new(m, p).unwrap();
        assert_eq!(att.run(&mut [1000, 0, 0, 0], None).unwrap(), 128);
        assert_eq!(att.stats().budget_trips, 0);
    }

    #[test]
    fn injected_budget_exhaustion_is_a_clean_error() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        let p = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Attachment::new(m.clone(), p).unwrap();
        m.faults.arm(1);
        m.faults.add_policy(Some("kprog.budget"), kfault::Policy::FailNth(1));
        let err = att.run(&mut [0, 0, 0, 0], None).unwrap_err();
        assert!(matches!(err, ProgError::Budget { .. }));
        assert_eq!(att.stats().budget_trips, 1);
        assert_eq!(att.stats().errors, 1, "counted like a real fuel overrun");
        m.faults.disarm();
        att.run(&mut [0, 0, 0, 0], None).unwrap();
        assert_eq!(att.stats().errors, 1);
    }

    #[test]
    fn injected_verify_rejection_surfaces_and_does_not_poison_cache() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        m.faults.arm(1);
        m.faults.add_policy(Some("kprog.verify"), kfault::Policy::FailNth(1));
        let err = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap_err();
        assert!(matches!(err, LoadError::Rejected(r) if r.rule == RejectRule::Injected));
        m.faults.disarm();
        e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
    }

    #[test]
    fn event_program_filters_and_rewrites_dispatch() {
        use kevents::{EventDispatcher, EventRecord, EventRing, EventType};
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        // Keep only RefInc (code 2) events, doubling their value.
        let src = r#"
            int f(int *ctx, int *state) {
                if (ctx[1] != 2) { return 0; }
                ctx[2] = ctx[2] * 2;
                return 1;
            }
        "#;
        let p = e.load(src, &spec(HookClass::EventDispatch)).unwrap();
        let att = Arc::new(Attachment::new(m.clone(), p).unwrap());
        let d = EventDispatcher::new(m);
        let ring = Arc::new(EventRing::with_capacity(16));
        d.attach_ring(ring.clone());
        d.attach_transform(Arc::new(EventProgram::new(att)));
        d.log_event(EventRecord::new(1, EventType::LockAcquire, "t", 1, 5));
        d.log_event(EventRecord::new(2, EventType::RefInc, "t", 2, 21));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop().unwrap().value, 42);
        assert_eq!(d.dropped_by_transform(), 1);
    }

    #[test]
    fn string_literals_verify_and_run() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        let src = r#"
            int len(char *s) {
                int n = 0;
                while (s[n] != '\0') { n = n + 1; }
                return n;
            }
            int f(int *ctx, int *state) { return len("kprog"); }
        "#;
        let p = e.load(src, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Attachment::new(m, p).unwrap();
        assert_eq!(att.run(&mut [0, 0, 0, 0], None).unwrap(), 5);
    }

    #[test]
    fn cqe_programs_see_the_data_window() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        // Sum the first (len/8 capped at 4) words of the window.
        let src = r#"
            int f(int *ctx, int *state, int *buf) {
                state[0] = state[0] + buf[0] + buf[1];
                return 1;
            }
        "#;
        let s = spec(HookClass::UringCqe).with_buf_len(64);
        let p = e.load(src, &s).unwrap();
        let att = Attachment::new(m, p).unwrap();
        let mut window = [0u8; 64];
        window[..8].copy_from_slice(&11i64.to_le_bytes());
        window[8..16].copy_from_slice(&31i64.to_le_bytes());
        att.run(&mut [0, 64, 0, 0], Some(&window)).unwrap();
        assert_eq!(att.state()[0], 42);
    }

    #[test]
    fn registry_fast_path_and_class_guard() {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let e = ProgEngine::new(m.clone());
        let reg = ProgRegistry::new();
        assert!(!reg.has_syscall_filters());
        assert!(reg.syscall_filter(1).is_none());
        let p = e.load(OK_FILTER, &spec(HookClass::SyscallEntry)).unwrap();
        let att = Arc::new(Attachment::new(m, p).unwrap());
        reg.attach_cqe(1, att.clone()).unwrap_err();
        reg.attach_syscall(1, att.clone()).unwrap();
        assert!(reg.has_syscall_filters());
        assert!(Arc::ptr_eq(&reg.syscall_filter(1).unwrap(), &att));
        assert!(reg.syscall_filter(2).is_none());
        reg.detach_syscall(1).unwrap();
        assert!(!reg.has_syscall_filters());
    }
}
