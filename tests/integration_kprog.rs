//! Integration: the kprog verifier and attach runtime across crates —
//! verifier soundness over randomized programs (accepted programs never
//! trip the runtime fuel bound or touch memory out of bounds; programs
//! with provably-bad accesses are rejected at load time with structured
//! verdicts), proof tightness under budget shrinking, verification-cache
//! determinism, and the pointer-chase workload agreeing with ground truth
//! end to end over both memfs and the journaled fs.

use std::sync::Arc;

use kucode::kprog::{LoadError, MAX_BUDGET};
use kucode::ksim::{Machine, MachineConfig};
use kucode::kworkloads::CHASE_CQE_SRC;
use kucode::prelude::*;
use proptest::prelude::*;

fn machine() -> Arc<Machine> {
    Arc::new(Machine::new(MachineConfig::default()))
}

/// Default sandbox shape used throughout: 4 ctx words, 8 state words.
const CTX_WORDS: usize = 4;
const STATE_WORDS: usize = 8;

/// A structured random filter: a counted loop accumulating through a
/// ctx/state slot pair, with an optional data-dependent tail branch. The
/// slot indices may be out of bounds on purpose — the verifier must sort
/// accepted from rejected purely from the indices.
fn gen_src(ci: usize, si: usize, n: u64, op: usize, c0: i64, tail_branch: bool) -> String {
    let op = ["+", "-"][op % 2];
    let tail = if tail_branch {
        format!("if (acc > {c0}) {{ return 1; }} return 0;")
    } else {
        "return acc;".to_string()
    };
    format!(
        "int f(int *ctx, int *state) {{
            int i;
            int acc = {c0};
            for (i = 0; i < {n}; i = i + 1) {{
                acc = acc {op} ctx[{ci}];
                state[{si}] = state[{si}] + 1;
            }}
            {tail}
        }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness both ways: an out-of-bounds slot index is rejected at
    /// load time with the OutOfBounds rule; an in-bounds program loads,
    /// attaches, and runs to completion without ever hitting the fuel
    /// bound the proof promised (the VM timeout fires strictly above
    /// `proof.max_steps`, so a Budget error here would falsify the proof).
    #[test]
    fn verifier_soundness_over_random_counted_loops(
        ci in 0usize..6,
        si in 0usize..10,
        n in 0u64..48,
        op in 0usize..2,
        c0 in -50i64..50,
        tail_branch in any::<bool>(),
        a0 in -100i64..100,
        a1 in -100i64..100,
    ) {
        let m = machine();
        let e = ProgEngine::new(m.clone());
        let src = gen_src(ci, si, n, op, c0, tail_branch);
        let spec = ProgSpec::new(HookClass::SyscallEntry, "f");

        let in_bounds = ci < CTX_WORDS && si < STATE_WORDS;
        match e.load(&src, &spec) {
            Ok(prog) => {
                prop_assert!(in_bounds, "oob indices (ctx[{ci}], state[{si}]) accepted");
                prop_assert!(prog.proof.max_steps > 0);
                prop_assert!(prog.proof.max_steps <= spec.budget);

                let att = Attachment::new(m, prog).unwrap();
                let mut ctx = [a0, a1, 0, 0];
                match att.run(&mut ctx, None) {
                    Ok(_) => {}
                    Err(err) => prop_assert!(false, "verified program failed at runtime: {err:?}"),
                }
                // The loop body ran exactly n times.
                prop_assert_eq!(att.state()[si], n as i64);
                prop_assert_eq!(att.stats().budget_trips, 0);
            }
            Err(LoadError::Rejected(r)) => {
                prop_assert!(!in_bounds, "in-bounds program rejected: {r}");
                prop_assert_eq!(r.rule, RejectRule::OutOfBounds);
                // Verdicts are structured: they name the opcode and pc.
                let shown = r.to_string();
                prop_assert!(shown.contains("out-of-bounds"), "verdict text: {shown}");
            }
            Err(other) => prop_assert!(false, "unexpected load error: {other:?}"),
        }
    }

    /// A loop whose trip count depends on unknown input can never be
    /// admitted, whatever the body looks like.
    #[test]
    fn input_bounded_loops_are_always_rejected(
        c in -1000i64..1000,
        k in 1i64..9,
    ) {
        let e = ProgEngine::new(machine());
        let src = format!(
            "int f(int *ctx, int *state) {{
                while (ctx[0] != {c}) {{ state[0] = state[0] + {k}; }}
                return 0;
            }}"
        );
        let err = e.load(&src, &ProgSpec::new(HookClass::SyscallEntry, "f")).unwrap_err();
        let LoadError::Rejected(r) = err else {
            return Err(TestCaseError::fail(format!("expected rejection, got {err:?}")));
        };
        prop_assert_eq!(r.rule, RejectRule::UnboundedLoop);
    }

    /// Proof tightness: re-loading with the budget squeezed down to the
    /// proved bound still verifies (and proves the same bound); squeezing
    /// one below it must reject. The verdict distinguishes "a loop would
    /// not fit" from "even the straight line would not fit".
    #[test]
    fn proofs_are_tight_under_budget_shrinking(
        ci in 0usize..4,
        n in 1u64..40,
        c0 in -20i64..20,
    ) {
        let e = ProgEngine::new(machine());
        let src = gen_src(ci, 0, n, 0, c0, false);
        let spec = ProgSpec::new(HookClass::SyscallEntry, "f");
        let prog = e.load(&src, &spec).unwrap();
        let bound = prog.proof.max_steps;
        prop_assert!(bound <= MAX_BUDGET);

        let exact = e.load(&src, &spec.clone().with_budget(bound)).unwrap();
        prop_assert_eq!(exact.proof.max_steps, bound, "same proof at the exact budget");

        let err = e.load(&src, &spec.clone().with_budget(bound - 1)).unwrap_err();
        let LoadError::Rejected(r) = err else {
            return Err(TestCaseError::fail(format!("expected rejection, got {err:?}")));
        };
        prop_assert!(
            r.rule == RejectRule::UnboundedLoop || r.rule == RejectRule::BudgetExceeded,
            "one-below-proof rejects as a budget verdict, got {:?}", r.rule
        );
    }

    /// The verification cache is deterministic and keyed on (spec, src):
    /// the same pair re-loads to the same Arc without re-verifying, and a
    /// different budget is a different program.
    #[test]
    fn verification_cache_is_deterministic(
        ci in 0usize..4,
        n in 0u64..32,
        c0 in -20i64..20,
    ) {
        let e = ProgEngine::new(machine());
        let src = gen_src(ci, 0, n, 1, c0, true);
        let spec = ProgSpec::new(HookClass::SyscallEntry, "f");

        let p1 = e.load(&src, &spec).unwrap();
        let p2 = e.load(&src, &spec).unwrap();
        prop_assert!(Arc::ptr_eq(&p1, &p2), "cache hit returns the same verified object");
        let stats = e.cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));

        let p3 = e.load(&src, &spec.clone().with_budget(MAX_BUDGET)).unwrap();
        prop_assert!(!Arc::ptr_eq(&p1, &p3), "different spec, different entry");
        prop_assert_eq!(e.cache_stats().misses, 2);
        prop_assert_eq!(p1.proof, p3.proof, "same source proves the same bound");
    }
}

/// One deterministic end-to-end walk: the user-space drain/resubmit loop
/// and the in-kernel CQE program both recover the chase file's ground
/// truth, over memfs and over the journaled fs.
#[test]
fn chase_methods_agree_with_ground_truth_on_both_filesystems() {
    for rig in [Rig::memfs(), Rig::kjfs()] {
        let p = rig.user(1 << 16);
        let truth = setup_chase(&rig, &p, "/chain", 96, 0xBEEF);
        let fd = rig.sys.sys_open(p.pid, "/chain", OpenFlags::RDONLY);
        assert!(fd >= 0);

        let user = chase_user(&rig, &p, fd as i32);
        assert_eq!((user.hops, user.value_sum), (truth.hops, truth.value_sum));

        let kern = chase_kernel(&rig, &p, fd as i32);
        assert_eq!((kern.hops, kern.value_sum), (truth.hops, truth.value_sum));
    }
}

/// The whole-chain walk costs a constant number of crossings in kernel
/// mode while the user loop pays one enter per hop.
#[test]
fn kernel_chase_crossings_stay_constant_as_the_chain_grows() {
    let mut kernel_crossings = Vec::new();
    for n in [32usize, 128] {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        setup_chase(&rig, &p, "/chain", n, 7);
        let fd = rig.sys.sys_open(p.pid, "/chain", OpenFlags::RDONLY);
        assert!(fd >= 0);

        let s0 = rig.machine.stats.snapshot();
        let user = chase_user(&rig, &p, fd as i32);
        let user_sys = rig.machine.stats.snapshot().delta(&s0).syscalls;

        let s1 = rig.machine.stats.snapshot();
        let kern = chase_kernel(&rig, &p, fd as i32);
        let kern_sys = rig.machine.stats.snapshot().delta(&s1).syscalls;

        assert_eq!(user.hops, n as u64);
        assert_eq!(kern.hops, n as u64);
        assert!(user_sys >= n as u64, "user loop pays per hop: {user_sys}");
        kernel_crossings.push(kern_sys);
    }
    assert_eq!(
        kernel_crossings[0], kernel_crossings[1],
        "kernel walk crossings are independent of chain length"
    );
}

/// Replacing a CQE program frees the old sandbox: 1,000 attach/replace
/// rounds leave the machine's frame count and live address-space count
/// where they started.
#[test]
fn replaced_cqe_programs_free_their_sandboxes() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let engine = ProgEngine::new(rig.machine.clone());
    let prog = engine
        .load(CHASE_CQE_SRC, &ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(16))
        .unwrap();
    let before = rig.machine.mem.phys.allocated();
    let spaces_before = rig.machine.mem.live_spaces();
    for _ in 0..1_000 {
        let att = Arc::new(Attachment::new(rig.machine.clone(), prog.clone()).unwrap());
        rig.sys.attach_cqe_program(p.pid, att).unwrap();
    }
    assert!(rig.machine.mem.phys.allocated() > before, "the last program is still attached");
    assert!(rig.sys.detach_cqe_program(p.pid).is_some());
    assert_eq!(rig.machine.mem.phys.allocated(), before);
    assert_eq!(rig.machine.mem.live_spaces(), spaces_before);
}

/// A stream of distinct programs (20x the cache's 256-entry budget) keeps
/// the verified-program cache at its budget, and every load still works.
#[test]
fn program_flood_leaves_the_cache_at_its_budget() {
    const BUDGET: usize = 256;
    let e = ProgEngine::new(machine());
    let spec = ProgSpec::new(HookClass::SyscallEntry, "f");
    for i in 0..20 * BUDGET {
        let src = format!("int f(int *ctx, int *state) {{ return {i}; }}");
        e.load(&src, &spec).unwrap();
    }
    let stats = e.cache_stats();
    assert_eq!(stats.misses, 20 * BUDGET as u64);
    assert_eq!(stats.entries, BUDGET);
    assert_eq!(stats.evictions, 19 * BUDGET as u64);
}

/// Load `src` as `pid`'s syscall-entry filter, replacing any other.
fn attach_entry_filter(rig: &Rig, pid: Pid, src: &str) -> Arc<Attachment> {
    let engine = ProgEngine::new(rig.machine.clone());
    let prog = engine.load(src, &ProgSpec::new(HookClass::SyscallEntry, "f")).unwrap();
    let att = Arc::new(Attachment::new(rig.machine.clone(), prog).unwrap());
    rig.sys.detach_syscall_filter(pid);
    rig.sys.attach_syscall_filter(pid, att.clone()).unwrap();
    att
}

/// A compound of `write(fd, data[..8], len)` followed by `getpid`, staged
/// in a fresh region pair; returns the submission's result.
fn cosy_write(rig: &Rig, p: &UserProc, fd: i32, len: i64) -> Result<Vec<i64>, CosyError> {
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 1).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    let CosyArg::BufRef { offset, .. } = b.stage_bytes(b"payload!").unwrap() else {
        unreachable!()
    };
    let data = CosyArg::BufRef { offset, len: 8 };
    let fd = CompoundBuilder::lit(fd as i64);
    b.syscall(CosyCall::Write, vec![fd, data, CompoundBuilder::lit(len)]);
    b.syscall(CosyCall::Getpid, vec![]);
    b.finish().unwrap();
    rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default())
}

/// One entry filter governs every way a process reaches `write`: a
/// classic call, a ring SQE, a Cosy compound op, and a KC program's
/// `sys_write` intrinsic running in the kernel. A veto is that op's
/// result — it cancels the rest of a linked SQE chain, and a compound
/// keeps going past it like a genuine errno. A filter's rewritten length
/// still meets the transport's bound: a Cosy write moves at most its
/// buffer reference, and a buffer moved outside the shared region is
/// refused outright.
#[test]
fn write_veto_filter_blocks_every_path_to_write() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let fd = rig.sys.sys_open(p.pid, "/guarded", OpenFlags::RDWR | OpenFlags::CREAT);
    let fd = fd as i32;
    p.stage(&rig, b"payload!");
    rig.cosy
        .load_program("int w(int fd) { return sys_write(fd, \"payload!\", 8); }")
        .unwrap();
    // Write is Sysno 2: veto it with -EPERM and count the vetoes.
    let att = attach_entry_filter(
        &rig,
        p.pid,
        r#"
        int f(int *ctx, int *state) {
            if (ctx[0] == 2) { state[0] = state[0] + 1; return -1; }
            return 0;
        }
        "#,
    );

    assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 8), -1, "classic");

    assert_eq!(rig.sys.sys_ring_setup(p.pid, 8, 8), 0);
    let ring = rig.sys.uring(p.pid).unwrap();
    ring.push_sqe(Sqe::write(fd, p.buf, 8, OFF_CURSOR, 1)).unwrap();
    ring.push_sqe(Sqe::write(fd, p.buf, 8, 0, 2).link()).unwrap();
    ring.push_sqe(Sqe::read(fd, p.buf + 64, 8, 0, 3)).unwrap();
    assert_eq!(rig.sys.sys_ring_enter(p.pid, 3, 3), 3);
    let mut cqes = Vec::new();
    while let Some(c) = ring.reap_cqe() {
        cqes.push((c.user_data, c.res));
    }
    assert_eq!(cqes, vec![(1, -1), (2, -1), (3, ECANCELED)], "SQE, then a vetoed chain");

    let r = cosy_write(&rig, &p, fd, 8).unwrap();
    assert_eq!(r, vec![-1, p.pid.0 as i64], "compound op vetoed, compound continues");

    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 2).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 3).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    b.call_user(0, "w", vec![CompoundBuilder::lit(fd as i64)]);
    b.finish().unwrap();
    let r = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert_eq!(r, vec![-1], "KC sys_write intrinsic under the kernel host");

    assert_eq!(att.state()[0], 5, "the filter saw each write once");
    assert_eq!(rig.sys.k_stat("/guarded").unwrap().size, 0, "nothing was written");

    // Allow writes, but raise their length far past any buffer.
    attach_entry_filter(
        &rig,
        p.pid,
        "int f(int *ctx, int *state) { if (ctx[0] == 2) { ctx[3] = 1048576; } return 0; }",
    );
    assert_eq!(cosy_write(&rig, &p, fd, 8).unwrap()[0], 8, "clamped to the BufRef");
    assert_eq!(rig.sys.k_stat("/guarded").unwrap().size, 8);
    attach_entry_filter(
        &rig,
        p.pid,
        "int f(int *ctx, int *state) { if (ctx[0] == 2) { ctx[2] = 1048576; } return 0; }",
    );
    let err = cosy_write(&rig, &p, fd, 8).unwrap_err();
    assert!(matches!(err, CosyError::Sim(_)), "buffer moved out of the region: {err:?}");
    assert_eq!(rig.sys.k_stat("/guarded").unwrap().size, 8, "refused before any write");
}
