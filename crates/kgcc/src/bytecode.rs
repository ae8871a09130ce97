//! KGCC's compiler half: check plans applied to the bytecode.
//!
//! The paper's KGCC inserts its checks at compile time (§3.4), and so does
//! this reproduction: [`compile_planned`] emits hook calls only at the
//! sites a [`CheckPlan`] enables, so an eliminated check costs literally
//! nothing per execution. The [`crate::KgccHook`] never sees the plan.
//!
//! Dynamic deinstrumentation (§3.5) follows the same route. The paper
//! describes removing a check from compiled code once its confidence
//! threshold is reached ("replacing the call instruction with a no-op").
//! [`apply_deinstrumentation`] does exactly that to a [`Module`]: every op
//! whose site the [`Deinstrument`] policy has disabled is patched in place
//! to its unchecked form. Until a module is (re)patched, the hook still
//! consults the policy per call, so behaviour is correct either way —
//! patching just removes the residual call overhead.

use kclang::bytecode::{compile_with_filter, CompileError, Module};
use kclang::{Program, TypeInfo};

use crate::deinstrument::Deinstrument;
use crate::plan::CheckPlan;

/// Compile `prog` with checks emitted only at sites `plan` enables. Run
/// the result on a [`kclang::Vm`] under a [`crate::KgccHook`]: the hook is
/// called at exactly the planned sites.
pub fn compile_planned(
    prog: &Program,
    info: &TypeInfo,
    plan: &CheckPlan,
) -> Result<Module, CompileError> {
    compile_with_filter(prog, info, &|site| plan.is_enabled(site))
}

/// Patch `module` in place: disarm every check op whose site `policy` has
/// deinstrumented. Returns the number of ops patched. Call this after
/// enough clean executions have accumulated (e.g. between compound
/// submissions in Cosy); it is idempotent and monotonic.
pub fn apply_deinstrumentation(module: &mut Module, policy: &Deinstrument) -> usize {
    module.patch_sites(&|site| policy.is_disabled(site))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hook::{KgccConfig, KgccHook, KgccReport};
    use kclang::{
        parse_program, typecheck, CheckViolation, ExecConfig, Interp, InterpError, MemHook,
        ViolationKind, Vm,
    };
    use ksim::{Machine, MachineConfig, PteFlags, PAGE_SIZE};
    use std::sync::Arc;

    const ARENA: u64 = 0x200_0000;
    const PAGES: usize = 32;

    pub(crate) fn machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::small_free()))
    }

    fn arena(m: &Machine) -> ksim::AsId {
        let asid = m.mem.create_space();
        for i in 0..PAGES {
            m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
        }
        asid
    }

    fn plan_for(prog: &Program, info: &TypeInfo, optimized: bool) -> CheckPlan {
        if optimized {
            CheckPlan::optimized(prog, info)
        } else {
            CheckPlan::all_enabled(prog, info)
        }
    }

    /// Compile with the full or the optimized plan, run on the VM under a
    /// KgccHook, return (result, report).
    pub(crate) fn run_planned(
        m: &Arc<Machine>,
        src: &str,
        func: &str,
        args: &[i64],
        optimized: bool,
        deinstrument: Option<Deinstrument>,
    ) -> (Result<i64, InterpError>, KgccReport) {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let plan = plan_for(&prog, &info, optimized);
        let module = compile_planned(&prog, &info, &plan).unwrap();
        let hook = KgccHook::new(m.clone(), KgccConfig { charge_sys: false, deinstrument });
        let asid = arena(m);
        let mut vm =
            Vm::new(m, &module, ExecConfig::flat(asid), ARENA, PAGES * PAGE_SIZE).unwrap();
        vm.set_hook(hook.as_ref());
        let r = vm.run(func, args).map(|o| o.ret);
        (r, hook.report())
    }

    /// E7's file-system module, as `e7_kgcc` runs it.
    const E7_MODULE: &str = r#"
        int fs_op(int words) {
            char name[28];
            int i;
            for (i = 0; i < 27; i = i + 1) { name[i] = 'a' + i % 26; }
            name[27] = '\0';
            int h = 5381;
            for (i = 0; i < 27; i = i + 1) { h = h * 33 + name[i]; }
            int *block = malloc(words * 8);
            for (i = 0; i < words; i = i + 1) { block[i] = i * 7 + h; }
            int acc = 0;
            for (i = 0; i < words; i = i + 1) { acc = acc + block[i]; }
            free(block);
            return acc;
        }
    "#;

    /// A2's deinstrumentation shim around its dirent-pack kernel, plus
    /// the `kgcc_bounds` example's fencepost bug.
    const A2_SHIM: &str = r#"
        int pack(int *src, int *dst, int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                dst[i] = src[i] + src[i] / 256 + src[i] % 16;
            }
            return n;
        }
        int shim(int n) {
          int *a = malloc(n * 8);
          int *b = malloc(n * 8);
          int i;
          for (i = 0; i < n; i = i + 1) { a[i] = i; }
          int r = pack(a, b, n);
          free(a);
          free(b);
          return r;
        }
        int buggy_fill(int words) {
            int *block = malloc(words * 8);
            int i;
            for (i = 0; i <= words; i = i + 1) { block[i] = i; }
            free(block);
            return 0;
        }
    "#;

    /// The tree-walker has no compile step and calls the hook at every
    /// site; this filter gives it the plan `compile_planned` gives the VM.
    struct Planned<'a> {
        hook: &'a KgccHook,
        plan: &'a CheckPlan,
    }

    impl MemHook for Planned<'_> {
        fn on_access(
            &self,
            site: u32,
            addr: u64,
            len: usize,
            is_write: bool,
        ) -> Result<(), CheckViolation> {
            if !self.plan.is_enabled(site) {
                return Ok(());
            }
            self.hook.on_access(site, addr, len, is_write)
        }
        fn on_ptr_arith(&self, site: u32, old: u64, new: u64) -> Result<u64, CheckViolation> {
            if !self.plan.is_enabled(site) {
                return Ok(new);
            }
            self.hook.on_ptr_arith(site, old, new)
        }
        fn on_alloc(&self, base: u64, len: usize, is_heap: bool) {
            self.hook.on_alloc(base, len, is_heap)
        }
        fn on_dealloc(&self, base: u64, is_heap: bool) {
            self.hook.on_dealloc(base, is_heap)
        }
        fn on_free_check(&self, site: u32, addr: u64) -> Result<(), CheckViolation> {
            if !self.plan.is_enabled(site) {
                return Ok(());
            }
            self.hook.on_free_check(site, addr)
        }
    }

    /// Results, hook report and (user, sys) cycles of one engine.
    type EngineRun = (Vec<Result<i64, InterpError>>, KgccReport, u64, u64);
    /// Entry point, its arguments, and how many times to call it.
    type Call<'a> = (&'a str, &'a [i64], usize);

    /// `runs` calls of `func` on a fresh default machine, charged as kernel
    /// time under one hook, with a new engine per call the way E7 and A2
    /// invoke their modules.
    fn engine_run(
        tree_walker: bool,
        src: &str,
        optimized: bool,
        threshold: Option<u64>,
        (func, args, runs): Call<'_>,
    ) -> EngineRun {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let plan = plan_for(&prog, &info, optimized);
        let module = compile_planned(&prog, &info, &plan).unwrap();
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let deinstrument = threshold.map(|t| Deinstrument::new(t, prog.max_expr_id as usize + 1));
        let hook = KgccHook::new(m.clone(), KgccConfig { charge_sys: true, deinstrument });
        let planned = Planned { hook: &hook, plan: &plan };
        let mut cfg = ExecConfig::flat(arena(&m));
        cfg.charge_sys = true;
        let run_once = || -> Result<i64, InterpError> {
            let out = if tree_walker {
                let mut interp =
                    Interp::new(&m, &prog, &info, cfg.clone(), ARENA, PAGES * PAGE_SIZE)?;
                interp.set_hook(&planned);
                interp.run(func, args)?
            } else {
                let mut vm = Vm::new(&m, &module, cfg.clone(), ARENA, PAGES * PAGE_SIZE)?;
                vm.set_hook(hook.as_ref());
                vm.run(func, args)?
            };
            Ok(out.ret)
        };
        let (u0, s0) = (m.clock.user_cycles(), m.clock.sys_cycles());
        let rets = (0..runs).map(|_| run_once()).collect();
        (rets, hook.report(), m.clock.user_cycles() - u0, m.clock.sys_cycles() - s0)
    }

    /// The parity evidence for running E7 and A2 on the VM: under the same
    /// plan, both engines return the same values, execute, skip and charge
    /// the same checks, spend the same user and sys cycles, and report a
    /// fencepost bug as the same violation.
    #[test]
    fn tree_walker_and_vm_agree_on_the_kgcc_workloads() {
        let cases: [(&str, bool, Option<u64>, Call); 4] = [
            (E7_MODULE, false, None, ("fs_op", &[192], 1)),
            (E7_MODULE, true, None, ("fs_op", &[512], 2)),
            (A2_SHIM, false, Some(600), ("shim", &[100], 4)),
            (A2_SHIM, false, None, ("buggy_fill", &[64], 1)),
        ];
        let runs = cases.map(|(src, optimized, threshold, call)| {
            let tw = engine_run(true, src, optimized, threshold, call);
            let vm = engine_run(false, src, optimized, threshold, call);
            assert_eq!(tw, vm, "{} (optimized: {optimized})", call.0);
            assert!(vm.1.checks_executed > 0, "{}: checks ran", call.0);
            vm
        });
        let (shim, fencepost) = (&runs[2], &runs[3]);
        assert!(shim.0.iter().all(|r| *r == Ok(100)));
        assert!(shim.1.checks_skipped > 0, "the 4th run skips deinstrumented sites");
        let Err(InterpError::Check(v)) = &fencepost.0[0] else {
            panic!("fencepost not caught: {:?}", fencepost.0)
        };
        assert_eq!((v.kind, v.len, fencepost.1.violations), (ViolationKind::OutOfBounds, 8, 1));
    }

    #[test]
    fn instrumented_vm_matches_uninstrumented_results() {
        let m = machine();
        let src = r#"
            int f(int n) {
                int a[8];
                int i;
                int acc = 0;
                for (i = 0; i < 8; i = i + 1) { a[i] = i * n; }
                int *p = &a[0];
                for (i = 0; i < 8; i = i + 1) { acc = acc + *(p + i); }
                return acc;
            }
        "#;
        // Uninstrumented: plain full compile, no hook.
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = kclang::bytecode::compile(&prog, &info).unwrap();
        let asid = arena(&m);
        let mut vm =
            Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, PAGES * PAGE_SIZE).unwrap();
        let plain = vm.run("f", &[3]).unwrap().ret;

        let (full, rep_full) = run_planned(&m, src, "f", &[3], false, None);
        let (opt, rep_opt) = run_planned(&m, src, "f", &[3], true, None);
        assert_eq!(plain, full.unwrap());
        assert_eq!(plain, opt.unwrap());
        assert!(
            rep_opt.checks_executed < rep_full.checks_executed,
            "plan specialisation must drop executed checks: {} vs {}",
            rep_opt.checks_executed,
            rep_full.checks_executed
        );
        assert_eq!(rep_full.violations, 0);
    }

    #[test]
    fn deinstrumentation_patches_bytecode_in_place() {
        let m = machine();
        let src = r#"
            int f() {
                int a[8];
                int i;
                int acc = 0;
                for (i = 0; i < 8; i = i + 1) { a[i] = i; }
                for (i = 0; i < 8; i = i + 1) { acc = acc + a[i]; }
                return acc;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let plan = CheckPlan::all_enabled(&prog, &info);
        let policy = Deinstrument::new(3, prog.max_expr_id as usize);
        let mut module = compile_planned(&prog, &info, &plan).unwrap();
        let hook = KgccHook::new(
            m.clone(),
            KgccConfig { charge_sys: false, deinstrument: Some(policy.clone()) },
        );

        let armed_before = module.checked_ops();
        assert!(armed_before > 0);

        // Warm up: three clean runs push every exercised site past the
        // confidence threshold.
        let asid = arena(&m);
        let mut vm =
            Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, PAGES * PAGE_SIZE).unwrap();
        vm.set_hook(hook.as_ref());
        for _ in 0..3 {
            assert_eq!(vm.run("f", &[]).unwrap().ret, 28);
        }
        // The hook owns the live policy (cloning snapshots counters).
        let live = hook.deinstrument().unwrap();
        assert!(live.disabled_count() > 0, "threshold reached for hot sites");

        // §3.5: patch the compiled code — check ops become unchecked.
        let patched = apply_deinstrumentation(&mut module, live);
        assert!(patched > 0);
        assert!(module.checked_ops() < armed_before);

        // The patched module still computes the same result, and executes
        // no further checks at the patched sites.
        let executed_before = hook.report().checks_executed;
        let asid2 = arena(&m);
        let mut vm2 =
            Vm::new(&m, &module, ExecConfig::flat(asid2), ARENA, PAGES * PAGE_SIZE).unwrap();
        vm2.set_hook(hook.as_ref());
        assert_eq!(vm2.run("f", &[]).unwrap().ret, 28);
        assert_eq!(
            hook.report().checks_executed,
            executed_before,
            "patched sites must not execute checks"
        );
    }

    #[test]
    fn deinstrumentation_reduces_check_cost() {
        let m = machine();
        let src = r#"
            int f() {
                int a[16];
                int i;
                int acc = 0;
                for (i = 0; i < 16; i = i + 1) { a[i] = i; acc = acc + a[i]; }
                return acc;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let plan = CheckPlan::all_enabled(&prog, &info);
        let policy = Deinstrument::new(1, prog.max_expr_id as usize);
        let mut module = compile_planned(&prog, &info, &plan).unwrap();
        let hook = KgccHook::new(
            m.clone(),
            KgccConfig { charge_sys: false, deinstrument: Some(policy.clone()) },
        );

        let asid = arena(&m);
        let mut vm =
            Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, PAGES * PAGE_SIZE).unwrap();
        vm.set_hook(hook.as_ref());
        vm.run("f", &[]).unwrap();
        apply_deinstrumentation(&mut module, hook.deinstrument().unwrap());

        // Compare with fresh full-check hooks (no deinstrumentation), so
        // the armed run really executes its checks: the patched module must
        // charge strictly fewer cycles.
        let fresh_hook =
            || KgccHook::new(m.clone(), KgccConfig { charge_sys: false, deinstrument: None });
        let asid_a = arena(&m);
        let hook_a = fresh_hook();
        let u0 = m.clock.user_cycles();
        let full_module = compile_planned(&prog, &info, &plan).unwrap();
        let mut armed =
            Vm::new(&m, &full_module, ExecConfig::flat(asid_a), ARENA, PAGES * PAGE_SIZE)
                .unwrap();
        armed.set_hook(hook_a.as_ref());
        armed.run("f", &[]).unwrap();
        let armed_cycles = m.clock.user_cycles() - u0;

        let asid_p = arena(&m);
        let hook_p = fresh_hook();
        let u1 = m.clock.user_cycles();
        let mut patched =
            Vm::new(&m, &module, ExecConfig::flat(asid_p), ARENA, PAGES * PAGE_SIZE).unwrap();
        patched.set_hook(hook_p.as_ref());
        patched.run("f", &[]).unwrap();
        let patched_cycles = m.clock.user_cycles() - u1;

        assert!(
            patched_cycles < armed_cycles,
            "patched {patched_cycles} must beat armed {armed_cycles}"
        );
    }
}
