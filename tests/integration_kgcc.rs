//! Integration: KGCC instrumentation of a KC "file-system module" —
//! instrumented runs compute the same results, violations are caught,
//! check elimination and dynamic deinstrumentation reclaim performance
//! (§3.4 / §3.5).

use std::sync::Arc;

use kucode::prelude::*;
use kucode::kclang::{compile, Program, TypeInfo};
use kucode::ksim::{PteFlags, PAGE_SIZE};

/// A module in the spirit of a file system's buffer-handling inner loops:
/// name hashing and block checksumming over caller-supplied buffers.
const MODULE: &str = r#"
    int hash_name(char *name, int len) {
        int h = 5381;
        int i;
        for (i = 0; i < len; i = i + 1) {
            h = h * 33 + name[i];
        }
        return h;
    }

    int checksum_block(int *block, int words) {
        int acc = 0;
        int i;
        for (i = 0; i < words; i = i + 1) {
            acc = acc + block[i] * (i + 1);
        }
        return acc;
    }

    int fs_op(int words) {
        char name[32];
        int i;
        for (i = 0; i < 31; i = i + 1) { name[i] = 'a' + i % 26; }
        name[31] = '\0';
        int *block = malloc(words * 8);
        for (i = 0; i < words; i = i + 1) { block[i] = i * 7; }
        int h = hash_name(name, 31);
        int c = checksum_block(block, words);
        free(block);
        return h + c;
    }
"#;

struct Module {
    machine: Arc<Machine>,
    prog: Program,
    info: TypeInfo,
}

fn module() -> Module {
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let prog = parse_program(MODULE).unwrap();
    let info = typecheck(&prog).unwrap();
    Module { machine, prog, info }
}

/// Run `fs_op` on the VM: compiled under `plan` and checked by `hook`, or
/// uninstrumented.
fn run(
    m: &Module,
    checks: Option<(&KgccHook, &CheckPlan)>,
    args: &[i64],
) -> Result<i64, InterpError> {
    const ARENA: u64 = 0x300_0000;
    const PAGES: usize = 64;
    let asid = m.machine.mem.create_space();
    for i in 0..PAGES {
        m.machine
            .mem
            .map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw())
            .unwrap();
    }
    let mut cfg = ExecConfig::flat(asid);
    cfg.charge_sys = true; // kernel-module execution
    let module = match checks {
        Some((_, plan)) => compile_planned(&m.prog, &m.info, plan),
        None => compile(&m.prog, &m.info),
    }
    .unwrap();
    let mut vm = Vm::new(&m.machine, &module, cfg, ARENA, PAGES * PAGE_SIZE)?;
    if let Some((hook, _)) = checks {
        vm.set_hook(hook);
    }
    let out = vm.run("fs_op", args)?;
    m.machine.mem.destroy_space(asid).unwrap();
    Ok(out.ret)
}

#[test]
fn instrumented_module_computes_identical_results() {
    let m = module();
    let plain = run(&m, None, &[64]).unwrap();

    let hook =
        KgccHook::new(m.machine.clone(), KgccConfig { charge_sys: true, deinstrument: None });
    let checked = run(&m, Some((&hook, &CheckPlan::all_enabled(&m.prog, &m.info))), &[64]).unwrap();
    assert_eq!(plain, checked);
    let rep = hook.report();
    assert!(rep.checks_executed > 200, "loops ran under checks: {rep:?}");
    assert_eq!(rep.violations, 0);
}

#[test]
fn instrumentation_overhead_is_real_and_optimization_reduces_it() {
    let m = module();
    let measure = |plan: CheckPlan| {
        let hook =
            KgccHook::new(m.machine.clone(), KgccConfig { charge_sys: true, deinstrument: None });
        let sys0 = m.machine.clock.sys_cycles();
        run(&m, Some((&hook, &plan)), &[256]).unwrap();
        (m.machine.clock.sys_cycles() - sys0, hook.report().checks_executed)
    };

    let sys_plain = {
        let sys0 = m.machine.clock.sys_cycles();
        run(&m, None, &[256]).unwrap();
        m.machine.clock.sys_cycles() - sys0
    };
    let (sys_full, checks_full) = measure(CheckPlan::all_enabled(&m.prog, &m.info));
    let (sys_opt, checks_opt) = measure(CheckPlan::optimized(&m.prog, &m.info));

    assert!(sys_full > sys_plain, "checks cost kernel time");
    assert!(checks_opt <= checks_full);
    assert!(sys_opt <= sys_full);
    // The paper: KGCC-compiled module system time is a multiple of vanilla
    // for check-dense code.
    let ratio = sys_full as f64 / sys_plain as f64;
    assert!(ratio > 1.1, "instrumentation ratio {ratio:.2}");
}

#[test]
fn deinstrumentation_reclaims_performance_over_repeated_runs() {
    let m = module();
    let deins = Deinstrument::new(2_000, m.prog.max_expr_id as usize + 1);
    let hook = KgccHook::new(
        m.machine.clone(),
        KgccConfig { charge_sys: true, deinstrument: Some(deins) },
    );
    let plan = CheckPlan::all_enabled(&m.prog, &m.info);

    // Early runs: checks active.
    let sys0 = m.machine.clock.sys_cycles();
    run(&m, Some((&hook, &plan)), &[128]).unwrap();
    let early = m.machine.clock.sys_cycles() - sys0;

    // Let the counters cross the threshold.
    for _ in 0..20 {
        run(&m, Some((&hook, &plan)), &[128]).unwrap();
    }
    let executed_mid = hook.report().checks_executed;

    // Late runs: hot sites disabled, checks mostly skipped.
    let sys0 = m.machine.clock.sys_cycles();
    run(&m, Some((&hook, &plan)), &[128]).unwrap();
    let late = m.machine.clock.sys_cycles() - sys0;
    let executed_late = hook.report().checks_executed - executed_mid;

    assert!(
        executed_late * 5 < early.max(1),
        "late run executed only {executed_late} checks"
    );
    assert!(late < early, "deinstrumented run is faster: {late} vs {early}");
    assert!(hook.report().checks_skipped > 0);
}

#[test]
fn module_bugs_are_caught_with_precise_sites() {
    let src = r#"
        int bad_op(int n) {
            int buf[16];
            int i;
            for (i = 0; i <= n; i = i + 1) { buf[i] = i; }
            return buf[0];
        }
    "#;
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let prog = parse_program(src).unwrap();
    let info = typecheck(&prog).unwrap();
    let module = compile_planned(&prog, &info, &CheckPlan::all_enabled(&prog, &info)).unwrap();
    let hook = KgccHook::new(machine.clone(), KgccConfig { charge_sys: true, deinstrument: None });
    const ARENA: u64 = 0x300_0000;
    let asid = machine.mem.create_space();
    for i in 0..16 {
        machine
            .mem
            .map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw())
            .unwrap();
    }
    let mut cfg = ExecConfig::flat(asid);
    cfg.charge_sys = true;
    let mut vm = Vm::new(&machine, &module, cfg, ARENA, 16 * PAGE_SIZE).unwrap();
    vm.set_hook(hook.as_ref());
    // In-bounds: fine.
    assert_eq!(vm.run("bad_op", &[15]).unwrap().ret, 0);
    // buf[16]: caught.
    let err = vm.run("bad_op", &[16]).unwrap_err();
    assert!(matches!(err, InterpError::Check(_)), "{err:?}");
    assert_eq!(hook.report().violations, 1);
}

#[test]
fn shared_splay_map_degrades_under_interleaved_access() {
    // A3's mechanism check: a single thread's locality keeps splay lookups
    // near O(1); interleaving several threads' access streams through one
    // shared tree destroys that locality (each thread keeps evicting the
    // others' hot paths from the root).
    use kucode::kgcc::SplayTree;

    let n = 2_000u64;
    let hot_keys = [100u64, 599, 1_098, 1_597];

    // Per-thread trees: every access after the first is a root hit.
    let mut local_touches = 0u64;
    for &hot in &hot_keys {
        let mut t = SplayTree::new();
        for k in 0..n {
            t.insert(k * 64, ());
        }
        t.get(hot * 64);
        let t0 = t.touches;
        for _ in 0..2_500 {
            t.get(hot * 64);
        }
        local_touches += t.touches - t0;
    }

    // One shared tree, accesses interleaved round-robin — the worst-case
    // schedule a mutex admits.
    let mut shared = SplayTree::new();
    for k in 0..n {
        shared.insert(k * 64, ());
    }
    for &hot in &hot_keys {
        shared.get(hot * 64);
    }
    let t0 = shared.touches;
    for _ in 0..2_500 {
        for &hot in &hot_keys {
            shared.get(hot * 64);
        }
    }
    let shared_touches = shared.touches - t0;

    // The tree self-organizes to keep all hot keys shallow, so the
    // degradation is moderate at this scale (the paper reports it grows
    // with thread count); what must hold is that sharing is strictly
    // worse than thread-local trees.
    assert!(
        shared_touches * 10 > local_touches * 13,
        "interleaving must cost ≥30% more: shared {shared_touches} vs local {local_touches}"
    );
}
