//! KGCC end-to-end (§3.4/§3.5): compile a buggy kernel module with bounds
//! checking, watch the checks catch the bug with a precise diagnosis, then
//! tune the overhead three ways — check elimination, selective
//! instrumentation rules, and dynamic deinstrumentation.
//!
//! ```sh
//! cargo run --release --example kgcc_bounds
//! ```

use std::sync::Arc;

use kucode::kclang::{Module, Program, TypeInfo};
use kucode::kgcc::{apply_rules, parse_rules};
use kucode::ksim::{PteFlags, PAGE_SIZE};
use kucode::prelude::*;

const MODULE: &str = r#"
    int hash_name(char *name, int n) {
        int h = 5381;
        int i;
        for (i = 0; i < n; i = i + 1) { h = h * 33 + name[i]; }
        return h;
    }

    int fill_block(int *block, int words) {
        int i;
        for (i = 0; i < words; i = i + 1) { block[i] = i * 7; }
        return words;
    }

    // The bug: writes one element past the allocation when `words` equals
    // the block's capacity (classic fencepost).
    int buggy_fill(int words) {
        int *block = malloc(words * 8);
        int i;
        for (i = 0; i <= words; i = i + 1) { block[i] = i; }
        free(block);
        return 0;
    }

    int clean_op(int words) {
        char name[32];
        int i;
        for (i = 0; i < 31; i = i + 1) { name[i] = 'a' + i % 26; }
        name[31] = '\0';
        int *block = malloc(words * 8);
        int h = hash_name(name, 31);
        int w = fill_block(block, words);
        free(block);
        return h + w;
    }
"#;

struct Rig2 {
    machine: Arc<Machine>,
    prog: Program,
    info: TypeInfo,
    asid: kucode::ksim::AsId,
}

impl Rig2 {
    fn new() -> Self {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let prog = parse_program(MODULE).expect("module parses");
        let info = typecheck(&prog).expect("module typechecks");
        let asid = machine.mem.create_space();
        for i in 0..64 {
            machine
                .mem
                .map_anon(asid, 0x600_0000 + (i * PAGE_SIZE) as u64, PteFlags::rw())
                .unwrap();
        }
        Rig2 { machine, prog, info, asid }
    }

    /// KGCC's compile step: checks go in only where `plan` keeps them.
    fn compile(&self, plan: &CheckPlan) -> Module {
        compile_planned(&self.prog, &self.info, plan).expect("module compiles")
    }

    fn run(
        &self,
        module: &Module,
        hook: Option<&KgccHook>,
        func: &str,
        args: &[i64],
    ) -> Result<i64, InterpError> {
        let mut cfg = ExecConfig::flat(self.asid);
        cfg.charge_sys = true;
        let mut vm = Vm::new(&self.machine, module, cfg, 0x600_0000, 64 * PAGE_SIZE)?;
        if let Some(h) = hook {
            vm.set_hook(h);
        }
        vm.run(func, args).map(|o| o.ret)
    }
}

fn main() {
    let rig = Rig2::new();
    let full_module = rig.compile(&CheckPlan::all_enabled(&rig.prog, &rig.info));

    println!("== 1. the bug runs silently without instrumentation ==");
    rig.run(&full_module, None, "buggy_fill", &[64]).expect("silent corruption");
    println!("   buggy_fill(64) returned 0 — the fencepost write hit the red zone unnoticed");

    println!("\n== 2. BCC-style full instrumentation catches it exactly ==");
    let full =
        KgccHook::new(rig.machine.clone(), KgccConfig { charge_sys: true, deinstrument: None });
    match rig.run(&full_module, Some(&full), "buggy_fill", &[64]) {
        Err(InterpError::Check(v)) => {
            println!("   CAUGHT: {v}");
        }
        other => println!("   unexpected: {other:?}"),
    }
    println!("   report: {:?}", full.report());

    println!("\n== 3. overhead knobs on the clean path ==");
    let measure = |label: &str, plan: CheckPlan, deins: Option<Deinstrument>| {
        let module = rig.compile(&plan);
        let hook = KgccHook::new(
            rig.machine.clone(),
            KgccConfig { charge_sys: true, deinstrument: deins },
        );
        let sys0 = rig.machine.clock.sys_cycles();
        for _ in 0..20 {
            rig.run(&module, Some(&hook), "clean_op", &[128]).expect("clean");
        }
        let spent = rig.machine.clock.sys_cycles() - sys0;
        println!(
            "   {label:<34} {spent:>12} cycles, {:>7} checks executed",
            hook.report().checks_executed
        );
        spent
    };

    let sys0 = rig.machine.clock.sys_cycles();
    for _ in 0..20 {
        rig.run(&full_module, None, "clean_op", &[128]).expect("clean");
    }
    println!(
        "   {:<34} {:>12} cycles",
        "uninstrumented",
        rig.machine.clock.sys_cycles() - sys0
    );

    let all = measure(
        "full checks (BCC)",
        CheckPlan::all_enabled(&rig.prog, &rig.info),
        None,
    );
    let opt = measure(
        "with check elimination (KGCC)",
        CheckPlan::optimized(&rig.prog, &rig.info),
        None,
    );

    // Selective instrumentation: skip the hot hash, keep the block writes.
    let rules = parse_rules("check all\nskip fn=hash_name").expect("rules parse");
    let ruled = measure(
        "rules: skip fn=hash_name",
        apply_rules(&rig.prog, &rig.info, &rules),
        None,
    );

    let deins = measure(
        "dynamic deinstrumentation",
        CheckPlan::all_enabled(&rig.prog, &rig.info),
        Some(Deinstrument::new(2_000, rig.prog.max_expr_id as usize + 1)),
    );

    assert!(opt <= all && ruled <= all && deins <= all);
    println!("\n   every knob reclaims overhead while the bug above stays catchable");
}
