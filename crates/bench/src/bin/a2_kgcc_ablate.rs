//! A2 (ablation, §3.4/§3.5): KGCC's two overhead-reduction techniques.
//!
//! * Check elimination: the paper reports CSE "allowed us to reduce the
//!   number of checks inserted by more than half for typical kernel code".
//! * Dynamic deinstrumentation: checks deactivate after enough clean
//!   executions, "reclaiming performance quickly".

use std::sync::Arc;

use bench::{banner, Report};
use kucode::ksim::{PteFlags, PAGE_SIZE};
use kucode::prelude::*;

/// A corpus of "typical kernel code" shapes: repeated element access,
/// memcpy-ish loops, constant indexing, pointer walks.
const CORPUS: [(&str, &str); 4] = [
    (
        "dirent-pack",
        r#"
        int pack(int *src, int *dst, int n) {
            int i;
            for (i = 0; i < n; i = i + 1) {
                dst[i] = src[i] + src[i] / 256 + src[i] % 16;
            }
            return n;
        }
        "#,
    ),
    (
        "header-fields",
        r#"
        int parse(int *hdr) {
            int magic = hdr[0];
            int len = hdr[1];
            int flags = hdr[2];
            return magic + len + flags + hdr[0] + hdr[1];
        }
        "#,
    ),
    (
        "memcpy-loop",
        r#"
        int copy(char *s, char *d, int n) {
            int i;
            for (i = 0; i < n; i = i + 1) { d[i] = s[i]; }
            return n;
        }
        "#,
    ),
    (
        "fixed-table",
        r#"
        int table() {
            int t[8];
            t[0] = 1; t[1] = 2; t[2] = 4; t[3] = 8;
            t[4] = 16; t[5] = 32; t[6] = 64; t[7] = 128;
            return t[0] + t[3] + t[7] + t[3] + t[0];
        }
        "#,
    ),
];

pub fn run(report: &mut Report) {
    banner("A2", "KGCC check elimination + dynamic deinstrumentation");

    println!("check elimination over the corpus:");
    println!(
        "{:<16} {:>8} {:>10} {:>8} {:>10}",
        "program", "sites", "enabled", "removed", "ratio"
    );
    let mut total_sites = 0usize;
    let mut total_removed = 0usize;
    for (name, src) in CORPUS {
        let prog = parse_program(src).unwrap();
        let info = typecheck(&prog).unwrap();
        let opt = CheckPlan::optimized(&prog, &info);
        let removed = opt.eliminated_const + opt.eliminated_cse;
        println!(
            "{:<16} {:>8} {:>10} {:>8} {:>9.0}%",
            name,
            opt.total_sites,
            opt.enabled_count(),
            removed,
            100.0 * opt.elimination_ratio()
        );
        total_sites += opt.total_sites;
        total_removed += removed;
    }
    let corpus_ratio = 100.0 * total_removed as f64 / total_sites as f64;
    println!("corpus total: {total_removed}/{total_sites} removed ({corpus_ratio:.0}%)");

    // Deinstrumentation curve: checks executed per run as sites disable.
    // Driver wraps the dirent-pack kernel with its own buffers.
    let shim_src = format!(
        "{}\nint shim(int n) {{\n  int *a = malloc(n * 8);\n  int *b = malloc(n * 8);\n  int i;\n  for (i = 0; i < n; i = i + 1) {{ a[i] = i; }}\n  int r = pack(a, b, n);\n  free(a);\n  free(b);\n  return r;\n}}",
        CORPUS[0].1
    );
    let prog = parse_program(&shim_src).unwrap();
    let info = typecheck(&prog).unwrap();
    let module = compile_planned(&prog, &info, &CheckPlan::all_enabled(&prog, &info)).unwrap();
    let machine = Arc::new(Machine::new(MachineConfig::default()));
    let hook = KgccHook::new(
        machine.clone(),
        KgccConfig {
            charge_sys: true,
            deinstrument: Some(Deinstrument::new(600, prog.max_expr_id as usize + 1)),
        },
    );
    let asid = machine.mem.create_space();
    let arena = 0x500_0000u64;
    for i in 0..32 {
        machine
            .mem
            .map_anon(asid, arena + (i * PAGE_SIZE) as u64, PteFlags::rw())
            .unwrap();
    }

    println!("\ndeinstrumentation (threshold 600 clean executions per site):");
    println!("{:>5} {:>16} {:>16} {:>16}", "run", "checks executed", "checks skipped", "sys cycles");
    let mut first = 0u64;
    let mut last = 0u64;
    let mut prev = hook.report();
    for run_idx in 0..8 {
        let mut cfg = ExecConfig::flat(asid);
        cfg.charge_sys = true;
        let mut vm = Vm::new(&machine, &module, cfg, arena, 32 * PAGE_SIZE).unwrap();
        vm.set_hook(hook.as_ref());
        let sys0 = machine.clock.sys_cycles();
        vm.run("shim", &[100]).unwrap();
        let sys = machine.clock.sys_cycles() - sys0;

        let rep = hook.report();
        let executed = rep.checks_executed - prev.checks_executed;
        let skipped = rep.checks_skipped - prev.checks_skipped;
        println!("{:>5} {:>16} {:>16} {:>16}", run_idx, executed, skipped, sys);
        if run_idx == 0 {
            first = executed;
        }
        last = executed;
        prev = rep;
    }

    report.add(
        "A2",
        "checks removed by elimination",
        ">50% (\"more than half\")",
        format!("{corpus_ratio:.0}%"),
        corpus_ratio >= 35.0,
    );
    report.add(
        "A2",
        "deinstrumentation reclaims checks",
        "checks stop after N clean runs",
        format!("{first} → {last} per run"),
        last * 3 < first.max(1),
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
