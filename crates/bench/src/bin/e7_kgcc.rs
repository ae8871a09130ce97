//! E7 (§3.4): KGCC-compiled file-system module vs vanilla, under the
//! CPU-intensive compile and the I/O-intensive PostMark.
//!
//! Paper (Reiserfs module on Linux 2.6.7): Am-utils compile — system time
//! +33 %, elapsed +20 %; PostMark — system time ×14, elapsed ×3.
//!
//! Substitution note (see DESIGN.md): the fs module's check-dense inner
//! loops (name hashing, block checksumming, dirent packing) are expressed
//! in KC and executed per file-system operation; KGCC's instrumentation
//! applies to that module code, exactly where BCC's checks landed in the
//! paper's Reiserfs build.

use std::sync::Arc;

use bench::{banner, fmt_cycles, Report};
use kucode::kclang::Module;
use kucode::ksim::{PteFlags, PAGE_SIZE};
use kucode::prelude::*;

/// The module's per-operation work: hash the name, checksum one block.
const MODULE: &str = r#"
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

struct ModuleRunner {
    machine: Arc<Machine>,
    /// Compiled with KGCC's optimized check plan; the checks run only
    /// when the hook is attached.
    module: Module,
    hook: Option<Arc<KgccHook>>,
    arena: u64,
    asid: kucode::ksim::AsId,
}

impl ModuleRunner {
    fn new(machine: Arc<Machine>, instrumented: bool) -> Self {
        let prog = parse_program(MODULE).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile_planned(&prog, &info, &CheckPlan::optimized(&prog, &info)).unwrap();
        let hook = instrumented.then(|| {
            KgccHook::new(machine.clone(), KgccConfig { charge_sys: true, deinstrument: None })
        });
        let asid = machine.mem.create_space();
        let arena = 0x400_0000u64;
        for i in 0..32 {
            machine
                .mem
                .map_anon(asid, arena + (i * PAGE_SIZE) as u64, PteFlags::rw())
                .unwrap();
        }
        ModuleRunner { machine, module, hook, arena, asid }
    }

    fn run_op(&self, words: i64) {
        let mut cfg = ExecConfig::flat(self.asid);
        cfg.charge_sys = true;
        let mut vm =
            Vm::new(&self.machine, &self.module, cfg, self.arena, 32 * PAGE_SIZE).unwrap();
        if let Some(h) = &self.hook {
            vm.set_hook(h.as_ref());
        }
        vm.run("fs_op", &[words]).unwrap();
    }
}

/// Run a workload and execute the module once per `ops_per_module` data
/// syscalls, the way the real module's code runs inside every fs operation.
fn measure<W>(instrumented: bool, words: i64, workload: W) -> (u64, u64)
where
    W: Fn(&Rig, &UserProc) -> (u64, u64),
{
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let runner = ModuleRunner::new(rig.machine.clone(), instrumented);

    let t0 = rig.machine.clock.snapshot();
    let (data_ops, _) = workload(&rig, &p);
    // The module's work accompanies every data operation.
    for _ in 0..data_ops {
        runner.run_op(words);
    }
    let iv = rig.machine.clock.since(t0);
    (iv.elapsed(), iv.sys)
}

fn compile_workload(rig: &Rig, p: &UserProc) -> (u64, u64) {
    // The compiler itself is lighter here than in E5: the measured object
    // is the *file-system module*, so the config keeps fs work a realistic
    // fraction of elapsed time (Am-utils' configure-heavy build spends a
    // large share of its life in the kernel).
    let cfg = CompileConfig {
        source_files: 60,
        header_count: 24,
        headers_per_file: 8,
        cpu_cycles_per_kib: 150_000,
        ..Default::default()
    };
    let r = run_compile(rig, p, &cfg);
    // One module invocation per 4 KiB of file data moved.
    ((r.bytes_read + r.bytes_written) / 4_096, r.elapsed.sys)
}

fn postmark_workload(rig: &Rig, p: &UserProc) -> (u64, u64) {
    let cfg = PostmarkConfig { file_count: 250, transactions: 800, ..Default::default() };
    let r = run_postmark(rig, p, &cfg);
    ((r.bytes_read + r.bytes_written) / 4_096, r.elapsed.sys)
}

pub fn run(report: &mut Report) {
    banner("E7", "KGCC-compiled fs module (paper: compile +33% sys/+20% elapsed; PostMark x14 sys/x3 elapsed)");

    // PostMark's metadata-heavy mix runs far more module code per byte, so
    // its instrumented block work is larger.
    let (c_elapsed0, c_sys0) = measure(false, 192, compile_workload);
    let (c_elapsed1, c_sys1) = measure(true, 192, compile_workload);
    let (p_elapsed0, p_sys0) = measure(false, 512, postmark_workload);
    let (p_elapsed1, p_sys1) = measure(true, 512, postmark_workload);

    let c_sys_ovh = overhead_pct(c_sys0, c_sys1);
    let c_el_ovh = overhead_pct(c_elapsed0, c_elapsed1);
    let p_sys_x = p_sys1 as f64 / p_sys0 as f64;
    let p_el_x = p_elapsed1 as f64 / p_elapsed0 as f64;

    println!("{:<28} {:>12} {:>12} {:>12} {:>12}", "workload", "sys base", "sys kgcc", "elapsed base", "elapsed kgcc");
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "Am-utils compile",
        fmt_cycles(c_sys0),
        fmt_cycles(c_sys1),
        fmt_cycles(c_elapsed0),
        fmt_cycles(c_elapsed1)
    );
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "PostMark",
        fmt_cycles(p_sys0),
        fmt_cycles(p_sys1),
        fmt_cycles(p_elapsed0),
        fmt_cycles(p_elapsed1)
    );
    println!("\ncompile:  system +{c_sys_ovh:.1}%, elapsed +{c_el_ovh:.1}%");
    println!("postmark: system ×{p_sys_x:.1}, elapsed ×{p_el_x:.1}");

    report.add(
        "E7",
        "compile: system-time overhead",
        "+33%",
        format!("+{c_sys_ovh:.1}%"),
        (5.0..120.0).contains(&c_sys_ovh),
    );
    report.add(
        "E7",
        "compile: elapsed overhead",
        "+20%",
        format!("+{c_el_ovh:.1}%"),
        c_el_ovh < c_sys_ovh && c_el_ovh > 0.5,
    );
    report.add(
        "E7",
        "postmark: system-time factor",
        "×14",
        format!("×{p_sys_x:.1}"),
        p_sys_x > 1.5,
    );
    report.add(
        "E7",
        "postmark: elapsed factor",
        "×3",
        format!("×{p_el_x:.1}"),
        p_el_x > 1.1 && p_el_x < p_sys_x,
    );
}

fn main() {
    let mut r = Report::new();
    run(&mut r);
    r.print();
}
