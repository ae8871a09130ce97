//! Edge-case sweep across the public API: errno coverage, offset
//! semantics, deep paths, watchdog interplay, KC language corners.

use kucode::ksim::{PteFlags, PAGE_SIZE};
use kucode::prelude::*;

// ---- syscall layer ---------------------------------------------------------

#[test]
fn lseek_whence_semantics() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, b"0123456789");
    let fd = rig.sys.sys_open(p.pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    rig.sys.sys_write(p.pid, fd, p.buf, 10);

    assert_eq!(rig.sys.sys_lseek(p.pid, fd, 4, 0), 4, "SEEK_SET");
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, 2, 1), 6, "SEEK_CUR");
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, -3, 2), 7, "SEEK_END");
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, 5, 2), 15, "past EOF is legal");
    assert_eq!(rig.sys.sys_read(p.pid, fd, p.buf + 4096, 10), 0, "EOF read");
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, -100, 0), -22, "negative → EINVAL");
    assert_eq!(rig.sys.sys_lseek(p.pid, fd, 0, 9), -22, "bad whence");
    rig.sys.sys_close(p.pid, fd);
}

#[test]
fn truncate_and_write_only_enforcement() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    p.stage(&rig, b"abcdefgh");
    let fd = rig.sys.sys_open(p.pid, "/t", OpenFlags::WRONLY | OpenFlags::CREAT) as i32;
    rig.sys.sys_write(p.pid, fd, p.buf, 8);
    rig.sys.sys_close(p.pid, fd);

    assert_eq!(rig.sys.sys_truncate(p.pid, "/t", 3), 0);
    assert_eq!(rig.sys.k_stat("/t").unwrap().size, 3);
    assert_eq!(rig.sys.sys_truncate(p.pid, "/missing", 3), -2);

    // A read-only fd cannot write.
    let ro = rig.sys.sys_open(p.pid, "/t", OpenFlags::RDONLY) as i32;
    assert_eq!(rig.sys.sys_write(p.pid, ro, p.buf, 4), -9, "EBADF");
    rig.sys.sys_close(p.pid, ro);

    // TRUNC on open resets content.
    let fd = rig.sys.sys_open(p.pid, "/t", OpenFlags::WRONLY | OpenFlags::TRUNC) as i32;
    assert_eq!(rig.sys.k_stat("/t").unwrap().size, 0);
    rig.sys.sys_close(p.pid, fd);
}

#[test]
fn readdirplus_on_empty_missing_and_file_targets() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    rig.sys.sys_mkdir(p.pid, "/empty");
    assert_eq!(rig.sys.sys_readdirplus(p.pid, "/empty", p.buf, 100), 0);
    assert_eq!(rig.sys.sys_readdirplus(p.pid, "/missing", p.buf, 100), -2);
    let fd = rig.sys.sys_open(p.pid, "/plain", OpenFlags::CREAT);
    rig.sys.sys_close(p.pid, fd as i32);
    assert_eq!(rig.sys.sys_readdirplus(p.pid, "/plain", p.buf, 100), -20, "ENOTDIR");
    // max caps the result.
    for i in 0..5 {
        let fd = rig.sys.sys_open(p.pid, &format!("/empty/f{i}"), OpenFlags::CREAT);
        rig.sys.sys_close(p.pid, fd as i32);
    }
    assert_eq!(rig.sys.sys_readdirplus(p.pid, "/empty", p.buf, 3), 3);
}

#[test]
fn deep_paths_resolve_and_invalidate() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let mut path = String::new();
    for d in 0..12 {
        path.push_str(&format!("/d{d}"));
        assert_eq!(rig.sys.sys_mkdir(p.pid, &path), 0, "{path}");
    }
    let file = format!("{path}/leaf");
    let fd = rig.sys.sys_open(p.pid, &file, OpenFlags::CREAT);
    assert!(fd >= 0);
    rig.sys.sys_close(p.pid, fd as i32);
    // Rename a middle directory: the dcache path below it must not serve
    // stale entries.
    assert_eq!(rig.sys.sys_rename(p.pid, "/d0/d1", "/d0/dx"), 0);
    assert_eq!(rig.sys.sys_open(p.pid, &file, OpenFlags::RDONLY), -2, "old path gone");
    let moved = file.replace("/d0/d1/", "/d0/dx/");
    let fd = rig.sys.sys_open(p.pid, &moved, OpenFlags::RDONLY);
    assert!(fd >= 0, "new path resolves: {moved} → {fd}");
    rig.sys.sys_close(p.pid, fd as i32);
}

// ---- machine / watchdog ----------------------------------------------------

#[test]
fn watchdog_budget_only_applies_inside_the_kernel() {
    let rig = Rig::memfs();
    let p = rig.user(4096);
    rig.machine.set_kernel_budget(p.pid, Some(1_000)).unwrap();
    // Burn lots of *user* time: no kill.
    rig.machine.charge_user(10_000_000);
    rig.machine.preempt_tick(p.pid).unwrap();
    // Plain syscalls stay under the budget window per entry.
    assert!(rig.sys.sys_getpid(p.pid) >= 0);
    rig.machine.set_kernel_budget(p.pid, None).unwrap();
}

#[test]
fn tlb_direct_mapped_conflicts_still_translate_correctly() {
    let rig = Rig::memfs();
    let m = &rig.machine;
    let asid = m.mem.create_space();
    // Two pages 64 VPNs apart collide in the 64-entry direct-mapped TLB.
    let a = 0x10_0000u64;
    let b = a + 64 * PAGE_SIZE as u64;
    m.mem.map_anon(asid, a, PteFlags::rw()).unwrap();
    m.mem.map_anon(asid, b, PteFlags::rw()).unwrap();
    m.mem.write_virt(asid, a, &[1]).unwrap();
    m.mem.write_virt(asid, b, &[2]).unwrap();
    let mut buf = [0u8; 1];
    for _ in 0..10 {
        m.mem.read_virt(asid, a, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        m.mem.read_virt(asid, b, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }
    assert!(m.mem.tlb.misses() >= 20, "conflict set keeps evicting");
}

// ---- KC language corners ----------------------------------------------------

fn run_kc(src: &str, func: &str, args: &[i64]) -> Result<i64, InterpError> {
    let m = Machine::new(MachineConfig::small_free());
    let prog = parse_program(src).unwrap();
    let info = typecheck(&prog).unwrap();
    let asid = m.mem.create_space();
    const ARENA: u64 = 0x100_0000;
    for i in 0..64 {
        m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
    }
    let module = kucode::kclang::compile(&prog, &info).unwrap();
    let mut vm = Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, 64 * PAGE_SIZE)?;
    vm.run(func, args).map(|o| o.ret)
}

#[test]
fn short_circuit_evaluation_skips_side_effects() {
    let src = r#"
        int hits = 0;
        int bump() { hits = hits + 1; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            int c = 1 && bump();
            int d = 0 || bump();
            return hits * 100 + a + b * 10 + c * 100 + d * 1000;
        }
    "#;
    // bump called exactly twice (c and d).
    assert_eq!(run_kc(src, "main", &[]).unwrap(), 200 + 10 + 100 + 1000);
}

#[test]
fn pointer_to_pointer_and_char_arithmetic() {
    let src = r#"
        int main() {
            int x = 5;
            int *p = &x;
            int **pp = &p;
            **pp = 42;
            char c = 'A';
            c = c + 2;
            return x + c;
        }
    "#;
    assert_eq!(run_kc(src, "main", &[]).unwrap(), 42 + 67);
}

#[test]
fn global_arrays_persist_across_calls() {
    let src = r#"
        int table[8];
        int put(int i, int v) { table[i] = v; return 0; }
        int get(int i) { return table[i]; }
        int main() {
            int i;
            for (i = 0; i < 8; i = i + 1) { put(i, i * 3); }
            return get(2) + get(7);
        }
    "#;
    assert_eq!(run_kc(src, "main", &[]).unwrap(), 6 + 21);
}

#[test]
fn division_truncates_toward_zero_and_modulo_signs() {
    let src = "int f(int a, int b) { return a / b * 100 + a % b; }";
    assert_eq!(run_kc(src, "f", &[7, 2]).unwrap(), 301);
    assert_eq!(run_kc(src, "f", &[-7, 2]).unwrap(), -301, "C semantics");
}

#[test]
fn two_dimensional_arrays_index_correctly() {
    let src = r#"
        int main() {
            int m[3][4];
            int i;
            int j;
            for (i = 0; i < 3; i = i + 1) {
                for (j = 0; j < 4; j = j + 1) { m[i][j] = i * 10 + j; }
            }
            return m[2][3] + m[0][1] * 100;
        }
    "#;
    assert_eq!(run_kc(src, "main", &[]).unwrap(), 23 + 100);
}

#[test]
fn kgcc_catches_2d_array_row_overflow() {
    use kucode::kgcc::{CheckPlan, KgccConfig, KgccHook};
    use std::sync::Arc;

    let src = r#"
        int main() {
            int m[3][4];
            m[3][0] = 1; // row out of range
            return 0;
        }
    "#;
    let m = Arc::new(Machine::new(MachineConfig::small_free()));
    let prog = parse_program(src).unwrap();
    let info = typecheck(&prog).unwrap();
    let module = compile_planned(&prog, &info, &CheckPlan::all_enabled(&prog, &info)).unwrap();
    let hook = KgccHook::new(m.clone(), KgccConfig { charge_sys: false, deinstrument: None });
    let asid = m.mem.create_space();
    const ARENA: u64 = 0x100_0000;
    for i in 0..16 {
        m.mem.map_anon(asid, ARENA + (i * PAGE_SIZE) as u64, PteFlags::rw()).unwrap();
    }
    let mut vm = Vm::new(&m, &module, ExecConfig::flat(asid), ARENA, 16 * PAGE_SIZE).unwrap();
    vm.set_hook(hook.as_ref());
    let err = vm.run("main", &[]).unwrap_err();
    assert!(matches!(err, InterpError::Check(_)), "{err:?}");
}

// ---- shared regions / cosy corners ------------------------------------------

#[test]
fn empty_compound_is_a_cheap_noop() {
    let rig = Rig::memfs();
    let p = rig.user(4096);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 1).unwrap();
    let b = CompoundBuilder::new(&cb, &db);
    b.finish().unwrap();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert!(results.is_empty());
}

#[test]
fn compound_errors_do_not_poison_the_process() {
    let rig = Rig::memfs();
    let p = rig.user(4096);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 1).unwrap();
    // A compound whose op errors (open of a missing file) still completes,
    // returning the errno in-band.
    let mut b = CompoundBuilder::new(&cb, &db);
    let path = b.stage_path("/nope").unwrap();
    b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0)]);
    b.finish().unwrap();
    let results = rig.cosy.submit(p.pid, &cb, &db, &CosyOptions::default()).unwrap();
    assert_eq!(results[0], -2, "ENOENT in-band");
    // The process continues to work normally.
    assert!(rig.sys.sys_getpid(p.pid) >= 0);
}

#[test]
fn sampling_kefence_serves_wrapfs() {
    use kucode::kefence::SamplingKefence;
    let rig = Rig::wrapfs(|m| SamplingKefence::new(m.clone(), 4, OnViolation::Crash));
    let p = rig.user(1 << 16);
    for i in 0..30 {
        let fd = rig.sys.sys_open(p.pid, &format!("/s{i}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, 128);
        rig.sys.sys_close(p.pid, fd as i32);
    }
    assert_eq!(rig.wrapfs.as_ref().unwrap().allocator().name(), "kefence-sampling");
}

// ---- multi-process ----------------------------------------------------------

#[test]
fn two_processes_interleave_with_isolated_fd_tables() {
    let rig = Rig::memfs();
    let a = rig.user(1 << 16);
    let b = rig.user(1 << 16);
    assert_ne!(a.pid, b.pid);

    // Both processes open *different* files; fd numbers collide (both 0)
    // but must refer to per-process open files.
    let fd_a = rig.sys.sys_open(a.pid, "/proc_a", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    let fd_b = rig.sys.sys_open(b.pid, "/proc_b", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    assert_eq!(fd_a, fd_b, "lowest-free fd in each table");

    a.stage(&rig, b"AAAA");
    b.stage(&rig, b"BBBB");
    // Interleave via the scheduler, transaction by transaction.
    for round in 0..6 {
        let who = rig.machine.schedule().expect("two runnable processes");
        let (p, fd, _tag) = if who == a.pid { (&a, fd_a, b'A') } else { (&b, fd_b, b'B') };
        rig.sys.sys_lseek(p.pid, fd, 0, 2);
        assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 4), 4, "round {round}");
    }
    rig.sys.sys_close(a.pid, fd_a);
    rig.sys.sys_close(b.pid, fd_b);

    // Each file contains only its owner's bytes; combined size is 6 rounds
    // + nothing crossed over.
    let sa = rig.sys.k_stat("/proc_a").unwrap().size;
    let sb = rig.sys.k_stat("/proc_b").unwrap().size;
    assert_eq!(sa + sb, 24);
    assert!(rig.machine.stats.snapshot().context_switches >= 5, "round-robin switched");

    // Closing one process's fd does not affect the other's table.
    assert_eq!(rig.sys.open_fds(a.pid), 0);
    assert_eq!(rig.sys.open_fds(b.pid), 0);
}

#[test]
fn killing_one_process_leaves_others_running() {
    let rig = Rig::memfs();
    let a = rig.user(4096);
    let b = rig.user(4096);
    let fd = rig.sys.sys_open(b.pid, "/survivor", OpenFlags::CREAT) as i32;
    rig.machine.kill_process(a.pid).unwrap();
    assert_eq!(rig.sys.sys_getpid(a.pid), -3, "ESRCH");
    assert!(rig.sys.sys_getpid(b.pid) >= 0, "b unaffected");
    assert_eq!(rig.sys.sys_close(b.pid, fd), 0);
    assert_eq!(rig.machine.schedule(), Some(b.pid), "only b runnable");
}

#[test]
fn concurrent_frame_allocation_is_safe_and_exact() {
    use std::sync::Arc;
    let rig = Rig::memfs();
    let m = rig.machine.clone();
    let before = m.mem.phys.allocated();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let m = Arc::clone(&m);
        handles.push(std::thread::spawn(move || {
            let mut frames = Vec::new();
            for _ in 0..500 {
                frames.push(m.mem.phys.alloc_frame().unwrap());
            }
            // Distinctness within the thread.
            let mut sorted: Vec<u32> = frames.iter().map(|f| f.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 500);
            for f in frames {
                m.mem.phys.free_frame(f);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(m.mem.phys.allocated(), before, "exact accounting under races");
}
