//! An Am-utils-like compile workload.
//!
//! The paper's CPU-intensive benchmark is "an Am-utils compile": unpack a
//! source tree, then compile it — for each translation unit the compiler
//! stats and reads the source and a pile of headers, burns CPU, and writes
//! an object file; a link pass reads the objects back and writes binaries.
//! What matters for E5/E7 is the *shape*: many small metadata operations
//! and small-file I/O through the (possibly instrumented) file-system
//! layer, dominated by user CPU — so a small per-operation overhead in the
//! fs layer shows up as a small elapsed-time overhead.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ksim::clock::ClockSnapshot;
use ksim::stats::StatsSnapshot;
use ksyscall::OpenFlags;

use crate::rig::{Rig, UserProc};

/// Compile-workload parameters.
#[derive(Debug, Clone)]
pub struct CompileConfig {
    pub seed: u64,
    /// Translation units to compile.
    pub source_files: usize,
    /// Shared headers in the include tree.
    pub header_count: usize,
    /// Headers included (stat + read) per translation unit.
    pub headers_per_file: usize,
    pub avg_source_bytes: usize,
    /// User CPU cycles burned per KiB of source compiled (the compiler).
    pub cpu_cycles_per_kib: u64,
}

impl Default for CompileConfig {
    fn default() -> Self {
        CompileConfig {
            seed: 61,
            source_files: 120,
            header_count: 40,
            headers_per_file: 12,
            avg_source_bytes: 8 * 1024,
            // Am-utils-era cc1 compiled a few KiB/ms on the P4: dominate
            // elapsed time with user CPU as the paper's runs did.
            cpu_cycles_per_kib: 1_200_000,
        }
    }
}

/// Run results.
#[derive(Debug, Clone)]
pub struct CompileReport {
    pub files_compiled: u64,
    pub objects_written: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub elapsed: ClockSnapshot,
    pub stats: StatsSnapshot,
}

/// Run the compile workload.
pub fn run_compile(rig: &Rig, proc: &UserProc, cfg: &CompileConfig) -> CompileReport {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sys = &rig.sys;
    let pid = proc.pid;
    let chunk = 4096.min(proc.buf_len);

    // --- "unpack": create the tree ---------------------------------------
    for d in ["/src", "/include", "/obj"] {
        let ret = sys.sys_mkdir(pid, d);
        assert!(ret == 0 || ret == -17);
    }
    let block: Vec<u8> = (0..chunk).map(|i| (i % 127) as u8).collect();
    proc.stage(rig, &block);

    let write_file = |path: &str, size: usize| {
        let fd = sys.sys_open(pid, path, OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC);
        assert!(fd >= 0);
        let mut left = size;
        while left > 0 {
            let n = sys.sys_write(pid, fd as i32, proc.buf, left.min(chunk));
            assert!(n > 0);
            left -= n as usize;
        }
        sys.sys_close(pid, fd as i32);
        size as u64
    };

    let mut setup_bytes = 0u64;
    for h in 0..cfg.header_count {
        setup_bytes += write_file(&format!("/include/h{h}.h"), 1024 + (h % 7) * 512);
    }
    let mut source_sizes = Vec::with_capacity(cfg.source_files);
    for sfile in 0..cfg.source_files {
        let size = (cfg.avg_source_bytes / 2) + rng.gen_range(0..cfg.avg_source_bytes);
        setup_bytes += write_file(&format!("/src/f{sfile}.c"), size);
        source_sizes.push(size);
    }
    let _ = setup_bytes;

    // --- measured window: the compile itself ------------------------------
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let mut report = CompileReport {
        files_compiled: 0,
        objects_written: 0,
        bytes_read: 0,
        bytes_written: 0,
        elapsed: ClockSnapshot::default(),
        stats: StatsSnapshot::default(),
    };

    let read_whole = |path: &str, report: &mut CompileReport| {
        let fd = sys.sys_open(pid, path, OpenFlags::RDONLY);
        assert!(fd >= 0, "open {path}");
        loop {
            let n = sys.sys_read(pid, fd as i32, proc.buf, chunk);
            if n <= 0 {
                break;
            }
            report.bytes_read += n as u64;
        }
        sys.sys_close(pid, fd as i32);
    };

    for (sfile, &size) in source_sizes.iter().enumerate() {
        let src = format!("/src/f{sfile}.c");
        // The build system stats before deciding to rebuild.
        assert_eq!(sys.sys_stat(pid, &src, proc.buf + (proc.buf_len - 128) as u64), 0);
        read_whole(&src, &mut report);
        // Include processing: stat + read a subset of headers.
        for _ in 0..cfg.headers_per_file {
            let h = rng.gen_range(0..cfg.header_count);
            let hdr = format!("/include/h{h}.h");
            sys.sys_stat(pid, &hdr, proc.buf + (proc.buf_len - 128) as u64);
            read_whole(&hdr, &mut report);
        }
        // cc1: burn user CPU proportional to the source size.
        rig.machine
            .charge_user(cfg.cpu_cycles_per_kib * (size as u64).div_ceil(1024));
        // Emit the object (~60% of source size).
        report.bytes_written += write_file(&format!("/obj/f{sfile}.o"), size * 6 / 10);
        report.objects_written += 1;
        report.files_compiled += 1;
    }

    // Link pass: read every object, write one binary.
    for sfile in 0..cfg.source_files {
        read_whole(&format!("/obj/f{sfile}.o"), &mut report);
    }
    rig.machine.charge_user(cfg.cpu_cycles_per_kib * 64);
    report.bytes_written += write_file("/obj/amd", cfg.source_files * 2_048);

    report.elapsed = rig.machine.clock.snapshot().delta(&t0);
    report.stats = rig.machine.stats.snapshot().delta(&s0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CompileConfig {
        CompileConfig {
            source_files: 15,
            header_count: 8,
            headers_per_file: 4,
            avg_source_bytes: 4 * 1024,
            ..Default::default()
        }
    }

    #[test]
    fn compile_runs_to_completion() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        let r = run_compile(&rig, &p, &small());
        assert_eq!(r.files_compiled, 15);
        assert_eq!(r.objects_written, 15);
        assert!(r.bytes_read > 0 && r.bytes_written > 0);
        // CPU-bound: user time dominates the measured window.
        assert!(
            r.elapsed.user > r.elapsed.sys,
            "user {} vs sys {}",
            r.elapsed.user,
            r.elapsed.sys
        );
        assert_eq!(rig.sys.open_fds(p.pid), 0);
    }

    #[test]
    fn compile_is_deterministic() {
        let run = || {
            let rig = Rig::memfs();
            let p = rig.user(1 << 16);
            let r = run_compile(&rig, &p, &small());
            (r.bytes_read, r.bytes_written, r.elapsed.elapsed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compile_over_wrapfs_produces_allocation_traffic() {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        run_compile(&rig, &p, &small());
        let allocs = rig.wrapfs.as_ref().unwrap().alloc_stats().allocs;
        assert!(allocs > 200, "got {allocs}");
    }
}
