//! Integration: the differential oracle. Randomized op sequences must
//! behave identically however they reach the kernel: as classic `sys_*`
//! calls, as one uring batch, as one Cosy compound, and as `sys_*`
//! intrinsics from a KC function running in the kernel — the same results,
//! the same errnos, the same file-system state. All four encode into the
//! one dispatcher, so this is the correctness oracle for any boundary
//! mechanism. Every sequence runs on memfs, Wrapfs over memfs, and kjfs
//! in both journal modes, with one open descriptor, and every file system
//! must match memfs too: Unlink followed by OpenCreate reuses the unlinked
//! inode's slot, so the stale-descriptor rule is under test. The classic
//! run repeats with the thread bound to CPU 5, where kalloc's magazines
//! and the run queues use another shard: results, file-system state and
//! the machine clock's elapsed cycles must not move.

use std::fmt::Write as _;

use kucode::kclang::{compile, Module};
use kucode::kuring::{self, Sqe};
use kucode::kvfs::{VfsSnapshot, STAT_WIRE_BYTES};
use kucode::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum FileOp {
    Write(u8),    // write n bytes at the current offset
    SeekSet(u16), // absolute seek
    Read(u8),     // read n bytes
    Fstat,
    Close,
    Unlink,
    OpenMissing,
    OpenCreate, // open("/g", CREAT|RDWR): a fresh fd each time
}

fn arb_op() -> impl Strategy<Value = FileOp> {
    (0u8..17, 1u8..64, 0u16..512).prop_map(|(k, n, off)| match k {
        0..=4 => FileOp::Write(n),
        5..=7 => FileOp::SeekSet(off),
        8..=11 => FileOp::Read(n),
        12 => FileOp::Fstat,
        13 => FileOp::Close,
        14 => FileOp::Unlink,
        15 => FileOp::OpenMissing,
        _ => FileOp::OpenCreate,
    })
}

/// The file systems every sequence runs on.
const FILE_SYSTEMS: [fn() -> Rig; 4] = [
    Rig::memfs,
    Rig::wrapfs_kmalloc,
    || Rig::kjfs_with(KjfsConfig::default().with_mode(JournalMode::GroupCommit)),
    || Rig::kjfs_with(KjfsConfig::default().with_mode(JournalMode::SingleTxn)),
];

/// User memory for the classic and ring runs: payload, paths, and
/// read/stat destinations.
const UBUF: u64 = 0x10_0000;
const PATH: u64 = UBUF + 0x1000;
const MISSING: u64 = UBUF + 0x1100;
const CREATED: u64 = UBUF + 0x1200;
const OUT: u64 = UBUF + 0x2000;

/// A machine on `fs` with `/f` open (as `fd`) and the user buffers staged.
fn setup(fs: fn() -> Rig) -> (Rig, Pid, i32) {
    let rig = fs();
    let (pid, fd) = stage(&rig);
    (rig, pid, fd)
}

/// Spawn the process on `rig`, stage its user buffers and open `/f`.
fn stage(rig: &Rig) -> (Pid, i32) {
    let p = rig.user(1 << 16);
    assert_eq!(p.buf, UBUF);
    let asid = rig.machine.proc_asid(p.pid).unwrap();
    rig.machine.mem.write_virt(asid, UBUF, &[0xCD; 64]).unwrap();
    rig.machine.mem.write_virt(asid, PATH, b"/f\0").unwrap();
    rig.machine.mem.write_virt(asid, MISSING, b"/missing\0").unwrap();
    rig.machine.mem.write_virt(asid, CREATED, b"/g\0").unwrap();
    let fd = rig.sys.k_open(p.pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT).unwrap();
    (p.pid, fd)
}

fn vfs_hash(rig: &Rig) -> u64 {
    VfsSnapshot::capture(rig.vfs.fs().as_ref()).unwrap().hash()
}

/// `ops` as classic `sys_*` calls, setup included, with the thread bound
/// to `cpu` (CPU 0 is where an unbound thread runs): the results and the
/// file-system hash, then the machine clock's elapsed cycles.
fn classic(fs: fn() -> Rig, ops: &[FileOp], cpu: usize) -> ((Vec<i64>, u64), u64) {
    let rig = fs();
    let _cpu = rig.machine.bind_cpu(cpu);
    let (pid, fd) = stage(&rig);
    let sys = &rig.sys;
    let results = ops
        .iter()
        .map(|op| match *op {
            FileOp::Write(n) => sys.sys_write(pid, fd, UBUF, n as usize),
            FileOp::SeekSet(off) => sys.sys_lseek(pid, fd, off as i64, 0),
            FileOp::Read(n) => sys.sys_read(pid, fd, OUT, n as usize),
            FileOp::Fstat => sys.sys_fstat(pid, fd, OUT),
            FileOp::Close => sys.sys_close(pid, fd),
            FileOp::Unlink => sys.sys_unlink(pid, "/f"),
            FileOp::OpenMissing => sys.sys_open(pid, "/missing", OpenFlags::RDONLY),
            FileOp::OpenCreate => sys.sys_open(pid, "/g", OpenFlags(0x42)),
        })
        .collect();
    ((results, vfs_hash(&rig)), rig.machine.clock.elapsed_cycles())
}

fn ring_batch(fs: fn() -> Rig, ops: &[FileOp]) -> (Vec<i64>, u64) {
    let (rig, pid, fd) = setup(fs);
    let sys = &rig.sys;
    assert_eq!(sys.sys_ring_setup(pid, 32, 32), 0);
    let ring = sys.uring(pid).unwrap();
    for (i, op) in ops.iter().enumerate() {
        let tag = i as u64;
        let sqe = match *op {
            FileOp::Write(n) => Sqe::write(fd, UBUF, n as u32, kuring::OFF_CURSOR, tag),
            FileOp::SeekSet(off) => Sqe::lseek(fd, off as i64, 0, tag),
            FileOp::Read(n) => Sqe::read(fd, OUT, n as u32, kuring::OFF_CURSOR, tag),
            FileOp::Fstat => Sqe::fstat(fd, OUT, tag),
            FileOp::Close => Sqe::close(fd, tag),
            FileOp::Unlink => Sqe::unlink(PATH, 2, tag),
            FileOp::OpenMissing => Sqe::open(MISSING, 8, 0, tag),
            FileOp::OpenCreate => Sqe::open(CREATED, 2, 0x42, tag),
        };
        ring.push_sqe(sqe).unwrap();
    }
    assert_eq!(sys.sys_ring_enter(pid, ops.len(), ops.len()), ops.len() as i64);
    let mut results = vec![0; ops.len()];
    while let Some(c) = ring.reap_cqe() {
        results[c.user_data as usize] = c.res;
    }
    (results, vfs_hash(&rig))
}

/// Encode `ops` against `fd` into the compound being built.
fn encode(mut b: CompoundBuilder<'_>, fd: i32, ops: &[FileOp]) {
    let fd = || CompoundBuilder::lit(fd as i64);
    let data = b.stage_bytes(&[0xCD; 64]).unwrap();
    let CosyArg::BufRef { offset: data_off, .. } = data else { unreachable!() };
    let path = b.stage_path("/f").unwrap();
    let missing = b.stage_path("/missing").unwrap();
    let created = b.stage_path("/g").unwrap();
    for op in ops {
        let (call, args) = match *op {
            FileOp::Write(n) => (
                CosyCall::Write,
                vec![
                    fd(),
                    CosyArg::BufRef { offset: data_off, len: n as u32 },
                    CompoundBuilder::lit(n as i64),
                ],
            ),
            FileOp::SeekSet(off) => (
                CosyCall::Lseek,
                vec![fd(), CompoundBuilder::lit(off as i64), CompoundBuilder::lit(0)],
            ),
            FileOp::Read(n) => (
                CosyCall::Read,
                vec![fd(), b.alloc_buf(n as u32).unwrap(), CompoundBuilder::lit(n as i64)],
            ),
            FileOp::Fstat => {
                (CosyCall::Fstat, vec![fd(), b.alloc_buf(STAT_WIRE_BYTES as u32).unwrap()])
            }
            FileOp::Close => (CosyCall::Close, vec![fd()]),
            FileOp::Unlink => (CosyCall::Unlink, vec![path]),
            FileOp::OpenMissing => (CosyCall::Open, vec![missing, CompoundBuilder::lit(0)]),
            FileOp::OpenCreate => (CosyCall::Open, vec![created, CompoundBuilder::lit(0x42)]),
        };
        b.syscall(call, args);
    }
    b.finish().unwrap();
}

fn regions(rig: &Rig, pid: Pid) -> (SharedRegion, SharedRegion) {
    let cb = SharedRegion::new(rig.machine.clone(), pid, 2, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), pid, 4, 1).unwrap();
    (cb, db)
}

fn compound(fs: fn() -> Rig, ops: &[FileOp]) -> (Vec<i64>, u64) {
    let (rig, pid, fd) = setup(fs);
    let (cb, db) = regions(&rig, pid);
    encode(CompoundBuilder::new(&cb, &db), fd, ops);
    let results = rig.cosy.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
    (results, vfs_hash(&rig))
}

/// `ops` as one KC function making the same `sys_*` intrinsic calls on
/// `fd` (its argument), `print_int`ing each call's return value.
fn kc_source(ops: &[FileOp]) -> String {
    let mut calls = String::new();
    for op in ops {
        let call = match *op {
            FileOp::Write(n) => format!("sys_write(fd, data, {n})"),
            FileOp::SeekSet(off) => format!("sys_lseek(fd, {off}, 0)"),
            FileOp::Read(n) => format!("sys_read(fd, out, {n})"),
            FileOp::Fstat => "sys_fstat(fd, out)".to_string(),
            FileOp::Close => "sys_close(fd)".to_string(),
            FileOp::Unlink => r#"sys_unlink("/f")"#.to_string(),
            FileOp::OpenMissing => r#"sys_open("/missing", 0)"#.to_string(),
            FileOp::OpenCreate => r#"sys_open("/g", 66)"#.to_string(),
        };
        writeln!(calls, "    print_int({call});").unwrap();
    }
    // `data` is the 64 bytes of 0xCD (205) the other paths stage.
    format!(
        "int run(int fd) {{\n    char data[64];\n    char out[{STAT_WIRE_BYTES}];\n    int i;\n    \
         for (i = 0; i < 64; i = i + 1) {{ data[i] = 205; }}\n{calls}    return 0;\n}}\n"
    )
}

/// [`kc_source`] compiled for the VM.
fn kc_module(ops: &[FileOp]) -> Module {
    let prog = parse_program(&kc_source(ops)).unwrap();
    let info = typecheck(&prog).unwrap();
    compile(&prog, &info).unwrap()
}

/// Run a [`kc_module`] on the VM in a Cosy kernel arena, as a compound's
/// user function runs: the printed results and the file-system hash.
fn kc_intrinsics(fs: fn() -> Rig, module: &Module) -> (Vec<i64>, u64) {
    let (rig, pid, fd) = setup(fs);
    let (_, printed) =
        rig.cosy.run_function(pid, module, "run", &[fd as i64], &CosyOptions::default()).unwrap();
    (printed, vfs_hash(&rig))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn compound_equals_direct_execution(ops in proptest::collection::vec(arb_op(), 1..20)) {
        let module = kc_module(&ops);
        let memfs = classic(FILE_SYSTEMS[0], &ops, 0);
        for (i, fs) in FILE_SYSTEMS.into_iter().enumerate() {
            let unbound = if i == 0 { memfs.clone() } else { classic(fs, &ops, 0) };
            prop_assert_eq!(&classic(fs, &ops, 5), &unbound, "classic on CPU 5 vs CPU 0, fs {}", i);
            let direct = unbound.0;
            prop_assert_eq!(&direct, &memfs.0, "classic calls, fs {} vs memfs", i);
            prop_assert_eq!(&ring_batch(fs, &ops), &direct, "uring batch vs classic, fs {}", i);
            prop_assert_eq!(&compound(fs, &ops), &direct, "cosy compound vs classic, fs {}", i);
            prop_assert_eq!(&kc_intrinsics(fs, &module), &direct, "KC intrinsics, fs {}", i);
        }
    }

    /// A cache-hit execution must be indistinguishable from a fresh
    /// decode+validate of the same bytes against the same machine
    /// state. Twin machines submit the same compound twice; one clears
    /// the translation cache in between (forcing a re-decode), the
    /// other hits. Results and file state must match exactly.
    #[test]
    fn cached_submission_equals_fresh_decode(ops in proptest::collection::vec(arb_op(), 1..16)) {
        for fs in FILE_SYSTEMS {
            let run_twice = |clear_between: bool| {
                let (rig, pid, fd) = setup(fs);
                let (cb, db) = regions(&rig, pid);
                encode(CompoundBuilder::new(&cb, &db), fd, &ops);
                let r1 = rig.cosy.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
                if clear_between {
                    rig.cosy.clear_translation_cache();
                }
                let r2 = rig.cosy.submit(pid, &cb, &db, &CosyOptions::default()).unwrap();
                let stats = rig.cosy.cache_stats();
                (r1, r2, vfs_hash(&rig), stats)
            };

            let (h1, h2, h_fs, h_stats) = run_twice(false); // second submit hits
            let (f1, f2, f_fs, f_stats) = run_twice(true);  // second submit re-decodes
            prop_assert_eq!(h_stats.hits, 1);
            prop_assert_eq!(h_stats.misses, 1);
            prop_assert_eq!(f_stats.hits, 0);
            prop_assert_eq!(f_stats.misses, 2);
            prop_assert_eq!(h1, f1);
            prop_assert_eq!(h2, f2, "cache hit diverged from fresh decode");
            prop_assert_eq!(h_fs, f_fs);
        }
    }
}
