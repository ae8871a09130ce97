//! Criterion micro-benchmarks: wall-clock performance of the hot data
//! structures and code paths this reproduction is built on. These verify
//! the implementations are real, competitive code (not cost-model lookup
//! tables): the lock-free ring sustains millions of ops/s, splay lookups
//! exploit locality, compounds encode/decode in sub-microsecond time, and
//! a full simulated syscall dispatch stays in the microsecond range.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use kucode::kclang::Interp;
use kucode::kevents::{EventRecord, EventType};
use kucode::kgcc::SplayTree;
use kucode::prelude::*;

fn ring_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_ring");
    g.throughput(Throughput::Elements(1));
    let ring = EventRing::with_capacity(1 << 12);
    let rec = EventRecord::new(1, EventType::LockAcquire, "b", 1, 0);
    g.bench_function("push_pop", |b| {
        b.iter(|| {
            ring.push(black_box(rec));
            black_box(ring.pop())
        })
    });
    g.finish();
}

fn ring_buffer_mpmc(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_ring_contended");
    g.throughput(Throughput::Elements(1_000));
    g.sample_size(20);
    g.bench_function("4p4c_1000", |b| {
        b.iter(|| {
            let ring = Arc::new(EventRing::with_capacity(1 << 10));
            let rec = EventRecord::new(1, EventType::RefInc, "b", 1, 0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let ring = ring.clone();
                    s.spawn(move || {
                        for _ in 0..250 {
                            while !ring.push(rec) {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
                for _ in 0..4 {
                    let ring = ring.clone();
                    s.spawn(move || {
                        let mut got = 0;
                        while got < 250 {
                            if ring.pop().is_some() {
                                got += 1;
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    });
                }
            });
        })
    });
    g.finish();
}

fn splay_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("splay");
    let mut hot = SplayTree::new();
    for k in 0..10_000u64 {
        hot.insert(k * 64, k);
    }
    hot.get(5_000 * 64);
    g.bench_function("get_hot", |b| {
        b.iter(|| black_box(hot.get(black_box(5_000 * 64)).copied()))
    });

    g.bench_function("get_scan", |b| {
        let mut t = SplayTree::new();
        for k in 0..10_000u64 {
            t.insert(k * 64, k);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 977) % 10_000;
            black_box(t.get(k * 64).copied())
        })
    });

    g.bench_function("insert_remove", |b| {
        let mut t = SplayTree::new();
        for k in 0..10_000u64 {
            t.insert(k * 64, k);
        }
        b.iter(|| {
            t.insert(999_999, 1);
            black_box(t.remove(999_999))
        })
    });
    g.finish();
}

fn compound_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("compound");
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 4, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 4, 1).unwrap();
    let mut b = CompoundBuilder::new(&cb, &db);
    for _ in 0..64 {
        let buf = b.alloc_buf(64).unwrap();
        b.syscall(
            CosyCall::Read,
            vec![CompoundBuilder::lit(3), buf, CompoundBuilder::lit(64)],
        );
    }
    let compound = b.finish().unwrap();
    let bytes = compound.encode();
    g.throughput(Throughput::Elements(64));
    g.bench_function("encode_64ops", |b| b.iter(|| black_box(compound.encode())));
    g.bench_function("decode_64ops", |b| {
        b.iter(|| kucode::cosy::Compound::decode(black_box(&bytes)).unwrap())
    });
    g.finish();
}

fn syscall_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("syscall");
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    g.bench_function("getpid", |b| b.iter(|| black_box(rig.sys.sys_getpid(p.pid))));

    let fd = rig.sys.sys_open(p.pid, "/bench.dat", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
    rig.sys.sys_write(p.pid, fd, p.buf, 4096);
    g.bench_function("pread_4k", |b| {
        b.iter(|| {
            rig.sys.sys_lseek(p.pid, fd, 0, 0);
            black_box(rig.sys.sys_read(p.pid, fd, p.buf, 4096))
        })
    });
    g.finish();
}

fn readdirplus_wallclock(c: &mut Criterion) {
    let mut g = c.benchmark_group("readdirplus_1000files");
    g.sample_size(20);
    let rig = Rig::memfs();
    let p = rig.user(4 << 20);
    rig.sys.sys_mkdir(p.pid, "/d");
    for i in 0..1_000 {
        let fd =
            rig.sys.sys_open(p.pid, &format!("/d/f{i}"), OpenFlags::WRONLY | OpenFlags::CREAT);
        rig.sys.sys_close(p.pid, fd as i32);
    }
    g.bench_function("classic_loop", |b| {
        b.iter(|| {
            let dfd = rig.sys.sys_open(p.pid, "/d", OpenFlags::RDONLY) as i32;
            loop {
                let n = rig.sys.sys_readdir(p.pid, dfd, p.buf, 512);
                if n <= 0 {
                    break;
                }
                let raw = p.fetch(&rig, n as usize * kucode::kvfs::DIRENT_WIRE_BYTES);
                for e in kucode::ksyscall::wire::parse_dirents(&raw, n as usize) {
                    rig.sys.sys_stat(p.pid, &format!("/d/{}", e.name), p.buf + (3 << 20));
                }
            }
            rig.sys.sys_close(p.pid, dfd);
        })
    });
    g.bench_function("consolidated", |b| {
        b.iter(|| black_box(rig.sys.sys_readdirplus(p.pid, "/d", p.buf, 10_000)))
    });
    g.finish();
}

fn allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocators");
    let m = Arc::new(Machine::new(MachineConfig::default()));
    let slab = SlabAllocator::new(m.clone());
    g.bench_function("kmalloc_kfree_80B", |b| {
        b.iter(|| {
            let a = slab.kmalloc(80).unwrap();
            slab.kfree(a).unwrap();
        })
    });
    let kef = Kefence::new(m.clone(), OnViolation::Crash, Protect::Overflow);
    g.bench_function("kefence_alloc_free_80B", |b| {
        b.iter(|| {
            let a = kef.kefence_alloc(80).unwrap();
            kef.kefence_free(a).unwrap();
        })
    });
    g.finish();
}

fn kclang_interp(c: &mut Criterion) {
    let mut g = c.benchmark_group("kclang");
    g.sample_size(30);
    let src = r#"
        int work(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i = i + 1) { acc = acc + i * i % 97; }
            return acc;
        }
    "#;
    g.bench_function("parse_typecheck", |b| {
        b.iter(|| {
            let prog = parse_program(black_box(src)).unwrap();
            black_box(typecheck(&prog).unwrap())
        })
    });

    let m = Arc::new(Machine::new(MachineConfig::default()));
    let prog = parse_program(src).unwrap();
    let info = typecheck(&prog).unwrap();
    let asid = m.mem.create_space();
    for i in 0..8 {
        m.mem
            .map_anon(asid, 0x10_0000 + (i * 4096) as u64, kucode::ksim::PteFlags::rw())
            .unwrap();
    }
    g.bench_function("interp_1k_iters", |b| {
        b.iter(|| {
            let mut interp =
                Interp::new(&m, &prog, &info, ExecConfig::flat(asid), 0x10_0000, 8 * 4096)
                    .unwrap();
            black_box(interp.run("work", &[1_000]).unwrap())
        })
    });
    g.finish();
}

fn kclang_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("kclang_vm");
    g.sample_size(30);
    let src = r#"
        int work(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i = i + 1) { acc = acc + i * i % 97; }
            return acc;
        }
    "#;
    let prog = parse_program(src).unwrap();
    let info = typecheck(&prog).unwrap();
    g.bench_function("compile", |b| {
        b.iter(|| black_box(kucode::kclang::bytecode::compile(&prog, &info).unwrap()))
    });

    let m = Arc::new(Machine::new(MachineConfig::default()));
    let module = kucode::kclang::bytecode::compile(&prog, &info).unwrap();
    let asid = m.mem.create_space();
    for i in 0..8 {
        m.mem
            .map_anon(asid, 0x10_0000 + (i * 4096) as u64, kucode::ksim::PteFlags::rw())
            .unwrap();
    }
    g.bench_function("vm_1k_iters", |b| {
        b.iter(|| {
            let mut vm = kucode::kclang::Vm::new(
                &m,
                &module,
                ExecConfig::flat(asid),
                0x10_0000,
                8 * 4096,
            )
            .unwrap();
            black_box(vm.run("work", &[1_000]).unwrap())
        })
    });
    g.finish();
}

fn cosy_gcc_extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("cosy_gcc");
    let src = r#"
        int f(int flags) {
            char buf[4096];
            COSY_START;
            int fd = sys_open("/x", flags);
            int n = sys_read(fd, buf, 4096);
            int out = sys_open("/y", 66);
            int m = sys_write(out, buf, n);
            sys_close(fd);
            sys_close(out);
            COSY_END;
            return m;
        }
    "#;
    let prog = parse_program(src).unwrap();
    g.bench_function("extract", |b| {
        b.iter(|| black_box(extract_compound(black_box(&prog), "f").unwrap()))
    });

    let region = extract_compound(&prog, "f").unwrap();
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 2, 1).unwrap();
    let mut caps = HashMap::new();
    caps.insert("flags".to_string(), 0i64);
    g.bench_function("instantiate", |b| {
        b.iter(|| {
            let mut builder = CompoundBuilder::new(&cb, &db);
            region.instantiate(&mut builder, &caps).unwrap();
            black_box(builder.finish().unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ring_buffer,
    ring_buffer_mpmc,
    splay_tree,
    compound_codec,
    syscall_dispatch,
    readdirplus_wallclock,
    allocators,
    kclang_interp,
    kclang_vm,
    cosy_gcc_extraction,
);
criterion_main!(benches);
