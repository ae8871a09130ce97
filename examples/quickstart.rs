//! Quickstart: mark a code region with COSY_START/COSY_END, compile it with
//! Cosy-GCC, and run it in the kernel — one boundary crossing instead of
//! six, with the file data flowing through shared memory.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::collections::HashMap;

use kucode::prelude::*;

/// The application source: copy a file, annotated for Cosy exactly as the
/// paper's §2.3 describes.
const APP: &str = r#"
    int copy_file(int dummy) {
        int flags = 0;
        char buf[4096];
        COSY_START;
        int fd = sys_open("/input.dat", flags);
        int n = sys_read(fd, buf, 4096);
        int out = sys_open("/output.dat", 66);
        int m = sys_write(out, buf, n);
        sys_close(fd);
        sys_close(out);
        COSY_END;
        return m;
    }
"#;

fn main() {
    // 1. Boot the simulated kernel: machine + memfs + syscalls + Cosy.
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);

    // 2. Create the input file with plain system calls.
    p.stage(&rig, b"The quick brown fox jumps over the lazy dog.");
    let fd = rig.sys.sys_open(p.pid, "/input.dat", OpenFlags::WRONLY | OpenFlags::CREAT);
    rig.sys.sys_write(p.pid, fd as i32, p.buf, 45);
    rig.sys.sys_close(p.pid, fd as i32);

    // 3. Cosy-GCC: parse the app and extract the marked region.
    let prog = parse_program(APP).expect("parse");
    let region = extract_compound(&prog, "copy_file").expect("extract");
    println!("Cosy-GCC extracted {} operations from the marked region", region.ops.len());
    println!("  captures: {:?}", region.captures);
    println!("  shared buffers: {:?}", region.buffers);

    // 4. Cosy-Lib: instantiate the compound into the shared buffers.
    let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).expect("compound buffer");
    let db = SharedRegion::new(rig.machine.clone(), p.pid, 2, 1).expect("data buffer");
    let mut builder = CompoundBuilder::new(&cb, &db);
    let mut captures = HashMap::new();
    captures.insert("flags".to_string(), 0i64);
    region.instantiate(&mut builder, &captures).expect("instantiate");
    builder.finish().expect("encode");

    // 5. Submit once (cold caches: the disk read dominates), then measure
    // a warm loop where the crossing/copy savings show.
    let s0 = rig.machine.stats.snapshot();
    let results = rig
        .cosy
        .submit(p.pid, &cb, &db, &CosyOptions::default())
        .expect("compound execution");
    let d = rig.machine.stats.snapshot().delta(&s0);

    println!("\ncompound results: {results:?}");
    println!("boundary crossings used: {} (six syscalls, one trap)", d.crossings);
    println!("bytes copied across the boundary: {}", d.bytes_crossed());

    const ITERS: usize = 200;
    let t0 = rig.machine.clock.snapshot();
    for _ in 0..ITERS {
        rig.cosy
            .submit(p.pid, &cb, &db, &CosyOptions::default())
            .expect("compound execution");
    }
    let cosy_iv = rig.machine.clock.snapshot().delta(&t0);
    let cosy_cpu = cosy_iv.user + cosy_iv.sys;

    // 6. The same work as six classic syscalls per iteration.
    let classic = |path_out: &str| {
        let fd = rig.sys.sys_open(p.pid, "/input.dat", OpenFlags::RDONLY);
        let n = rig.sys.sys_read(p.pid, fd as i32, p.buf, 4096);
        let out = rig.sys.sys_open(p.pid, path_out, OpenFlags::RDWR | OpenFlags::CREAT);
        let m = rig.sys.sys_write(p.pid, out as i32, p.buf, n as usize);
        rig.sys.sys_close(p.pid, fd as i32);
        rig.sys.sys_close(p.pid, out as i32);
        m
    };
    let s0 = rig.machine.stats.snapshot();
    let m = classic("/output2.dat"); // cold write: pay the disk once
    let d = rig.machine.stats.snapshot().delta(&s0);
    println!("\nclassic path: crossings {} bytes {}", d.crossings, d.bytes_crossed());
    assert_eq!(m, results[3], "both paths wrote the same byte count");

    let t0 = rig.machine.clock.snapshot();
    for _ in 0..ITERS {
        classic("/output2.dat");
    }
    let classic_iv = rig.machine.clock.snapshot().delta(&t0);
    let classic_cpu = classic_iv.user + classic_iv.sys;

    println!(
        "\nwarm loop ({ITERS} copies), CPU time (user+sys):\n  \
         syscalls: {classic_cpu} cycles\n  cosy:     {cosy_cpu} cycles\n  \
         → {:.1}% improvement (paper §2.3: 40-90% for CPU-bound syscall mixes)",
        improvement_pct(classic_cpu, cosy_cpu)
    );
    println!(
        "(elapsed including disk: {} vs {} — both pay the same journal I/O)",
        classic_iv.elapsed(),
        cosy_iv.elapsed()
    );

    let st = rig.sys.k_stat("/output.dat").expect("output exists");
    println!("/output.dat size = {} bytes — copy verified", st.size);
}
