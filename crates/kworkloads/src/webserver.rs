//! Static-content web serving — the paper's §2.1 motivation made runnable.
//!
//! *"Many Internet applications such as HTTP and FTP servers often perform
//! a common task: read a file from disk and send it over the network ...
//! HTTP servers using these system calls [sendfile/TransmitFile] report
//! performance improvements ranging from 92% to 116%."*
//!
//! The server accepts real `knet` connections from a simulated client
//! process: each request is a NUL-padded document path sent over a stream
//! socket, answered with the document bytes and an access-log line. Five
//! serve paths:
//!
//! * [`ServeMode::Classic`] — `accept`, `recv`, `open`, a `read`+`send`
//!   loop (every chunk crosses the boundary twice), `close`, `shutdown`,
//!   log `write`;
//! * [`ServeMode::Consolidated`] — same shape, but the copy loop collapses
//!   into one `sendfile`: file pages flow into the socket ring without
//!   ever surfacing in user space;
//! * [`ServeMode::OneShot`] — `accept_recv_send_close`, the paper's khttpd
//!   shape: one crossing per whole request;
//! * [`ServeMode::Cosy`] — one compound per request (accept → recv →
//!   open → sendfile → close → shutdown → log write) in a single
//!   crossing, with the identical submission bytes hitting the
//!   translation cache from the second request on;
//! * [`ServeMode::Uring`] — poll-free: the whole batch's ops pile up as
//!   SQEs in the shared kuring rings and drain through **three
//!   `ring_enter` crossings per batch** (accepts, fixed-buffer recvs,
//!   then per-request `open→sendfile→close` chains + shutdown + log
//!   write), completions reaped from the CQ with zero crossings.
//!
//! [`serve`] also takes a CPU count: it runs one worker per simulated CPU
//! against one accept-sharded listener, and the [`WebReport`] gives each
//! worker's cycles and their critical path. One CPU is the plain server.

use cosy::{CompoundBuilder, CosyCall, CosyOptions, SharedRegion};
use ksyscall::OpenFlags;
use kuring::Sqe;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rig::{Rig, UserProc};

/// User CPU per request (header formatting, bookkeeping).
const CPU_PER_REQUEST: u64 = 6_000;

/// Web-serving parameters.
#[derive(Debug, Clone)]
pub struct WebConfig {
    pub seed: u64,
    /// Number of distinct documents.
    pub documents: usize,
    pub doc_min: usize,
    pub doc_max: usize,
    /// Requests to serve.
    pub requests: usize,
    /// Concurrent client connections per batch (also the accept backlog).
    pub connections: usize,
    /// Listening port.
    pub port: u16,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            seed: 80,
            documents: 50,
            doc_min: 2 * 1024,
            doc_max: 24 * 1024,
            requests: 2_000,
            connections: 16,
            port: 8080,
        }
    }
}

/// Which serve path to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    Classic,
    Consolidated,
    Cosy,
    OneShot,
    Uring,
}

/// Serving results.
#[derive(Debug, Clone)]
pub struct WebReport {
    pub requests: u64,
    pub bytes_served: u64,
    pub elapsed_cycles: u64,
    /// CPU cycles (user + sys, no disk wait) spent in the server phase
    /// only — what a capacity benchmark of the *server* measures. The
    /// whole-run `elapsed_cycles` also bills the simulated clients and
    /// background write-back, which a real load generator never charges
    /// to the server. With several workers this is their sum: the total
    /// CPU burned serving.
    pub server_cycles: u64,
    /// Server-phase cycles (user + sys) of each worker, one entry per
    /// CPU: the machine clock's movement over that worker's slices.
    pub cpu_server_cycles: Vec<u64>,
    pub crossings: u64,
    /// Socket-stack counter movement over the run (both processes):
    /// ring-full send EAGAINs and bytes moved, so capacity tables can
    /// report backpressure alongside the cycle numbers.
    pub net: knet::NetStats,
}

impl WebReport {
    /// Requests per simulated second of the whole run.
    pub fn req_per_sec(&self) -> f64 {
        self.per_sec(self.elapsed_cycles)
    }

    /// The busiest worker's server cycles: the simulated wall time of the
    /// server when every worker runs on its own CPU. This is what scales
    /// with CPU count.
    pub fn critical_path_cycles(&self) -> u64 {
        self.cpu_server_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Requests per simulated second of server wall time (the critical
    /// path).
    pub fn critical_path_req_per_sec(&self) -> f64 {
        self.per_sec(self.critical_path_cycles())
    }

    fn per_sec(&self, cycles: u64) -> f64 {
        let secs = ksim::cost::cycles_to_secs(cycles);
        if secs == 0.0 {
            0.0
        } else {
            self.requests as f64 / secs
        }
    }
}

fn doc_path(d: usize) -> String {
    format!("/htdocs/doc{d:04}.html")
}

/// Create the document tree (and warm the page cache, as a long-running
/// server's working set would be).
pub fn setup_docs(rig: &Rig, p: &UserProc, cfg: &WebConfig) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    rig.sys.sys_mkdir(p.pid, "/htdocs");
    let chunk = 4096.min(p.buf_len);
    p.stage(rig, &vec![b'x'; chunk]);
    for d in 0..cfg.documents {
        let size = rng.gen_range(cfg.doc_min..=cfg.doc_max);
        let path = doc_path(d);
        let fd = rig
            .sys
            .sys_open(p.pid, &path, OpenFlags::WRONLY | OpenFlags::CREAT) as i32;
        let mut left = size;
        while left > 0 {
            let n = rig.sys.sys_write(p.pid, fd, p.buf, left.min(chunk));
            left -= n as usize;
        }
        rig.sys.sys_close(p.pid, fd);
    }
    // Warm every document once.
    for d in 0..cfg.documents {
        rig.sys
            .sys_open_read_close(p.pid, &doc_path(d), p.buf, chunk, 0);
    }
}

/// Serve `cfg.requests` requests using `mode` with one worker per CPU
/// (`cpus`, clamped to the machine's), `p` as the server process and a
/// client process spawned internally. Clients connect in batches of
/// `cfg.connections` (rounded up to a multiple of `cpus`); every batch is
/// accepted, served, and drained before the next. The document request
/// sequence is identical across modes and CPU counts (same seed), and the
/// client-side work is identical too, so report deltas isolate the serve
/// path.
///
/// The host drives the workers sequentially — the simulation stays
/// deterministic — but each worker runs bound to its CPU
/// (`Machine::bind_cpu`), so its spawns and sharded structures use that
/// CPU's shard, and the machine clock's movement over its slices is its
/// share of the server cycles.
/// With more than one CPU the listener is SO_REUSEPORT-sharded:
/// connections are routed to the connecting CPU's accept shard and each
/// worker serves its own shard's slice of the batch. Per-batch fixed costs
/// (the poll, the uring enter waves) amortize over a per-worker slice
/// instead of the whole batch, which is exactly where sub-linear scaling
/// comes from.
pub fn serve(rig: &Rig, p: &UserProc, cfg: &WebConfig, mode: ServeMode, cpus: usize) -> WebReport {
    let cpus = cpus.clamp(1, rig.machine.num_cpus());
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let sys = &rig.sys;
    let pid = p.pid;
    let client = rig.user(64 * 1024);
    let cpid = client.pid;
    let chunk = 4096.min(p.buf_len / 4);
    // Per-worker connection slots per batch; the batch is their union.
    let per = cfg.connections.max(1).div_ceil(cpus);
    let conns = per * cpus;

    // Server scratch layout: request bytes at +0, log line at +512, poll
    // results at +1024, read/send chunks at +4096.
    let log_at = p.buf + 512;
    let poll_at = p.buf + 1024;
    let chunk_at = p.buf + 4096;
    {
        let asid = rig.machine.proc_asid(pid).expect("server alive");
        rig.machine
            .mem
            .write_virt(asid, log_at, &[b'L'; 96])
            .expect("stage log line");
    }

    let logfd = sys.sys_open(
        pid,
        "/access.log",
        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::APPEND,
    ) as i32;
    assert!(logfd >= 0);

    // Document sizes, for client-side verification (host bookkeeping).
    let sizes: Vec<u64> = (0..cfg.documents)
        .map(|d| sys.k_stat(&doc_path(d)).expect("doc exists").size)
        .collect();

    let lsd = sys.sys_socket(pid) as i32;
    assert!(lsd >= 0);
    assert_eq!(sys.sys_bind_listen(pid, lsd, cfg.port, conns), 0);
    // One shard behaves exactly like an unsharded listener, so a single
    // worker skips the setup charge.
    if cpus > 1 {
        sys.net()
            .set_accept_sharding(pid, lsd, cpus)
            .expect("shard the accept queue");
    }

    // Cosy setup: the compound is built ONCE — every argument is static
    // (the request path arrives through the socket into the shared
    // buffer), so each request re-submits identical bytes and hits the
    // translation cache from the second request on.
    let regions = if mode == ServeMode::Cosy {
        let cb = SharedRegion::new(rig.machine.clone(), pid, 1, 6).expect("compound buf");
        let db = SharedRegion::new(rig.machine.clone(), pid, 1, 7).expect("data buf");
        {
            let mut b = CompoundBuilder::new(&cb, &db);
            let reqbuf = b.alloc_buf(256).expect("request buffer");
            let logref = b.stage_bytes(&[b'L'; 95]).expect("log line");
            let a = b.syscall(CosyCall::Accept, vec![CompoundBuilder::lit(lsd as i64)]);
            b.syscall(
                CosyCall::Recv,
                vec![
                    CompoundBuilder::result_of(a),
                    reqbuf,
                    CompoundBuilder::lit(256),
                ],
            );
            let f = b.syscall(CosyCall::Open, vec![reqbuf, CompoundBuilder::lit(0)]);
            b.syscall(
                CosyCall::Sendfile,
                vec![
                    CompoundBuilder::result_of(a),
                    CompoundBuilder::result_of(f),
                    CompoundBuilder::lit(cfg.doc_max as i64),
                ],
            );
            b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(f)]);
            b.syscall(CosyCall::Shutdown, vec![CompoundBuilder::result_of(a)]);
            b.syscall(
                CosyCall::Write,
                vec![
                    CompoundBuilder::lit(logfd as i64),
                    logref,
                    CompoundBuilder::lit(96),
                ],
            );
            b.finish().expect("encode");
        }
        Some((cb, db))
    } else {
        None
    };

    // kuring setup: one SQ/CQ pair sized for the widest wave (5 SQEs per
    // connection), per-connection request buffers registered as fixed
    // buffers (recv moves bytes in with zero user copies), plus the staged
    // log line as one more so the access-log write is zero-copy too.
    let req_at = chunk_at;
    let log_buf_idx = conns as u32;
    if mode == ServeMode::Uring {
        assert_eq!(sys.sys_ring_setup(pid, 8 * conns, 8 * conns), 0);
        let mut ranges: Vec<(u64, usize)> =
            (0..conns).map(|i| (req_at + 64 * i as u64, 64)).collect();
        ranges.push((log_at, 96));
        assert_eq!(sys.sys_ring_register(pid, &ranges), ranges.len() as i64);
    }

    let n0 = sys.net().stats();
    let t0 = rig.machine.clock.snapshot();
    let s0 = rig.machine.stats.snapshot();
    let mut bytes_served = 0u64;
    let mut cpu_server_cycles = vec![0u64; cpus];
    let mut done = 0usize;

    while done < cfg.requests {
        let batch = conns.min(cfg.requests - done);
        let count_of = |w: usize| batch / cpus + usize::from(w < batch % cpus);

        // Client phase, per worker CPU: open the batch's connections and
        // send requests. Connections made on CPU `w` land on accept shard
        // `w`.
        let mut pending: Vec<(i32, usize)> = Vec::with_capacity(batch);
        let casid = rig.machine.proc_asid(cpid).expect("client alive");
        for w in 0..cpus {
            let _cpu = rig.machine.bind_cpu(w);
            for _ in 0..count_of(w) {
                let doc = rng.gen_range(0..cfg.documents);
                let csd = sys.sys_socket(cpid) as i32;
                assert!(csd >= 0);
                assert_eq!(sys.sys_connect(cpid, csd, cfg.port), 0);
                let mut req = [0u8; 64];
                let path = doc_path(doc);
                req[..path.len()].copy_from_slice(path.as_bytes());
                rig.machine
                    .mem
                    .write_virt(casid, client.buf, &req)
                    .expect("stage request");
                assert_eq!(sys.sys_send(cpid, csd, client.buf, 64), 64);
                pending.push((csd, doc));
            }
        }

        // Server phase, per worker CPU: one readiness check per slice, then
        // serve each pending connection of the worker's shard. The uring
        // path is poll-free — the accept wave's completions *are* the
        // readiness signal.
        for (w, cpu_cycles) in cpu_server_cycles.iter_mut().enumerate() {
            let slice = count_of(w);
            if slice == 0 {
                continue;
            }
            let _cpu = rig.machine.bind_cpu(w);
            let sp0 = rig.machine.clock.snapshot();
            if mode == ServeMode::Uring {
                serve_batch_uring(
                    rig,
                    p,
                    cfg,
                    slice,
                    w * per,
                    lsd,
                    logfd,
                    req_at,
                    log_buf_idx,
                    &mut bytes_served,
                );
            } else {
                assert!(
                    sys.sys_poll_wait(pid, &[lsd], poll_at) >= 1,
                    "worker {w}'s shard pending"
                );
                for _ in 0..slice {
                    rig.machine.charge_user(CPU_PER_REQUEST);
                    match mode {
                        ServeMode::Classic | ServeMode::Consolidated => {
                            let csd = sys.sys_accept(pid, lsd) as i32;
                            assert!(csd >= 0);
                            assert_eq!(sys.sys_recv(pid, csd, p.buf, 64), 64);
                            let path = read_request(rig, p);
                            let fd = sys.sys_open(pid, &path, OpenFlags::RDONLY) as i32;
                            assert!(fd >= 0);
                            if mode == ServeMode::Classic {
                                loop {
                                    let n = sys.sys_read(pid, fd, chunk_at, chunk);
                                    if n <= 0 {
                                        break;
                                    }
                                    bytes_served += n as u64;
                                    // send(): the chunk crosses back into the kernel.
                                    assert_eq!(sys.sys_send(pid, csd, chunk_at, n as usize), n);
                                }
                            } else {
                                // sendfile: the whole document in one crossing,
                                // file pages moving straight into the socket ring.
                                let n = sys.sys_sendfile(pid, csd, fd, cfg.doc_max);
                                assert!(n > 0);
                                bytes_served += n as u64;
                            }
                            sys.sys_close(pid, fd);
                            sys.sys_shutdown(pid, csd);
                            assert_eq!(sys.sys_write(pid, logfd, log_at, 96), 96);
                        }
                        ServeMode::OneShot => {
                            let n = sys.sys_accept_recv_send_close(pid, lsd, p.buf, 64);
                            assert!(n > 0, "one-shot serve failed: {n}");
                            bytes_served += n as u64;
                            assert_eq!(sys.sys_write(pid, logfd, log_at, 96), 96);
                        }
                        ServeMode::Cosy => {
                            let (cb, db) = regions.as_ref().expect("cosy regions");
                            let results = rig
                                .cosy
                                .submit(pid, cb, db, &CosyOptions::default())
                                .expect("serve compound");
                            let n = results[3];
                            assert!(n > 0, "compound sendfile failed: {n}");
                            bytes_served += n as u64;
                            assert_eq!(results[6], 96, "log line written");
                        }
                        ServeMode::Uring => unreachable!("handled batch-wise above"),
                    }
                }
            }
            let sp = rig.machine.clock.snapshot().delta(&sp0);
            *cpu_cycles += sp.user + sp.sys;
        }

        // Client phase: drain every response and verify its length
        // (unbound and outside every worker's window — load-generator work
        // is not server time).
        for (csd, doc) in pending {
            let mut got = 0u64;
            loop {
                let n = sys.sys_recv(cpid, csd, client.buf, 4096);
                if n <= 0 {
                    assert_eq!(n, 0, "clean EOF after the document");
                    break;
                }
                got += n as u64;
            }
            assert_eq!(got, sizes[doc], "client received the whole document");
            sys.sys_shutdown(cpid, csd);
        }
        done += batch;
    }

    let iv = rig.machine.clock.snapshot().delta(&t0);
    let d = rig.machine.stats.snapshot().delta(&s0);
    sys.sys_shutdown(pid, lsd);
    sys.sys_close(pid, logfd);
    if let Some((cb, db)) = regions {
        let _ = (cb.release(), db.release());
    }
    WebReport {
        requests: cfg.requests as u64,
        bytes_served,
        elapsed_cycles: iv.elapsed(),
        server_cycles: cpu_server_cycles.iter().sum(),
        cpu_server_cycles,
        crossings: d.crossings,
        net: sys.net().stats().delta(&n0),
    }
}

/// One batch through the kuring rings: three `ring_enter` crossings total,
/// independent of the batch width.
///
/// Wave 1 accepts every pending connection; wave 2 receives each request
/// into its registered per-connection buffer (an in-kernel move, zero user
/// copies); wave 3 submits, per request, a linked `open→sendfile→close`
/// chain (the sendfile and close take the opened file fd *from the chain*)
/// plus an unlinked socket shutdown and a fixed-buffer access-log write.
///
/// `slot0` offsets the fixed-buffer slots this batch uses, so workers
/// sharing one registered range table each get a private slice.
#[allow(clippy::too_many_arguments)]
fn serve_batch_uring(
    rig: &Rig,
    p: &UserProc,
    cfg: &WebConfig,
    batch: usize,
    slot0: usize,
    lsd: i32,
    logfd: i32,
    req_at: u64,
    log_buf_idx: u32,
    bytes_served: &mut u64,
) {
    let sys = &rig.sys;
    let pid = p.pid;
    let ring = sys.uring(pid).expect("ring installed at serve start");

    // Wave 1: accepts. user_data = connection slot.
    for i in 0..batch {
        ring.push_sqe(Sqe::accept(lsd, i as u64)).expect("sq room");
    }
    assert_eq!(sys.sys_ring_enter(pid, batch, batch), batch as i64);
    let mut sds = vec![-1i32; batch];
    while let Some(c) = ring.reap_cqe() {
        assert!(c.res >= 0, "accept failed: {}", c.res);
        sds[c.user_data as usize] = c.res as i32;
    }

    // Wave 2: fixed-buffer recvs — request bytes land in the registered
    // ranges without crossing the boundary.
    for (i, &sd) in sds.iter().enumerate() {
        ring.push_sqe(Sqe::recv_fixed(sd, (slot0 + i) as u32, 64, i as u64))
            .expect("sq room");
    }
    assert_eq!(sys.sys_ring_enter(pid, batch, batch), batch as i64);
    while let Some(c) = ring.reap_cqe() {
        assert_eq!(c.res, 64, "whole request received");
    }

    // Wave 3: per request, the dependent chain plus its independents.
    // user_data = slot * 8 + op tag.
    let asid = rig.machine.proc_asid(pid).expect("server alive");
    for (i, &sd) in sds.iter().enumerate() {
        rig.machine.charge_user(CPU_PER_REQUEST);
        let addr = req_at + 64 * (slot0 + i) as u64;
        let mut req = [0u8; 64];
        rig.machine
            .mem
            .read_virt(asid, addr, &mut req)
            .expect("staged request");
        let plen = req.iter().position(|&b| b == 0).unwrap_or(64);
        let ud = (i * 8) as u64;
        ring.push_sqe(Sqe::open(addr, plen as u32, 0, ud).link())
            .expect("sq room");
        ring.push_sqe(Sqe::sendfile_chained(sd, cfg.doc_max as u32, ud + 1).link())
            .expect("sq room");
        ring.push_sqe(Sqe::close(-1, ud + 2).chained())
            .expect("sq room");
        ring.push_sqe(Sqe::shutdown(sd, ud + 3)).expect("sq room");
        ring.push_sqe(Sqe::write_fixed(logfd, log_buf_idx, 96, ud + 4))
            .expect("sq room");
    }
    assert_eq!(
        sys.sys_ring_enter(pid, 5 * batch, 5 * batch),
        (5 * batch) as i64
    );
    while let Some(c) = ring.reap_cqe() {
        match c.user_data % 8 {
            1 => {
                assert!(c.res > 0, "chained sendfile failed: {}", c.res);
                *bytes_served += c.res as u64;
            }
            4 => assert_eq!(c.res, 96, "log line written"),
            _ => assert!(c.res >= 0, "ring op failed: {}", c.res),
        }
    }
}

/// Parse the NUL-padded request path out of the server's receive buffer
/// (host-side bookkeeping: the simulated cost was the recv's copy).
fn read_request(rig: &Rig, p: &UserProc) -> String {
    let asid = rig.machine.proc_asid(p.pid).expect("server alive");
    let mut req = [0u8; 64];
    rig.machine
        .mem
        .read_virt(asid, p.buf, &mut req)
        .expect("read request");
    let end = req.iter().position(|&b| b == 0).unwrap_or(req.len());
    String::from_utf8_lossy(&req[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODES: [ServeMode; 5] = [
        ServeMode::Classic,
        ServeMode::Consolidated,
        ServeMode::OneShot,
        ServeMode::Cosy,
        ServeMode::Uring,
    ];

    fn cfg() -> WebConfig {
        WebConfig {
            documents: 10,
            requests: 48,
            doc_min: 1_024,
            doc_max: 8_192,
            connections: 8,
            ..Default::default()
        }
    }

    /// Serve `cfg` in `mode` on `cpus` workers, on a fresh MemFs rig.
    fn serve_fresh(cfg: &WebConfig, mode: ServeMode, cpus: usize) -> WebReport {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        setup_docs(&rig, &p, cfg);
        serve(&rig, &p, cfg, mode, cpus)
    }

    #[test]
    fn all_modes_serve_identical_bytes() {
        let cfg = cfg();
        let mut served = Vec::new();
        for mode in MODES {
            let r = serve_fresh(&cfg, mode, 1);
            assert_eq!(r.requests, cfg.requests as u64, "{mode:?}");
            // Backpressure surface: data moved through the socket rings
            // (requests in, documents out) with no ring-full stalls at
            // this load.
            assert!(r.net.bytes_queued >= r.bytes_served, "{:?}", r.net);
            assert_eq!(r.net.send_eagains, 0, "{mode:?}: {:?}", r.net);
            served.push(r.bytes_served);
        }
        assert!(served[0] > 0);
        assert!(served.iter().all(|&b| b == served[0]), "{served:?}");
    }

    #[test]
    fn smp_serves_identical_bytes_across_cpu_counts() {
        let cfg = cfg();
        for mode in MODES {
            let mut bytes = Vec::new();
            for cpus in [1usize, 4] {
                let r = serve_fresh(&cfg, mode, cpus);
                assert_eq!(r.requests, cfg.requests as u64, "{mode:?} x{cpus}");
                assert!(r.net.bytes_queued >= r.bytes_served, "{:?}", r.net);
                assert_eq!(r.net.send_eagains, 0, "{mode:?} x{cpus}: {:?}", r.net);
                bytes.push(r.bytes_served);
            }
            assert!(bytes[0] > 0 && bytes[0] == bytes[1], "{mode:?}: {bytes:?}");
        }
    }

    #[test]
    fn crossing_counts_order_as_designed() {
        let cfg = cfg();
        let crossings: Vec<u64> = MODES
            .iter()
            .map(|&mode| serve_fresh(&cfg, mode, 1).crossings)
            .collect();
        // Per request, server-side: Classic = accept + recv + open +
        // 2 per chunk + close + shutdown + log; Consolidated folds the
        // chunk loop into sendfile (7); OneShot = 1 + log (2); Cosy = 1;
        // Uring = 3 per *batch* (< 1 per request once batches widen).
        assert!(crossings[0] > crossings[1], "{crossings:?}");
        assert!(crossings[1] > crossings[2], "{crossings:?}");
        assert!(crossings[2] > crossings[3], "{crossings:?}");
        assert!(crossings[3] > crossings[4], "{crossings:?}");
    }

    #[test]
    fn consolidated_paths_beat_classic_throughput() {
        let cfg = cfg();
        let mut rps = Vec::new();
        let mut server = Vec::new();
        for mode in MODES {
            let r = serve_fresh(&cfg, mode, 1);
            rps.push(r.req_per_sec());
            assert!(r.server_cycles > 0 && r.server_cycles < r.elapsed_cycles);
            server.push(r.server_cycles);
        }
        assert!(rps[1] > rps[0], "sendfile beats classic: {rps:?}");
        assert!(rps[2] > rps[0], "one-shot beats classic: {rps:?}");
        assert!(rps[3] > rps[0], "Cosy beats classic: {rps:?}");
        assert!(rps[4] > rps[0], "uring beats classic: {rps:?}");
        // Server CPU shrinks along the consolidation ladder; batching
        // beats the one-shot consolidated call too.
        assert!(server[0] > server[1] && server[1] > server[2], "{server:?}");
        assert!(server[2] > server[3], "{server:?}");
        assert!(server[4] < server[2], "uring under one-shot: {server:?}");
    }

    #[test]
    fn smp_scaling_shrinks_the_critical_path() {
        let cfg = WebConfig {
            documents: 10,
            requests: 96,
            doc_min: 1_024,
            doc_max: 8_192,
            connections: 16,
            ..Default::default()
        };
        for mode in [ServeMode::Classic, ServeMode::Uring] {
            let r1 = serve_fresh(&cfg, mode, 1);
            let r4 = serve_fresh(&cfg, mode, 4);
            assert!(
                r4.cpu_server_cycles.iter().all(|&c| c > 0),
                "{mode:?}: every worker served: {:?}",
                r4.cpu_server_cycles
            );
            let speedup = r1.critical_path_cycles() as f64 / r4.critical_path_cycles() as f64;
            assert!(
                speedup > 2.0,
                "{mode:?}: 4 CPUs must cut the critical path >2x, got {speedup:.2}"
            );
            // The load stays balanced: no worker does more than twice the
            // least-loaded worker's cycles.
            let max = *r4.cpu_server_cycles.iter().max().unwrap();
            let min = *r4.cpu_server_cycles.iter().min().unwrap();
            assert!(
                max < 2 * min,
                "{mode:?}: imbalance {:?}",
                r4.cpu_server_cycles
            );
        }
    }

    #[test]
    fn serve_reports_are_pinned() {
        // Exact reports on `cfg()`: any drift in the serve path's
        // syscalls, their order or their costs moves one of these.
        // (mode, crossings, server cycles, elapsed cycles, 4-CPU critical path)
        let pins = [
            (ServeMode::Classic, 825, 2_169_634, 3_978_928, 582_308),
            (ServeMode::Consolidated, 663, 1_334_644, 3_143_938, 352_132),
            (ServeMode::OneShot, 423, 914_932, 2_724_226, 247_204),
            (ServeMode::Cosy, 375, 861_654, 2_670_948, 233_668),
            (ServeMode::Uring, 339, 837_184, 2_646_478, 239_944),
        ];
        let net = knet::NetStats {
            connects: 48,
            accepts: 48,
            bytes_queued: 263_591,
            bytes_delivered: 263_591,
            ..Default::default()
        };
        let cfg = cfg();
        for (mode, crossings, server, elapsed, critical4) in pins {
            let r = serve_fresh(&cfg, mode, 1);
            assert_eq!(
                (
                    r.bytes_served,
                    r.crossings,
                    r.server_cycles,
                    r.elapsed_cycles,
                    r.net
                ),
                (260_519, crossings, server, elapsed, net),
                "{mode:?}"
            );
            assert_eq!(r.cpu_server_cycles, [server], "{mode:?}");
            let r4 = serve_fresh(&cfg, mode, 4);
            assert_eq!(r4.critical_path_cycles(), critical4, "{mode:?}");
            // The machine clock's server phase is exactly the per-CPU sum.
            assert_eq!(
                r4.server_cycles,
                r4.cpu_server_cycles.iter().sum::<u64>(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn kjfs_serves_identical_documents_through_sendfile() {
        // The zero-copy sendfile paths must not care which file system
        // backs the documents: serving from the journaled on-disk fs
        // moves the same bytes and leaves a byte-identical tree (docs +
        // access log) to serving from MemFs.
        let cfg = cfg();
        for mode in [ServeMode::Consolidated, ServeMode::Uring] {
            let run = |rig: Rig| {
                let p = rig.user(1 << 16);
                setup_docs(&rig, &p, &cfg);
                let r = serve(&rig, &p, &cfg, mode, 1);
                let img = kvfs::VfsSnapshot::capture(rig.vfs.fs().as_ref()).unwrap();
                (r.bytes_served, img.hash())
            };
            let (mem_bytes, mem_img) = run(Rig::memfs());
            let (kj_bytes, kj_img) = run(Rig::kjfs());
            assert!(mem_bytes > 0, "{mode:?}");
            assert_eq!(mem_bytes, kj_bytes, "{mode:?}: same bytes served");
            assert_eq!(mem_img, kj_img, "{mode:?}: identical tree after serving");
        }
    }

    #[test]
    fn no_descriptors_leak_across_a_run() {
        let cfg = cfg();
        for mode in [ServeMode::Cosy, ServeMode::Uring] {
            let rig = Rig::memfs();
            let p = rig.user(1 << 16);
            setup_docs(&rig, &p, &cfg);
            serve(&rig, &p, &cfg, mode, 1);
            assert_eq!(rig.sys.open_fds(p.pid), 0, "{mode:?}");
            assert_eq!(rig.sys.net().open_socks(p.pid), 0, "{mode:?}");
        }
    }
}
