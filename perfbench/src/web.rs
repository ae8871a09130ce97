//! `web`: static documents on memfs served over knet through kuring.
//!
//! Clients arrive in batches of [`CONNS`] simulated connections. The
//! server answers a batch with three `ring_enter` crossings: an accept
//! wave, a fixed-buffer recv wave, then per request a linked
//! open→sendfile→close chain plus a socket shutdown and an access-log
//! write. The client checks every body byte. A request's latency runs from
//! its client's connect to its last byte received.

use std::sync::Arc;
use std::time::Instant;

use ksyscall::OpenFlags;
use kuring::{Sqe, Uring};
use kworkloads::{Rig, UserProc};

use crate::counts::{HarnessCounts, Raw};
use crate::trace::Tracer;
use crate::{Measured, Rng, Workload};

/// Simulated connections per batch (also the accept backlog).
pub const CONNS: usize = 16;
const PORT: u16 = 8080;
const REQ_LEN: usize = 64;
const LOG_LEN: usize = 96;
const DOC_MIN: u64 = 2 * 1024;
const DOC_MAX: u64 = 24 * 1024;
/// Client receive buffer: larger than any document.
const CLIENT_BUF: usize = 32 * 1024;
/// Server scratch: request slots at +0, the log line at +LOG_AT.
const LOG_AT: u64 = (CONNS * REQ_LEN) as u64;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub documents: usize,
    pub warmup_requests: usize,
    pub requests: usize,
}

impl Config {
    pub fn new(seed: u64) -> Config {
        Config {
            seed,
            documents: 1024,
            warmup_requests: 2048,
            requests: 16 * 1024,
        }
    }
}

pub struct Web {
    rig: Rig,
    server: UserProc,
    client: UserProc,
    ring: Arc<Uring>,
    lsd: i32,
    logfd: i32,
    docs: Vec<Vec<u8>>,
    /// Measured request sequence: document indices.
    sequence: Vec<usize>,
    served: u64,
    counts: HarnessCounts,
}

fn doc_path(d: usize) -> String {
    format!("/htdocs/doc{d:04}.html")
}

/// `n` popularity ranks drawn from Zipf(1) over `docs` documents.
fn zipf_sequence(rng: &mut Rng, docs: usize, n: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(docs);
    let mut acc = 0.0;
    for k in 1..=docs {
        acc += 1.0 / k as f64;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(docs - 1)
        })
        .collect()
}

impl Workload for Web {
    type Config = Config;

    fn setup(cfg: &Config, tr: &Tracer) -> Web {
        let mut rng = Rng::new(cfg.seed, 1);
        let rig = Rig::memfs();
        let server = rig.user(4096);
        let client = rig.user(CLIENT_BUF);
        let sys = &rig.sys;

        assert_eq!(sys.sys_mkdir(client.pid, "/htdocs"), 0);
        // Sizes by popularity rank are fixed, spread evenly over 2–24 KiB in
        // a scattered order, so the bytes a request moves on average do not
        // depend on the seed; the seed picks which document holds each rank
        // and fills every body.
        let n = cfg.documents;
        let mut by_rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        let mut sizes = vec![0usize; n];
        for (rank, &d) in by_rank.iter().enumerate() {
            let step = (rank * 389) % n;
            sizes[d] =
                (DOC_MIN + step as u64 * (DOC_MAX - DOC_MIN) / (n as u64 - 1).max(1)) as usize;
        }
        let docs: Vec<Vec<u8>> = sizes
            .iter()
            .map(|&len| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect();
        for (d, body) in docs.iter().enumerate() {
            let fd = sys.sys_open(
                client.pid,
                &doc_path(d),
                OpenFlags::WRONLY | OpenFlags::CREAT,
            );
            assert!(fd >= 0, "create document {d}: {fd}");
            for chunk in body.chunks(CLIENT_BUF) {
                client.stage(&rig, chunk);
                assert_eq!(
                    sys.sys_write(client.pid, fd as i32, client.buf, chunk.len()),
                    chunk.len() as i64
                );
            }
            assert_eq!(sys.sys_close(client.pid, fd as i32), 0);
        }

        let logfd = sys.sys_open(
            server.pid,
            "/access.log",
            OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::APPEND,
        ) as i32;
        assert!(logfd >= 0);
        let lsd = sys.sys_socket(server.pid) as i32;
        assert!(lsd >= 0);
        assert_eq!(sys.sys_bind_listen(server.pid, lsd, PORT, CONNS), 0);
        assert_eq!(sys.sys_ring_setup(server.pid, 8 * CONNS, 8 * CONNS), 0);
        // Fixed buffers: one request slot per connection, then the log line.
        let mut ranges: Vec<(u64, usize)> = (0..CONNS)
            .map(|i| (server.buf + (i * REQ_LEN) as u64, REQ_LEN))
            .collect();
        ranges.push((server.buf + LOG_AT, LOG_LEN));
        assert_eq!(
            sys.sys_ring_register(server.pid, &ranges),
            ranges.len() as i64
        );
        let asid = rig.machine.proc_asid(server.pid).expect("server alive");
        rig.machine
            .mem
            .write_virt(asid, server.buf + LOG_AT, &[b'L'; LOG_LEN])
            .expect("log line");
        let ring = sys.uring(server.pid).expect("ring installed");

        let to_doc = |ranks: Vec<usize>| ranks.into_iter().map(|r| by_rank[r]).collect::<Vec<_>>();
        let warmup = to_doc(zipf_sequence(&mut rng, n, cfg.warmup_requests));
        let sequence = to_doc(zipf_sequence(&mut rng, n, cfg.requests));
        let mut web = Web {
            rig,
            server,
            client,
            ring,
            lsd,
            logfd,
            docs,
            sequence,
            served: 0,
            counts: HarnessCounts::default(),
        };
        let mut failed = 0;
        let mut lat = Vec::new();
        for batch in warmup.chunks(CONNS) {
            failed += web.batch(tr, batch, &mut lat);
        }
        assert_eq!(failed, 0, "warm-up requests failed");
        web
    }

    fn measure(&mut self, tr: &Tracer) -> Measured {
        let sequence = std::mem::take(&mut self.sequence);
        let mut m = Measured {
            lat_ns: Vec::with_capacity(sequence.len()),
            ..Measured::default()
        };
        for batch in sequence.chunks(CONNS) {
            m.attempted += batch.len() as u64;
            m.failed += self.batch(tr, batch, &mut m.lat_ns);
        }
        self.sequence = sequence;
        m
    }

    fn check(&self) -> Vec<String> {
        let sys = &self.rig.sys;
        let mut problems = Vec::new();
        match sys.k_stat("/access.log") {
            Ok(st) if st.size == self.served * LOG_LEN as u64 => {}
            other => problems.push(format!(
                "web: access log {:?}, expected {} lines",
                other.map(|s| s.size),
                self.served
            )),
        }
        if sys.open_fds(self.client.pid) != 0 {
            problems.push("web: client sockets left open".into());
        }
        if self.ring.cq_len() != 0 || self.ring.sq_len() != 0 {
            problems.push("web: ring not drained".into());
        }
        problems
    }

    fn raw(&self) -> Raw {
        Raw::of(&self.rig, self.counts)
    }
}

impl Web {
    fn push(&mut self, sqe: Sqe) {
        self.ring
            .push_sqe(sqe)
            .expect("SQ sized for the widest wave");
        self.counts.sqes += 1;
    }

    fn enter(&mut self, tr: &Tracer, n: usize) -> bool {
        self.counts.enters += 1;
        let (sys, pid) = (&self.rig.sys, self.server.pid);
        tr.call("kuring.ring_enter", || sys.sys_ring_enter(pid, n, n)) == n as i64
    }

    /// Serve one batch of requests for documents `docs`; returns how many
    /// failed. Pushes each request's latency onto `lat`.
    fn batch(&mut self, tr: &Tracer, docs: &[usize], lat: &mut Vec<u64>) -> u64 {
        let n = docs.len();
        let mut ok = vec![true; n];
        let mut started = Vec::with_capacity(n);
        let mut csds = Vec::with_capacity(n);
        tr.begin_op("web.batch");
        let (rig, sys, cpid) = (&self.rig, &self.rig.sys, self.client.pid);

        // Client: connect and send each request.
        for (i, &doc) in docs.iter().enumerate() {
            started.push(Instant::now());
            let csd = tr.call("ksyscall.sys_call", || sys.sys_socket(cpid)) as i32;
            let rc = tr.call("ksyscall.sys_call", || sys.sys_connect(cpid, csd, PORT));
            let mut req = [0u8; REQ_LEN];
            let path = doc_path(doc);
            req[..path.len()].copy_from_slice(path.as_bytes());
            tr.call("ksim.mem", || self.client.stage(rig, &req));
            let sent = tr.call("ksyscall.sys_call", || {
                sys.sys_send(cpid, csd, self.client.buf, REQ_LEN)
            });
            ok[i] &= csd >= 0 && rc == 0 && sent == REQ_LEN as i64;
            csds.push(csd);
        }

        // Server wave 1: accepts. user_data = connection slot.
        for i in 0..n {
            self.push(Sqe::accept(self.lsd, i as u64));
        }
        let entered = self.enter(tr, n);
        let mut sds = vec![-1i32; n];
        while let Some(c) = self.ring.reap_cqe() {
            sds[c.user_data as usize] = c.res as i32;
            ok[c.user_data as usize] &= c.res >= 0;
        }
        // Wave 2: fixed-buffer recvs into the registered request slots.
        for (i, &sd) in sds.iter().enumerate() {
            self.push(Sqe::recv_fixed(sd, i as u32, REQ_LEN as u32, i as u64));
        }
        let entered = self.enter(tr, n) && entered;
        while let Some(c) = self.ring.reap_cqe() {
            ok[c.user_data as usize] &= c.res == REQ_LEN as i64;
        }
        // Wave 3: per request, open→sendfile→close linked, plus shutdown
        // and the log write. user_data = slot * 8 + op tag.
        let asid = self
            .rig
            .machine
            .proc_asid(self.server.pid)
            .expect("server alive");
        for (i, &sd) in sds.iter().enumerate() {
            let addr = self.server.buf + (i * REQ_LEN) as u64;
            let mut req = [0u8; REQ_LEN];
            let mem = &self.rig.machine.mem;
            tr.call("ksim.mem", || mem.read_virt(asid, addr, &mut req))
                .expect("request slot mapped");
            let plen = req.iter().position(|&b| b == 0).unwrap_or(REQ_LEN) as u32;
            let ud = (i * 8) as u64;
            self.push(Sqe::open(addr, plen, 0, ud).link());
            self.push(Sqe::sendfile_chained(sd, DOC_MAX as u32, ud + 1).link());
            self.push(Sqe::close(-1, ud + 2).chained());
            self.push(Sqe::shutdown(sd, ud + 3));
            self.push(Sqe::write_fixed(
                self.logfd,
                CONNS as u32,
                LOG_LEN as u32,
                ud + 4,
            ));
        }
        let entered = self.enter(tr, 5 * n) && entered;
        while let Some(c) = self.ring.reap_cqe() {
            let i = (c.user_data / 8) as usize;
            ok[i] &= match c.user_data % 8 {
                1 => c.res == self.docs[docs[i]].len() as i64,
                4 => c.res == LOG_LEN as i64,
                _ => c.res >= 0,
            };
        }
        self.served += n as u64;

        // Client: drain each response and check it byte for byte.
        let (rig, sys) = (&self.rig, &self.rig.sys);
        for (i, &csd) in csds.iter().enumerate() {
            let body = &self.docs[docs[i]];
            let mut got = 0usize;
            loop {
                let r = tr.call("ksyscall.sys_call", || {
                    sys.sys_recv(cpid, csd, self.client.buf, CLIENT_BUF)
                });
                if r <= 0 {
                    ok[i] &= r == 0;
                    break;
                }
                let bytes = tr.call("ksim.mem", || self.client.fetch(rig, r as usize));
                ok[i] &= body.get(got..got + bytes.len()) == Some(&bytes[..]);
                got += bytes.len();
            }
            ok[i] &= got == body.len();
            lat.push(started[i].elapsed().as_nanos() as u64);
            ok[i] &= tr.call("ksyscall.sys_call", || sys.sys_shutdown(cpid, csd)) == 0;
        }
        tr.end_op();
        if !entered {
            ok.iter_mut().for_each(|o| *o = false);
        }
        ok.iter().filter(|&&o| !o).count() as u64
    }
}
