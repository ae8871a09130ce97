//! `db`: the paper's "user code in the kernel" path, on memfs.
//!
//! A file of 128-byte records plus a pointer-chase index built by
//! [`kworkloads::build_chase_file`]. The query mix:
//!
//! * 50% probes: 32 lseek+read pairs in one Cosy compound with literal
//!   offsets. Every compound is new bytes, so every one misses the
//!   translation cache (which never evicts: each miss adds an entry).
//! * 30% hot scans: one of [`HOT_SCANS`] fixed compounds, resubmitted byte
//!   for byte so they hit the cache. Each reads a record range into the
//!   shared buffer and runs a loaded KC aggregate over the same range in
//!   the kernel VM through `call_user`.
//! * 20% chases: a [`CHASE_HOPS`]-hop index walk by a verified CQE
//!   program, with one `ring_enter`.
//!
//! Probe bytes, scan bytes and the aggregate's sum, and each chase's
//! `(hops, value_sum)` are checked against ground truth.

use std::sync::Arc;
use std::time::Instant;

use cosy::{CompoundBuilder, CosyArg, CosyCall, CosyOptions, SharedRegion};
use kprog::{Attachment, HookClass, ProgEngine, ProgSpec, VerifiedProg};
use ksyscall::OpenFlags;
use kuring::{Sqe, Uring};
use kworkloads::{Rig, UserProc, CHASE_NODE_BYTES};

use crate::counts::{HarnessCounts, Raw};
use crate::trace::Tracer;
use crate::{Measured, Rng, Workload};

const REC: usize = 128;
const PROBE_PAIRS: usize = 32;
pub const HOT_SCANS: usize = 16;
const SCAN_BYTES: usize = 2 * REC;
pub const CHASE_HOPS: usize = 256;
const REC_MOD: u64 = 251;
const WRITE_CHUNK: usize = 64 * 1024;

/// The in-kernel aggregate every hot scan runs: re-read the range through
/// the kernel host and sum it as little-endian 64-bit words (wrapping).
const AGGREGATE_SRC: &str = r#"
    int agg(int fd, int off, int len) {
        int buf[32];
        int i;
        int acc = 0;
        sys_lseek(fd, off, 0);
        int n = sys_read(fd, buf, len);
        for (i = 0; i < n / 8; i = i + 1) { acc = acc + buf[i]; }
        return acc;
    }
"#;

/// Per-CQE chase program with a hop limit: like
/// [`kworkloads::CHASE_CQE_SRC`], but it stops after `state[2]` hops
/// instead of at the chain's terminator.
const CHASE_SRC: &str = r#"
    int f(int *ctx, int *state, int *buf) {
        if (ctx[1] < 16) { return 1; }
        state[0] = state[0] + 1;
        state[1] = state[1] + buf[1];
        if (state[0] < state[2]) {
            if (buf[0] != 0) {
                ctx[2] = buf[0];
                return 2;
            }
        }
        ctx[1] = state[0];
        return 1;
    }
"#;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub records: usize,
    pub chain_nodes: usize,
    pub warmup_ops: usize,
    pub ops: usize,
}

impl Config {
    pub fn new(seed: u64) -> Config {
        Config {
            seed,
            records: 64 * 1024,
            chain_nodes: 4096,
            warmup_ops: 400,
            ops: 4000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Query {
    Probe,
    Scan,
    Chase,
}

/// The query mix, in percent.
const MIX: [(Query, usize); 3] = [(Query::Probe, 50), (Query::Scan, 30), (Query::Chase, 20)];

struct HotScan {
    region: SharedRegion,
    offset: usize,
}

pub struct Db {
    rig: Rig,
    user: UserProc,
    records: Vec<u8>,
    dbfd: i32,
    chasefd: i32,
    /// Chain position → node byte offset, and prefix sums of node values.
    chain_off: Vec<u64>,
    chain_prefix: Vec<u64>,
    probe_cb: SharedRegion,
    data: SharedRegion,
    hot: Vec<HotScan>,
    engine: ProgEngine,
    spec: ProgSpec,
    prog: Arc<VerifiedProg>,
    att: Arc<Attachment>,
    ring: Arc<Uring>,
    rng: Rng,
    /// Measured query sequence.
    sequence: Vec<Query>,
    counts: HarnessCounts,
}

fn record_byte(seed: u64, i: usize, j: usize) -> u8 {
    ((i as u64 * 7 + j as u64 * 13 + seed) % REC_MOD) as u8
}

impl Workload for Db {
    type Config = Config;

    fn setup(cfg: &Config, tr: &Tracer) -> Db {
        let mut rng = Rng::new(cfg.seed, 3);
        let rig = Rig::memfs();
        let user = rig.user(WRITE_CHUNK.max(cfg.chain_nodes * CHASE_NODE_BYTES));
        let (sys, pid) = (&rig.sys, user.pid);

        let records: Vec<u8> = (0..cfg.records)
            .flat_map(|i| (0..REC).map(move |j| record_byte(cfg.seed, i, j)))
            .collect();
        let fd = sys.sys_open(pid, "/records", OpenFlags::WRONLY | OpenFlags::CREAT);
        assert!(fd >= 0);
        for chunk in records.chunks(WRITE_CHUNK) {
            user.stage(&rig, chunk);
            assert_eq!(
                sys.sys_write(pid, fd as i32, user.buf, chunk.len()),
                chunk.len() as i64
            );
        }
        assert_eq!(sys.sys_close(pid, fd as i32), 0);
        let chase = kworkloads::setup_chase(&rig, &user, "/index", cfg.chain_nodes, cfg.seed);
        let (chain_off, chain_prefix) = walk_chain(&chase.bytes);
        assert_eq!(chain_off.len() as u64, chase.hops);
        let dbfd = sys.sys_open(pid, "/records", OpenFlags::RDONLY) as i32;
        let chasefd = sys.sys_open(pid, "/index", OpenFlags::RDONLY) as i32;
        assert!(dbfd >= 0 && chasefd >= 0);

        let agg = tr
            .call("kclang.load_program", || {
                rig.cosy.load_program(AGGREGATE_SRC)
            })
            .expect("aggregate compiles");
        let engine = ProgEngine::new(rig.machine.clone());
        let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(CHASE_NODE_BYTES);
        let prog = tr
            .call("kprog.verify", || engine.load(CHASE_SRC, &spec))
            .expect("chase program verifies");
        let att =
            Arc::new(Attachment::new(rig.machine.clone(), prog.clone()).expect("sandbox maps"));
        sys.attach_cqe_program(pid, att.clone()).expect("attach");
        assert_eq!(sys.sys_ring_setup(pid, 16, 16), 0);
        let ring = sys.uring(pid).expect("ring installed");

        let region = |pages, slot| {
            SharedRegion::new(rig.machine.clone(), pid, pages, slot).expect("shared region")
        };
        let probe_cb = region(1, 2);
        let data = region(1, 3);
        let hot = (0..HOT_SCANS)
            .map(|k| {
                let offset = rng.below(cfg.records - SCAN_BYTES / REC + 1) * REC;
                let region = region(1, 8 + k as u64);
                let mut b = CompoundBuilder::new(&region, &data);
                let lit = |v: usize| CompoundBuilder::lit(v as i64);
                b.syscall(
                    CosyCall::Lseek,
                    vec![lit(dbfd as usize), lit(offset), lit(0)],
                );
                let buf = b.alloc_buf(SCAN_BYTES as u32).expect("data buffer space");
                b.syscall(
                    CosyCall::Read,
                    vec![lit(dbfd as usize), buf, lit(SCAN_BYTES)],
                );
                b.call_user(
                    agg.0,
                    "agg",
                    vec![lit(dbfd as usize), lit(offset), lit(SCAN_BYTES)],
                );
                b.finish().expect("encode hot scan");
                HotScan { region, offset }
            })
            .collect();

        let mut db = Db {
            rig,
            user,
            records,
            dbfd,
            chasefd,
            chain_off,
            chain_prefix,
            probe_cb,
            data,
            hot,
            engine,
            spec,
            prog,
            att,
            ring,
            rng,
            sequence: Vec::new(),
            counts: HarnessCounts::default(),
        };
        // Every hot scan is translated once here, so measured scans hit.
        for k in 0..HOT_SCANS {
            assert!(db.scan(tr, k), "hot scan {k} failed");
        }
        for q in db.rng.deck(cfg.warmup_ops, &MIX) {
            assert!(db.op(tr, q), "warm-up query failed");
        }
        db.sequence = db.rng.deck(cfg.ops, &MIX);
        db
    }

    fn measure(&mut self, tr: &Tracer) -> Measured {
        let sequence = std::mem::take(&mut self.sequence);
        let mut m = Measured {
            lat_ns: Vec::with_capacity(sequence.len()),
            ..Measured::default()
        };
        for &q in &sequence {
            let t = Instant::now();
            let ok = self.op(tr, q);
            m.lat_ns.push(t.elapsed().as_nanos() as u64);
            m.attempted += 1;
            m.failed += u64::from(!ok);
        }
        self.sequence = sequence;
        m
    }

    fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.ring.cq_len() != 0 || self.ring.sq_len() != 0 {
            problems.push("db: ring not drained".into());
        }
        let st = self.att.stats();
        if st.errors != 0 || st.budget_trips != 0 {
            problems.push(format!("db: chase program {st:?}"));
        }
        problems
    }

    fn raw(&self) -> Raw {
        let cache = self.engine.cache_stats();
        Raw {
            prog: self.att.stats(),
            prog_cache_hits: cache.hits,
            prog_cache_misses: cache.misses,
            ..Raw::of(&self.rig, self.counts)
        }
    }
}

/// Walk the chase file from its head: each chain position's node offset,
/// and prefix sums of node values (`prefix[k]` = sum of the first `k`).
fn walk_chain(bytes: &[u8]) -> (Vec<u64>, Vec<u64>) {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let (mut offs, mut prefix) = (Vec::new(), vec![0u64]);
    let mut at = 0usize;
    loop {
        offs.push(at as u64);
        prefix.push(prefix.last().copied().unwrap_or(0) + word(at + 8));
        match word(at) {
            0 => return (offs, prefix),
            next => at = next as usize,
        }
    }
}

impl Db {
    /// One query on seeded targets; false when it failed.
    fn op(&mut self, tr: &Tracer, q: Query) -> bool {
        match q {
            Query::Probe => {
                tr.begin_op("db.probe");
                let ok = self.probe(tr);
                tr.end_op();
                ok
            }
            Query::Scan => {
                let k = self.rng.below(HOT_SCANS);
                tr.begin_op("db.scan");
                let ok = self.scan(tr, k);
                tr.end_op();
                ok
            }
            Query::Chase => {
                let start = self.rng.below(self.chain_off.len() - CHASE_HOPS + 1);
                tr.begin_op("db.chase");
                let ok = self.chase(tr, start);
                tr.end_op();
                ok
            }
        }
    }

    fn probe(&mut self, tr: &Tracer) -> bool {
        let nrec = self.records.len() / REC;
        let recs: Vec<usize> = (0..PROBE_PAIRS).map(|_| self.rng.below(nrec)).collect();
        let bufs = tr.call("cosy.build", || {
            let mut b = CompoundBuilder::new(&self.probe_cb, &self.data);
            let lit = |v: usize| CompoundBuilder::lit(v as i64);
            let bufs: Vec<CosyArg> = recs
                .iter()
                .map(|&r| {
                    b.syscall(
                        CosyCall::Lseek,
                        vec![lit(self.dbfd as usize), lit(r * REC), lit(0)],
                    );
                    let buf = b.alloc_buf(REC as u32).expect("data buffer space");
                    b.syscall(CosyCall::Read, vec![lit(self.dbfd as usize), buf, lit(REC)]);
                    buf
                })
                .collect();
            b.finish().expect("encode probe");
            bufs
        });
        let pid = self.user.pid;
        let Ok(results) = tr.call("cosy.probe_submit", || {
            self.rig
                .cosy
                .submit(pid, &self.probe_cb, &self.data, &CosyOptions::default())
        }) else {
            return false;
        };
        let mut got = vec![0u8; PROBE_PAIRS * REC];
        tr.call("ksim.mem", || self.data.user_read(0, &mut got))
            .expect("data buffer mapped");
        recs.iter().zip(&bufs).enumerate().all(|(i, (&r, buf))| {
            let CosyArg::BufRef { offset, .. } = *buf else {
                return false;
            };
            let offset = offset as usize;
            results[2 * i + 1] == REC as i64
                && got[offset..offset + REC] == self.records[r * REC..(r + 1) * REC]
        })
    }

    fn scan(&mut self, tr: &Tracer, k: usize) -> bool {
        let hot = &self.hot[k];
        let pid = self.user.pid;
        let Ok(results) = tr.call("cosy.scan_submit", || {
            self.rig
                .cosy
                .submit(pid, &hot.region, &self.data, &CosyOptions::default())
        }) else {
            return false;
        };
        let mut got = vec![0u8; SCAN_BYTES];
        tr.call("ksim.mem", || self.data.user_read(0, &mut got))
            .expect("data buffer mapped");
        let truth = &self.records[hot.offset..hot.offset + SCAN_BYTES];
        let sum = truth
            .chunks_exact(8)
            .map(|w| i64::from_le_bytes(w.try_into().expect("8 bytes")))
            .fold(0i64, i64::wrapping_add);
        results == [hot.offset as i64, SCAN_BYTES as i64, sum] && got == truth
    }

    fn chase(&mut self, tr: &Tracer, start: usize) -> bool {
        // The client hands its program in with every query; the
        // verification cache turns the reload into a lookup.
        let prog = tr.call("kprog.load", || self.engine.load(CHASE_SRC, &self.spec));
        if !prog.is_ok_and(|p| Arc::ptr_eq(&p, &self.prog)) {
            return false;
        }
        tr.call("kprog.set_state", || {
            self.att.set_state(&[0, 0, CHASE_HOPS as i64])
        });
        let off = self.chain_off[start];
        self.ring
            .push_sqe(Sqe::read(
                self.chasefd,
                self.user.buf,
                CHASE_NODE_BYTES as u32,
                off,
                1,
            ))
            .expect("SQ has room");
        self.counts.sqes += 1;
        self.counts.enters += 1;
        self.counts.chase_enters += 1;
        let pid = self.user.pid;
        let entered = tr.call("kprog.chase_enter", || {
            self.rig.sys.sys_ring_enter(pid, 1, 1)
        }) == 1;
        let cqe = self.ring.reap_cqe();
        let extra = self.ring.reap_cqe().is_some();
        let state = tr.call("kprog.state", || self.att.state());
        let truth_sum = self.chain_prefix[start + CHASE_HOPS] - self.chain_prefix[start];
        entered
            && !extra
            && cqe.is_some_and(|c| c.res == CHASE_HOPS as i64)
            && state[0] == CHASE_HOPS as i64
            && state[1] as u64 == truth_sum
    }
}
