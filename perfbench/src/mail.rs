//! `mail`: a PostMark-style mail server on kjfs through classic `sys_*`
//! calls, with the default group-commit journal.
//!
//! About [`Config::files`] live files of 0.5–16 KiB sit in 16 directories,
//! and the page cache holds about a quarter of the pool. The operation mix
//! is 40% whole-file read, 25% create+write+fsync+close, 15%
//! append+fsync and 20% unlink. File contents follow one pattern by file
//! offset, so reads are checked byte for byte, and the benchmark keeps a
//! model of every surviving file's size.

use std::time::Instant;

use ksyscall::OpenFlags;
use kworkloads::{Rig, UserProc};

use crate::counts::{HarnessCounts, Raw};
use crate::trace::Tracer;
use crate::{Measured, Rng, Workload};

const DIRS: usize = 16;
const FILE_MIN: u64 = 512;
const FILE_MAX: u64 = 16 * 1024;
const APPEND_MIN: u64 = 512;
const APPEND_MAX: u64 = 4 * 1024;
/// The content pattern repeats with this period; byte `o` of every file
/// is `o % PERIOD`.
const PERIOD: usize = 251;
/// Largest single read or write.
const CHUNK: usize = FILE_MAX as usize;
/// User memory: the pattern at +0 (a write at file offset `o` starts at
/// `o % PERIOD`), the read buffer at +READ_AT.
const READ_AT: u64 = 32 * 1024;
const USER_BYTES: usize = READ_AT as usize + CHUNK;
const PAGE: u64 = 4096;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub files: usize,
    pub warmup_ops: usize,
    pub ops: usize,
}

impl Config {
    pub fn new(seed: u64) -> Config {
        Config {
            seed,
            files: 4000,
            warmup_ops: 500,
            ops: 3000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Create,
    Append,
    Unlink,
}

/// The operation mix, in percent.
const MIX: [(Op, usize); 4] = [
    (Op::Read, 40),
    (Op::Create, 25),
    (Op::Append, 15),
    (Op::Unlink, 20),
];

pub struct Mail {
    rig: Rig,
    user: UserProc,
    pattern: Vec<u8>,
    /// Live files: (id, size).
    live: Vec<(u64, u64)>,
    next_id: u64,
    rng: Rng,
    /// Measured operation sequence.
    sequence: Vec<Op>,
}

fn path(id: u64) -> String {
    format!("/mail/d{:02}/m{id:06}", id as usize % DIRS)
}

impl Workload for Mail {
    type Config = Config;

    fn setup(cfg: &Config, tr: &Tracer) -> Mail {
        let mut rng = Rng::new(cfg.seed, 2);
        let sizes: Vec<u64> = (0..cfg.files)
            .map(|_| rng.range(FILE_MIN, FILE_MAX))
            .collect();
        let pool_pages: u64 = sizes.iter().map(|s| s.div_ceil(PAGE)).sum();
        let rig = Rig::kjfs_with(kjfs::KjfsConfig {
            page_cache_capacity: (pool_pages / 4).max(1) as usize,
            ..kjfs::KjfsConfig::default()
        });
        let user = rig.user(USER_BYTES);
        let pattern: Vec<u8> = (0..READ_AT as usize).map(|i| (i % PERIOD) as u8).collect();
        user.stage(&rig, &pattern);
        assert_eq!(rig.sys.sys_mkdir(user.pid, "/mail"), 0);
        for d in 0..DIRS {
            assert_eq!(rig.sys.sys_mkdir(user.pid, &format!("/mail/d{d:02}")), 0);
        }
        let mut mail = Mail {
            rig,
            user,
            pattern,
            live: Vec::with_capacity(cfg.files * 2),
            next_id: 0,
            sequence: Vec::new(),
            rng,
        };
        // Populate without per-file fsync, then push everything home.
        for size in sizes {
            let id = mail.next_id;
            mail.next_id += 1;
            assert!(mail.write_file(tr, id, size, false), "populate file {id}");
            mail.live.push((id, size));
        }
        mail.rig
            .kjfs
            .as_ref()
            .expect("kjfs root")
            .checkpoint_now()
            .expect("checkpoint");
        for op in mail.rng.deck(cfg.warmup_ops, &MIX) {
            assert!(mail.op(tr, op), "warm-up operation failed");
        }
        mail.sequence = mail.rng.deck(cfg.ops, &MIX);
        mail
    }

    fn measure(&mut self, tr: &Tracer) -> Measured {
        let sequence = std::mem::take(&mut self.sequence);
        let mut m = Measured {
            lat_ns: Vec::with_capacity(sequence.len()),
            ..Measured::default()
        };
        for &op in &sequence {
            let t = Instant::now();
            let ok = self.op(tr, op);
            m.lat_ns.push(t.elapsed().as_nanos() as u64);
            m.attempted += 1;
            m.failed += u64::from(!ok);
        }
        self.sequence = sequence;
        m
    }

    fn check(&self) -> Vec<String> {
        let fs = self.rig.kjfs.as_ref().expect("kjfs root");
        let mut problems: Vec<String> = fs
            .fsck()
            .into_iter()
            .map(|p| format!("mail: fsck: {p}"))
            .collect();
        for &(id, size) in &self.live {
            match self.rig.sys.k_stat(&path(id)) {
                Ok(st) if st.size == size => {}
                other => problems.push(format!(
                    "mail: {} has size {:?}, model says {size}",
                    path(id),
                    other.map(|s| s.size)
                )),
            }
        }
        problems
    }

    fn raw(&self) -> Raw {
        Raw::of(&self.rig, HarnessCounts::default())
    }
}

impl Mail {
    fn sys<R>(&self, tr: &Tracer, f: impl FnOnce(&ksyscall::SyscallLayer) -> R) -> R {
        tr.call("ksyscall.sys_call", || f(&self.rig.sys))
    }

    /// One operation on seeded targets; false when it failed.
    fn op(&mut self, tr: &Tracer, op: Op) -> bool {
        match op {
            Op::Read => {
                let (id, size) = self.live[self.rng.below(self.live.len())];
                tr.begin_op("mail.read");
                let ok = self.read_file(tr, id, size);
                tr.end_op();
                ok
            }
            Op::Create => {
                let id = self.next_id;
                self.next_id += 1;
                let size = self.rng.range(FILE_MIN, FILE_MAX);
                tr.begin_op("mail.create");
                let ok = self.write_file(tr, id, size, true);
                tr.end_op();
                self.live.push((id, size));
                ok
            }
            Op::Append => {
                let idx = self.rng.below(self.live.len());
                let len = self.rng.range(APPEND_MIN, APPEND_MAX);
                tr.begin_op("mail.append");
                let ok = self.append(tr, idx, len);
                tr.end_op();
                ok
            }
            Op::Unlink => {
                let (id, _) = self.live.swap_remove(self.rng.below(self.live.len()));
                tr.begin_op("mail.unlink");
                let ok = self.sys(tr, |s| s.sys_unlink(self.user.pid, &path(id))) == 0;
                tr.end_op();
                ok
            }
        }
    }

    fn write_file(&self, tr: &Tracer, id: u64, size: u64, durable: bool) -> bool {
        let pid = self.user.pid;
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
        let fd = self.sys(tr, |s| s.sys_open(pid, &path(id), flags)) as i32;
        if fd < 0 {
            return false;
        }
        let mut ok =
            self.sys(tr, |s| s.sys_write(pid, fd, self.user.buf, size as usize)) == size as i64;
        if durable {
            ok &= tr.call("ksyscall.fsync", || self.rig.sys.sys_fsync(pid, fd)) == 0;
        }
        ok && self.sys(tr, |s| s.sys_close(pid, fd)) == 0
    }

    fn append(&mut self, tr: &Tracer, idx: usize, len: u64) -> bool {
        let pid = self.user.pid;
        let (id, size) = self.live[idx];
        let fd = self.sys(tr, |s| {
            s.sys_open(pid, &path(id), OpenFlags::WRONLY | OpenFlags::APPEND)
        }) as i32;
        if fd < 0 {
            return false;
        }
        let src = self.user.buf + size % PERIOD as u64;
        let mut ok = self.sys(tr, |s| s.sys_write(pid, fd, src, len as usize)) == len as i64;
        if ok {
            self.live[idx].1 += len;
        }
        ok &= tr.call("ksyscall.fsync", || self.rig.sys.sys_fsync(pid, fd)) == 0;
        ok && self.sys(tr, |s| s.sys_close(pid, fd)) == 0
    }

    fn read_file(&self, tr: &Tracer, id: u64, size: u64) -> bool {
        let pid = self.user.pid;
        let fd = self.sys(tr, |s| s.sys_open(pid, &path(id), OpenFlags::RDONLY)) as i32;
        if fd < 0 {
            return false;
        }
        let (asid, dst) = (
            self.rig.machine.proc_asid(pid).expect("live process"),
            self.user.buf + READ_AT,
        );
        let mut buf = vec![0u8; CHUNK];
        let mut off = 0usize;
        let mut ok = true;
        loop {
            let n = self.sys(tr, |s| s.sys_read(pid, fd, dst, CHUNK));
            if n <= 0 {
                ok &= n == 0;
                break;
            }
            let got = &mut buf[..n as usize];
            tr.call("ksim.mem", || {
                self.rig.machine.mem.read_virt(asid, dst, got)
            })
            .expect("read buffer mapped");
            let start = off % PERIOD;
            ok &= *got == self.pattern[start..start + got.len()];
            off += got.len();
        }
        ok &= off as u64 == size;
        ok && self.sys(tr, |s| s.sys_close(pid, fd)) == 0
    }
}
