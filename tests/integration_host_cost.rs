//! Integration: host cost as exact counts that reproduce on any machine.
//!
//! A counting global allocator pins how many heap allocations one warm op
//! makes on each of the five paths into `SyscallLayer::dispatch`: a
//! classic `sys_*` call, one SQE per `sys_ring_enter`, a one-op Cosy
//! compound, a KC `sys_*` intrinsic under `KernelHost`, and a CQE
//! program's resubmit. Each is measured for a read, a write, an
//! open+close and an fsync, on memfs and on kjfs. One extra allocation on
//! any path moves its cells and fails the table. Wall-clock rates swing
//! with machine load, so they are reported (A11) but not gated; these
//! counts do not swing.
//!
//! The same allocator shows that a verified-program chase allocates the
//! same whatever its hop count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kucode::cosy::KernelHost;
use kucode::kclang::{compile, parse_program, typecheck, ExecConfig, Vm};
use kucode::kprog::{Attachment, HookClass, ProgEngine, ProgSpec};
use kucode::ksim::{PteFlags, PAGE_SIZE};
use kucode::ksyscall::layer::SEEK_SET;
use kucode::kworkloads::{setup_chase, CHASE_NODE_BYTES};
use kucode::prelude::*;

/// Counts the allocations made on the thread that switched counting on,
/// so the test harness's own threads do not disturb the figure.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get))
}

/// Warm heap allocations per op. Rows, in order: classic `sys_*`, one
/// SQE per `ring_enter`, one-op Cosy compound, KC intrinsic under
/// `KernelHost`, CQE-program resubmit. Columns: read, write, open+close,
/// fsync. `None` where the path cannot express the op: KC has no
/// `sys_fsync` intrinsic, and a resubmit repeats its SQE, so a
/// resubmitted open would leak its first descriptor.
type Table = [[Option<u64>; 4]; 5];

/// The columns, as indices into a row.
const READ: usize = 0;
const WRITE: usize = 1;
const OPEN_CLOSE: usize = 2;
const FSYNC: usize = 3;
const COLUMNS: [usize; 4] = [READ, WRITE, OPEN_CLOSE, FSYNC];

const MEMFS: Table = [
    [Some(0), Some(0), Some(0), Some(0)],
    [Some(1), Some(1), Some(2), Some(1)],
    [Some(4), Some(6), Some(8), Some(5)],
    [Some(0), Some(0), Some(2), None],
    [Some(1), Some(1), None, Some(1)],
];

const KJFS: Table = [
    [Some(0), Some(0), Some(0), Some(20)],
    [Some(1), Some(1), Some(2), Some(21)],
    [Some(4), Some(6), Some(8), Some(25)],
    [Some(0), Some(0), Some(2), None],
    [Some(1), Some(1), None, Some(21)],
];

/// Bytes each read or write moves.
const IO: usize = 64;
/// The file every op targets; created with `FILE_LEN` bytes.
const PATH: &str = "/hc";
const FILE_LEN: usize = 4096;
/// Runs of an op before any is counted: pools, caches and the interner
/// reach their steady state.
const WARM: usize = 3;
/// Counted runs after the warm-up. A kjfs commit now and then also grows
/// a journal vector, which amortises to nothing per op, so a cell is the
/// fewest allocations any counted run made. An allocation added to a path
/// shows up in every run, and so in the cell.
const RUNS: usize = 4;

/// A CQE program that resubmits every completion once, at the same
/// offset, and posts the second completion.
const RESUBMIT_ONCE_SRC: &str = r#"
    int f(int *ctx, int *state, int *buf) {
        state[0] = 1 - state[0];
        if (state[0] == 1) { return 2; }
        return 1;
    }
"#;

/// The KC intrinsic row: one `sys_*` call per function.
const INTRINSICS_SRC: &str = r#"
    int rd(int fd) { char b[64]; return sys_read(fd, b, 64); }
    int wr(int fd) { char b[64]; return sys_write(fd, b, 64); }
    int oc() { int fd = sys_open("/hc", 2); return sys_close(fd); }
"#;

/// A process with `PATH` open as `fd`, a ring, the path staged in user
/// memory at `path_at`, and one Cosy compound/data region pair.
struct Fixture {
    rig: Rig,
    p: UserProc,
    fd: i32,
    ring: Arc<Uring>,
    path_at: u64,
    cb: SharedRegion,
    db: SharedRegion,
}

impl Fixture {
    fn new(rig: Rig) -> Fixture {
        let p = rig.user(1 << 16);
        p.stage(&rig, &[0x5A; FILE_LEN]);
        let sys = &rig.sys;
        let fd = sys.sys_open(p.pid, PATH, OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        assert_eq!(sys.sys_write(p.pid, fd, p.buf, FILE_LEN), FILE_LEN as i64);
        let path_at = p.buf + FILE_LEN as u64;
        let asid = rig.machine.proc_asid(p.pid).unwrap();
        rig.machine.mem.write_virt(asid, path_at, b"/hc\0").unwrap();
        assert_eq!(sys.sys_ring_setup(p.pid, 8, 8), 0);
        let ring = sys.uring(p.pid).unwrap();
        let cb = SharedRegion::new(rig.machine.clone(), p.pid, 1, 0).unwrap();
        let db = SharedRegion::new(rig.machine.clone(), p.pid, 1, 1).unwrap();
        Fixture {
            rig,
            p,
            fd,
            ring,
            path_at,
            cb,
            db,
        }
    }

    /// Steady-state allocations of column `op`. `run` performs the op
    /// once and returns its result and its own count; before each run the
    /// file is rewound, and before an fsync dirtied, outside the count.
    fn cell(&self, op: usize, mut run: impl FnMut() -> (i64, u64)) -> u64 {
        let (sys, pid, fd) = (&self.rig.sys, self.p.pid, self.fd);
        let mut once = || {
            if op == FSYNC {
                assert_eq!(sys.sys_write(pid, fd, self.p.buf, IO), IO as i64);
            }
            assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), 0);
            let (res, n) = run();
            assert!(res >= 0, "column {op} failed: {res}");
            n
        };
        for _ in 0..WARM {
            once();
        }
        (0..RUNS).map(|_| once()).min().unwrap()
    }

    /// One SQE through one `ring_enter`, pushed and reaped inside the
    /// count. Returns the completion's result and the count.
    fn enter(&self, sqe: Sqe) -> (i64, u64) {
        let pid = self.p.pid;
        let (res, n) = allocs_in(|| {
            self.ring.push_sqe(sqe).unwrap();
            assert_eq!(self.rig.sys.sys_ring_enter(pid, 1, 1), 1);
            self.ring.reap_cqe().expect("one completion").res
        });
        assert!(self.ring.reap_cqe().is_none());
        (res, n)
    }

    /// Column `op` as SQEs, one per enter.
    fn ring_op(&self, op: usize) -> (i64, u64) {
        let (fd, buf) = (self.fd, self.p.buf);
        match op {
            READ => self.enter(Sqe::read(fd, buf, IO as u32, 0, 0)),
            WRITE => self.enter(Sqe::write(fd, buf, IO as u32, 0, 0)),
            OPEN_CLOSE => {
                let flags = OpenFlags::RDWR.0;
                let (opened, n) = self.enter(Sqe::open(self.path_at, PATH.len() as u32, flags, 0));
                assert!(opened >= 0);
                let (closed, m) = self.enter(Sqe::close(opened as i32, 0));
                (closed, n + m)
            }
            _ => self.enter(Sqe::fsync(fd, false, 0)),
        }
    }

    /// Build a one-op compound (uncounted), then submit it (counted).
    fn compound(
        &self,
        call: CosyCall,
        args: impl FnOnce(&mut CompoundBuilder) -> Vec<CosyArg>,
    ) -> (i64, u64) {
        let mut b = CompoundBuilder::new(&self.cb, &self.db);
        let args = args(&mut b);
        b.syscall(call, args);
        b.finish().unwrap();
        let opts = CosyOptions::default();
        let (res, n) = allocs_in(|| self.rig.cosy.submit(self.p.pid, &self.cb, &self.db, &opts));
        (res.unwrap()[0], n)
    }

    fn classic_row(&self) -> [Option<u64>; 4] {
        let (sys, pid, fd, buf) = (&self.rig.sys, self.p.pid, self.fd, self.p.buf);
        COLUMNS.map(|op| {
            Some(self.cell(op, || {
                allocs_in(|| match op {
                    READ => sys.sys_read(pid, fd, buf, IO),
                    WRITE => sys.sys_write(pid, fd, buf, IO),
                    OPEN_CLOSE => {
                        sys.sys_close(pid, sys.sys_open(pid, PATH, OpenFlags::RDWR) as i32)
                    }
                    _ => sys.sys_fsync(pid, fd),
                })
            }))
        })
    }

    fn sqe_row(&self) -> [Option<u64>; 4] {
        COLUMNS.map(|op| Some(self.cell(op, || self.ring_op(op))))
    }

    fn cosy_row(&self) -> [Option<u64>; 4] {
        let fd = || CompoundBuilder::lit(self.fd as i64);
        let lit = |v: usize| CompoundBuilder::lit(v as i64);
        COLUMNS.map(|op| {
            Some(self.cell(op, || match op {
                READ => self.compound(CosyCall::Read, |b| {
                    vec![fd(), b.alloc_buf(IO as u32).unwrap(), lit(IO)]
                }),
                WRITE => self.compound(CosyCall::Write, |b| {
                    vec![fd(), b.stage_bytes(&[0xC3; IO]).unwrap(), lit(IO)]
                }),
                OPEN_CLOSE => {
                    let (opened, n) = self.compound(CosyCall::Open, |b| {
                        vec![b.stage_path(PATH).unwrap(), lit(2)]
                    });
                    assert!(opened >= 0);
                    let (closed, m) =
                        self.compound(CosyCall::Close, |_| vec![CompoundBuilder::lit(opened)]);
                    (closed, n + m)
                }
                _ => self.compound(CosyCall::Fsync, |_| vec![fd(), lit(0)]),
            }))
        })
    }

    fn intrinsic_row(&self) -> [Option<u64>; 4] {
        let m = &self.rig.machine;
        let prog = parse_program(INTRINSICS_SRC).unwrap();
        let module = compile(&prog, &typecheck(&prog).unwrap()).unwrap();
        let (asid, arena) = (m.kernel_asid(), 0x5000_0000u64);
        for i in 0..4 {
            m.mem
                .map_anon(asid, arena + (i * PAGE_SIZE) as u64, PteFlags::rw())
                .unwrap();
        }
        let host = KernelHost {
            sys: self.rig.sys.clone(),
            pid: self.p.pid,
        };
        let mut vm = Vm::new(m, &module, ExecConfig::flat(asid), arena, 4 * PAGE_SIZE).unwrap();
        vm.set_host(&host);
        let mut op = |op: usize, func: &str, args: &[i64]| {
            let f = module.func_by_name(func).unwrap();
            Some(self.cell(op, || allocs_in(|| vm.run_func(f, args).unwrap().ret)))
        };
        let fd = self.fd as i64;
        [
            op(READ, "rd", &[fd]),
            op(WRITE, "wr", &[fd]),
            op(OPEN_CLOSE, "oc", &[]),
            None,
        ]
    }

    fn resubmit_row(&self) -> [Option<u64>; 4] {
        let engine = ProgEngine::new(self.rig.machine.clone());
        let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(0);
        let prog = engine.load(RESUBMIT_ONCE_SRC, &spec).unwrap();
        let att = Arc::new(Attachment::new(self.rig.machine.clone(), prog).unwrap());
        self.rig
            .sys
            .attach_cqe_program(self.p.pid, att.clone())
            .unwrap();
        let row = COLUMNS.map(|op| (op != OPEN_CLOSE).then(|| self.cell(op, || self.ring_op(op))));
        self.rig.sys.detach_cqe_program(self.p.pid);
        let stats = att.stats();
        assert_eq!(stats.errors, 0);
        let enters = 3 * (WARM + RUNS) as u64;
        assert_eq!(
            stats.invocations,
            2 * enters,
            "every completion resubmitted once"
        );
        row
    }

    fn table(&self) -> Table {
        [
            self.classic_row(),
            self.sqe_row(),
            self.cosy_row(),
            self.intrinsic_row(),
            self.resubmit_row(),
        ]
    }
}

#[test]
fn warm_op_allocations_are_pinned_on_memfs() {
    assert_eq!(Fixture::new(Rig::memfs()).table(), MEMFS);
}

#[test]
fn warm_op_allocations_are_pinned_on_kjfs() {
    assert_eq!(Fixture::new(Rig::kjfs()).table(), KJFS);
}

/// The chase CQE program with a hop limit in `state[2]`.
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

/// One `sys_ring_enter` whose CQE program walks 16 hops makes exactly as
/// many heap allocations as one that walks 256: each hop reuses the
/// attachment's VM buffers and a scratch-pool data window instead of
/// allocating its own.
#[test]
fn chase_allocations_do_not_depend_on_hop_count() {
    let rig = Rig::memfs();
    let p = rig.user(1 << 16);
    setup_chase(&rig, &p, "/index", 512, 11);
    let fd = rig.sys.sys_open(p.pid, "/index", OpenFlags::RDONLY) as i32;
    assert_eq!(rig.sys.sys_ring_setup(p.pid, 16, 16), 0);
    let ring = rig.sys.uring(p.pid).unwrap();
    let engine = ProgEngine::new(rig.machine.clone());
    let spec = ProgSpec::new(HookClass::UringCqe, "f").with_buf_len(CHASE_NODE_BYTES);
    let prog = engine.load(CHASE_SRC, &spec).unwrap();
    let att = Arc::new(Attachment::new(rig.machine.clone(), prog).unwrap());
    rig.sys.attach_cqe_program(p.pid, att.clone()).unwrap();

    let chase = |hops: i64| {
        att.set_state(&[0, 0, hops]);
        ring.push_sqe(Sqe::read(fd, p.buf, CHASE_NODE_BYTES as u32, 0, 1))
            .unwrap();
        let (entered, allocs) = allocs_in(|| rig.sys.sys_ring_enter(p.pid, 1, 1));
        assert_eq!(entered, 1);
        let cqe = ring.reap_cqe().expect("the walk posts one CQE");
        assert_eq!(cqe.res, hops, "the walk stopped at its hop limit");
        assert!(ring.reap_cqe().is_none());
        allocs
    };
    // Warm-up: buffers and pools grow to the walk's needs once.
    chase(256);
    let short = chase(16);
    let long = chase(256);
    assert_eq!(
        short, long,
        "a 256-hop chase allocated more than a 16-hop one"
    );
    assert_eq!(att.stats().errors, 0);
}
