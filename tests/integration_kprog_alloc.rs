//! Integration: the host cost of a verified-program chase does not grow
//! with its length. A counting global allocator shows that one
//! `sys_ring_enter` whose CQE program walks 16 hops makes exactly as many
//! heap allocations as one that walks 256: each hop reuses the
//! attachment's VM buffers and a scratch-pool data window instead of
//! allocating its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use kucode::kprog::{Attachment, HookClass, ProgEngine, ProgSpec};
use kucode::ksyscall::OpenFlags;
use kucode::kuring::Sqe;
use kucode::kworkloads::{setup_chase, Rig, CHASE_NODE_BYTES};

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
