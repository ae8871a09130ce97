//! Shared submission/completion rings for batched asynchronous syscalls.
//!
//! The paper's performance argument is a counting argument: syscall cost =
//! crossings × crossing price + copied bytes × copy price. Consolidated
//! calls (§2.2) and Cosy compounds (§2.3) shrink the first factor by fusing
//! *fixed* op sequences; this crate is the generic endpoint of that line —
//! an io_uring-shaped pair of rings in shared simulated memory. User code
//! enqueues submission entries ([`Sqe`]) with **zero crossings**, one
//! `sys_ring_enter` crossing drains and executes the whole batch, and
//! completions ([`Cqe`]) flow back through the completion ring, again with
//! zero crossings at reap time.
//!
//! Cost honesty: nothing here is free. Every SQE move (user enqueue, kernel
//! drain) charges [`CostModel::uring_sqe_move`], every CQE move (kernel
//! post, user reap) charges [`CostModel::uring_cqe_move`] — the same
//! per-16-byte-block memcpy rate the socket rings pay. What a batch *saves*
//! is the crossing and the per-op `syscall_dispatch`, replaced by one
//! crossing per `ring_enter` plus a cheap `uring_op_dispatch` per op.
//!
//! The overflow list is bounded. A completion that finds the CQ full is
//! parked on it (never dropped), and `sys_ring_enter` flushes parked
//! entries back first; if a full CQ's worth (`cq_cap`) is still parked
//! after that flush, the enter fails with -EBUSY and consumes no SQE, as
//! io_uring does. An enter that proceeds starts with fewer than `cq_cap`
//! parked and posts at most one CQE per consumed SQE, at most `sq_cap`
//! of them, so the list always holds fewer than `cq_cap + sq_cap`
//! entries, however long a process submits without reaping.
//!
//! The ring only holds the data structures; opcode execution lives in
//! `ksyscall` (which owns fd tables, the VFS and the socket stack).
//!
//! [`CostModel::uring_sqe_move`]: ksim::CostModel
//! [`CostModel::uring_cqe_move`]: ksim::CostModel

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use ksim::Machine;
use parking_lot::Mutex;

/// Chain this SQE to the *next* one: the next entry only runs if this one
/// succeeded; on failure every later link completes with [`ECANCELED`].
pub const IOSQE_LINK: u8 = 0x1;
/// `buf` is the index of a registered buffer, not a user address. Data
/// moves through the pinned range at the in-kernel memcpy rate with zero
/// `copy_to_user`/`copy_from_user` — the ring's `sendfile`-style path.
pub const IOSQE_FIXED_BUF: u8 = 0x2;
/// Take the fd from the chain instead of `Sqe::fd`: the most recent
/// fd-producing op in this chain (`open` or `accept`) supplies it. For
/// `sendfile` the chain fd is the *file* side; `Sqe::fd` stays the socket.
pub const IOSQE_FD_CHAIN: u8 = 0x4;

/// Completion result for ops cancelled by an earlier failure in their chain.
pub const ECANCELED: i64 = -125;

/// `Sqe::off` value meaning "use the descriptor's cursor" for read/write.
pub const OFF_CURSOR: u64 = u64::MAX;

/// What a submission entry asks the kernel to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// No-op: completes with 0. Useful for measuring pure ring overhead.
    Nop,
    /// Open the NUL-free path at user address `buf` (`len` bytes); `off`
    /// carries the `OpenFlags` bits. Produces a chain fd.
    Open,
    /// Read `len` bytes from `fd` at `off` (or the cursor) into `buf`.
    Read,
    /// Write `len` bytes from `buf` to `fd` at `off` (or the cursor).
    Write,
    /// Close `fd`.
    Close,
    /// Stat `fd` into the user buffer at `buf`.
    Fstat,
    /// Send `len` bytes from `buf` on socket `fd`.
    Send,
    /// Receive up to `len` bytes from socket `fd` into `buf`.
    Recv,
    /// Accept one pending connection on listener `fd`. Produces a chain fd.
    Accept,
    /// Splice up to `len` file bytes into socket `fd`; the file descriptor
    /// rides in `off` (or comes from the chain with [`IOSQE_FD_CHAIN`]).
    Sendfile,
    /// Shut down socket `fd`.
    Shutdown,
    /// Flush `fd` to stable storage; `off` = 1 means data-only
    /// (`fdatasync` semantics).
    Fsync,
    /// Move `fd`'s cursor to `off` relative to `len` (the `whence`).
    Lseek,
    /// Unlink the path at user address `buf` (`len` bytes), like `Open`.
    Unlink,
}

/// One submission-queue entry: ~48 bytes of shared memory in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    pub opcode: Opcode,
    /// `IOSQE_*` bits.
    pub flags: u8,
    /// File descriptor or socket descriptor, opcode-dependent.
    pub fd: i32,
    /// User buffer address — or a registered-buffer index under
    /// [`IOSQE_FIXED_BUF`].
    pub buf: u64,
    pub len: u32,
    /// File offset ([`OFF_CURSOR`] = descriptor cursor); `Open` reuses it
    /// for flag bits and `Sendfile` for the file descriptor.
    pub off: u64,
    /// Opaque tag echoed back in the matching [`Cqe`].
    pub user_data: u64,
}

impl Sqe {
    fn raw(opcode: Opcode, fd: i32, buf: u64, len: u32, off: u64, user_data: u64) -> Sqe {
        Sqe {
            opcode,
            flags: 0,
            fd,
            buf,
            len,
            off,
            user_data,
        }
    }

    pub fn nop(user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Nop, -1, 0, 0, 0, user_data)
    }

    /// Open the path stored at user address `path` (`path_len` bytes);
    /// `flag_bits` are the `OpenFlags` bits.
    pub fn open(path: u64, path_len: u32, flag_bits: u32, user_data: u64) -> Sqe {
        Sqe::raw(
            Opcode::Open,
            -1,
            path,
            path_len,
            flag_bits as u64,
            user_data,
        )
    }

    pub fn read(fd: i32, buf: u64, len: u32, off: u64, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Read, fd, buf, len, off, user_data)
    }

    /// Read into registered buffer `idx` instead of a user address.
    pub fn read_fixed(fd: i32, idx: u32, len: u32, off: u64, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Read, fd, idx as u64, len, off, user_data).fixed()
    }

    pub fn write(fd: i32, buf: u64, len: u32, off: u64, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Write, fd, buf, len, off, user_data)
    }

    /// Write from registered buffer `idx` at the descriptor cursor.
    pub fn write_fixed(fd: i32, idx: u32, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Write, fd, idx as u64, len, OFF_CURSOR, user_data).fixed()
    }

    pub fn close(fd: i32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Close, fd, 0, 0, 0, user_data)
    }

    pub fn fstat(fd: i32, stat_at: u64, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Fstat, fd, stat_at, 0, 0, user_data)
    }

    pub fn send(sd: i32, buf: u64, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Send, sd, buf, len, 0, user_data)
    }

    pub fn recv(sd: i32, buf: u64, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Recv, sd, buf, len, 0, user_data)
    }

    /// Receive into registered buffer `idx`.
    pub fn recv_fixed(sd: i32, idx: u32, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Recv, sd, idx as u64, len, 0, user_data).fixed()
    }

    pub fn accept(listener_sd: i32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Accept, listener_sd, 0, 0, 0, user_data)
    }

    /// Splice up to `len` bytes of file `fd` into socket `sd`.
    pub fn sendfile(sd: i32, fd: i32, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Sendfile, sd, 0, len, fd as u32 as u64, user_data)
    }

    /// Sendfile whose *file* fd comes from the chain (an earlier `open`).
    pub fn sendfile_chained(sd: i32, len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Sendfile, sd, 0, len, 0, user_data).chained()
    }

    pub fn shutdown(sd: i32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Shutdown, sd, 0, 0, 0, user_data)
    }

    /// Flush `fd` durable; `data_only` selects `fdatasync` semantics.
    /// Batching many writes behind one ring-borne fsync is the uring-era
    /// answer to the write…write…fsync tail the advisor flags.
    pub fn fsync(fd: i32, data_only: bool, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Fsync, fd, 0, 0, data_only as u64, user_data)
    }

    pub fn lseek(fd: i32, off: i64, whence: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Lseek, fd, 0, whence, off as u64, user_data)
    }

    pub fn unlink(path: u64, path_len: u32, user_data: u64) -> Sqe {
        Sqe::raw(Opcode::Unlink, -1, path, path_len, 0, user_data)
    }

    /// Set [`IOSQE_LINK`]: chain the next SQE onto this one.
    pub fn link(mut self) -> Sqe {
        self.flags |= IOSQE_LINK;
        self
    }

    /// Set [`IOSQE_FD_CHAIN`]: resolve the fd from the chain.
    pub fn chained(mut self) -> Sqe {
        self.flags |= IOSQE_FD_CHAIN;
        self
    }

    /// Set [`IOSQE_FIXED_BUF`]: `buf` is a registered-buffer index.
    pub fn fixed(mut self) -> Sqe {
        self.flags |= IOSQE_FIXED_BUF;
        self
    }
}

/// One completion-queue entry (16 bytes): the op's tag and its result,
/// negative errno on failure exactly like the synchronous syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    pub user_data: u64,
    pub res: i64,
}

/// The submission queue has no free slot; nothing was enqueued or charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

impl fmt::Display for RingFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "submission queue full")
    }
}

impl std::error::Error for RingFull {}

#[derive(Debug, Default)]
struct RingState {
    sq: VecDeque<Sqe>,
    cq: VecDeque<Cqe>,
    /// Completions that arrived while the CQ was full (or were forced here
    /// by the `uring.cq_overflow` fault site). Counted, never lost: the
    /// kernel flushes them back into the CQ on the next `ring_enter`.
    /// Fewer than `cq_cap + sq_cap` entries (see [`Uring::overflow_full`]).
    overflow: VecDeque<Cqe>,
    /// Registered (pinned) buffer ranges: `(user_addr, len)` per index.
    bufs: Vec<(u64, usize)>,
    /// Total completions ever diverted through the overflow list.
    overflow_total: u64,
}

/// One process's SQ/CQ ring pair plus its registered-buffer table.
///
/// The user side ([`push_sqe`](Uring::push_sqe) / [`reap_cqe`](Uring::reap_cqe))
/// charges user cycles; the kernel side ([`take_sqe`](Uring::take_sqe) /
/// [`post_cqe`](Uring::post_cqe) / [`flush_overflow`](Uring::flush_overflow))
/// charges sys cycles. Neither side ever charges a crossing — that is the
/// entire point, and `sys_ring_enter` pays the single one.
#[derive(Debug)]
pub struct Uring {
    machine: Arc<Machine>,
    sq_cap: usize,
    cq_cap: usize,
    state: Mutex<RingState>,
}

impl Uring {
    /// Create a ring pair with the given queue capacities (entries).
    pub fn new(machine: Arc<Machine>, sq_cap: usize, cq_cap: usize) -> Uring {
        assert!(sq_cap > 0 && cq_cap > 0, "ring capacities must be nonzero");
        Uring {
            machine,
            sq_cap,
            cq_cap,
            state: Mutex::new(RingState::default()),
        }
    }

    /// Entries currently waiting in the submission queue.
    pub fn sq_len(&self) -> usize {
        self.state.lock().sq.len()
    }

    /// Completions currently visible in the completion queue.
    pub fn cq_len(&self) -> usize {
        self.state.lock().cq.len()
    }

    /// Completions currently parked on the overflow list.
    pub fn overflow_len(&self) -> usize {
        self.state.lock().overflow.len()
    }

    /// Whether a full CQ's worth of completions is parked on the overflow
    /// list: `sys_ring_enter` then refuses new submissions with -EBUSY
    /// until the process reaps, which keeps the list below
    /// `cq_cap + sq_cap` entries.
    pub fn overflow_full(&self) -> bool {
        self.state.lock().overflow.len() >= self.cq_cap
    }

    /// Total completions ever diverted through the overflow list.
    pub fn cq_overflow_total(&self) -> u64 {
        self.state.lock().overflow_total
    }

    // ---- user side (charges user cycles, zero crossings) ----------------

    /// Enqueue a submission entry. Charges one SQE move of user time; a
    /// full queue fails without enqueuing (the user saw head/tail collide
    /// before writing the entry).
    pub fn push_sqe(&self, sqe: Sqe) -> Result<(), RingFull> {
        let mut st = self.state.lock();
        if st.sq.len() >= self.sq_cap {
            return Err(RingFull);
        }
        self.machine.charge_user(self.machine.cost.uring_sqe_move);
        st.sq.push_back(sqe);
        Ok(())
    }

    /// Pop the oldest visible completion. Charges one CQE move of user
    /// time when an entry is returned.
    pub fn reap_cqe(&self) -> Option<Cqe> {
        let mut st = self.state.lock();
        let cqe = st.cq.pop_front();
        if cqe.is_some() {
            self.machine.charge_user(self.machine.cost.uring_cqe_move);
        }
        cqe
    }

    // ---- kernel side (charges sys cycles) --------------------------------

    /// Drain the oldest submission entry; one SQE move of sys time.
    pub fn take_sqe(&self) -> Option<Sqe> {
        let mut st = self.state.lock();
        let sqe = st.sq.pop_front();
        if sqe.is_some() {
            self.machine.charge_sys(self.machine.cost.uring_sqe_move);
        }
        sqe
    }

    /// Drain up to `max` submissions into `out` under a single lock
    /// acquisition, charging the same per-entry SQE move as
    /// [`Self::take_sqe`] would for each. Returns how many were drained.
    pub fn take_sqes(&self, max: usize, out: &mut Vec<Sqe>) -> usize {
        let mut st = self.state.lock();
        let n = max.min(st.sq.len());
        out.extend(st.sq.drain(..n));
        if n > 0 {
            self.machine
                .charge_sys(self.machine.cost.uring_sqe_move * n as u64);
        }
        n
    }

    /// Post a completion; one CQE move of sys time. A full CQ — or the
    /// `uring.cq_overflow` fault site firing — diverts the entry onto the
    /// counted overflow list instead of dropping it.
    pub fn post_cqe(&self, cqe: Cqe) {
        let mut st = self.state.lock();
        self.machine.charge_sys(self.machine.cost.uring_cqe_move);
        let forced = self
            .machine
            .faults
            .should_fail(kfault::sites::URING_CQ_OVERFLOW);
        // Once anything is parked, later completions also divert so reap
        // order stays the post order (io_uring preserves CQE ordering the
        // same way while its overflow list is non-empty).
        if forced || !st.overflow.is_empty() || st.cq.len() >= self.cq_cap {
            st.overflow.push_back(cqe);
            st.overflow_total += 1;
        } else {
            st.cq.push_back(cqe);
        }
    }

    /// Move parked overflow completions back into the CQ while there is
    /// room, preserving post order; one CQE move of sys time per entry
    /// moved. `sys_ring_enter` calls this before draining submissions.
    pub fn flush_overflow(&self) -> usize {
        let mut st = self.state.lock();
        let mut moved = 0;
        while st.cq.len() < self.cq_cap {
            let Some(cqe) = st.overflow.pop_front() else {
                break;
            };
            self.machine.charge_sys(self.machine.cost.uring_cqe_move);
            st.cq.push_back(cqe);
            moved += 1;
        }
        moved
    }

    // ---- registered buffers ----------------------------------------------

    /// Replace the registered-buffer table with `ranges` (pinned
    /// `(user_addr, len)` pairs, indexed by position).
    pub fn register_buffers(&self, ranges: &[(u64, usize)]) {
        self.state.lock().bufs = ranges.to_vec();
    }

    /// Look up a registered buffer by index.
    pub fn fixed_buf(&self, idx: u32) -> Option<(u64, usize)> {
        self.state.lock().bufs.get(idx as usize).copied()
    }

    /// Number of registered buffers.
    pub fn registered_buffers(&self) -> usize {
        self.state.lock().bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfault::Policy;
    use ksim::MachineConfig;
    use proptest::prelude::*;

    fn free_machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::small_free()))
    }

    fn costed_machine() -> Arc<Machine> {
        Arc::new(Machine::new(MachineConfig::default()))
    }

    #[test]
    fn sq_is_fifo_and_bounded() {
        let ring = Uring::new(free_machine(), 4, 4);
        for i in 0..4 {
            ring.push_sqe(Sqe::nop(i)).unwrap();
        }
        assert_eq!(ring.push_sqe(Sqe::nop(99)), Err(RingFull));
        assert_eq!(ring.sq_len(), 4, "failed push did not enqueue");
        for i in 0..4 {
            assert_eq!(ring.take_sqe().unwrap().user_data, i);
        }
        assert!(ring.take_sqe().is_none());
    }

    #[test]
    fn cq_overflow_is_counted_and_recoverable_in_order() {
        let ring = Uring::new(free_machine(), 8, 2);
        for i in 0..5 {
            ring.post_cqe(Cqe {
                user_data: i,
                res: 0,
            });
        }
        assert_eq!(ring.cq_len(), 2);
        assert_eq!(ring.overflow_len(), 3);
        assert_eq!(ring.cq_overflow_total(), 3);

        let mut seen = Vec::new();
        loop {
            while let Some(c) = ring.reap_cqe() {
                seen.push(c.user_data);
            }
            if ring.overflow_len() == 0 {
                break;
            }
            ring.flush_overflow();
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "post order survives overflow");
        assert_eq!(ring.cq_overflow_total(), 3, "total is a high-water count");
    }

    #[test]
    fn every_ring_move_charges_the_advertised_cycles() {
        let m = costed_machine();
        let ring = Uring::new(m.clone(), 8, 8);
        let c = &m.cost;

        let t0 = m.clock.snapshot();
        ring.push_sqe(Sqe::nop(1)).unwrap();
        let d = m.clock.snapshot().delta(&t0);
        assert_eq!((d.user, d.sys), (c.uring_sqe_move, 0));

        let t0 = m.clock.snapshot();
        assert!(ring.take_sqe().is_some());
        let d = m.clock.snapshot().delta(&t0);
        assert_eq!((d.user, d.sys), (0, c.uring_sqe_move));

        let t0 = m.clock.snapshot();
        ring.post_cqe(Cqe {
            user_data: 1,
            res: 0,
        });
        let d = m.clock.snapshot().delta(&t0);
        assert_eq!((d.user, d.sys), (0, c.uring_cqe_move));

        let t0 = m.clock.snapshot();
        assert!(ring.reap_cqe().is_some());
        let d = m.clock.snapshot().delta(&t0);
        assert_eq!((d.user, d.sys), (c.uring_cqe_move, 0));

        // Empty-side probes and failed pushes charge nothing.
        let t0 = m.clock.snapshot();
        assert!(ring.take_sqe().is_none());
        assert!(ring.reap_cqe().is_none());
        let d = m.clock.snapshot().delta(&t0);
        assert_eq!(d.user + d.sys, 0);
    }

    #[test]
    fn fault_site_forces_overflow_with_room_to_spare() {
        let m = free_machine();
        m.faults.arm(0xFEED);
        m.faults
            .add_policy(Some(kfault::sites::URING_CQ_OVERFLOW), Policy::FailNth(1));
        let ring = Uring::new(m.clone(), 8, 8);
        ring.post_cqe(Cqe {
            user_data: 7,
            res: 0,
        });
        assert_eq!(ring.cq_len(), 0, "forced onto the overflow list");
        assert_eq!(ring.cq_overflow_total(), 1);
        // While the overflow list is non-empty, later posts divert too
        // (ordering rule); after a flush the CQ fills normally again.
        ring.post_cqe(Cqe {
            user_data: 8,
            res: 0,
        });
        assert_eq!(ring.cq_len(), 0);
        assert_eq!(ring.flush_overflow(), 2);
        ring.post_cqe(Cqe {
            user_data: 9,
            res: 0,
        });
        assert_eq!(ring.cq_len(), 3, "only the first post was forced");
        assert_eq!(ring.cq_overflow_total(), 2);
        m.faults.disarm();
    }

    #[test]
    fn registered_buffers_index_like_a_table() {
        let ring = Uring::new(free_machine(), 2, 2);
        assert_eq!(ring.registered_buffers(), 0);
        assert!(ring.fixed_buf(0).is_none());
        ring.register_buffers(&[(0x1000, 64), (0x2000, 4096)]);
        assert_eq!(ring.registered_buffers(), 2);
        assert_eq!(ring.fixed_buf(1), Some((0x2000, 4096)));
        assert!(ring.fixed_buf(2).is_none());
    }

    proptest! {
        /// DESIGN §5 ring discipline: under arbitrary interleavings of
        /// push/take/post/flush/reap against bounded queues, both rings
        /// deliver exactly the accepted entries in FIFO order — with the
        /// overflow diversion in the middle of the CQ path.
        #[test]
        fn rings_are_fifo_against_a_vecdeque_model(
            ops in proptest::collection::vec(0u8..5, 1..300)
        ) {
            let ring = Uring::new(free_machine(), 4, 3);
            let mut sq_model: VecDeque<u64> = VecDeque::new();
            let mut cq_model: VecDeque<u64> = VecDeque::new();
            let mut next_tag = 0u64;
            let mut posted = 0u64;
            let mut reaped: Vec<u64> = Vec::new();
            let mut expected: Vec<u64> = Vec::new();

            for op in ops {
                match op {
                    0 => {
                        let r = ring.push_sqe(Sqe::nop(next_tag));
                        if sq_model.len() < 4 {
                            prop_assert!(r.is_ok());
                            sq_model.push_back(next_tag);
                        } else {
                            prop_assert_eq!(r, Err(RingFull));
                        }
                        next_tag += 1;
                    }
                    1 => {
                        let got = ring.take_sqe().map(|s| s.user_data);
                        prop_assert_eq!(got, sq_model.pop_front());
                    }
                    2 => {
                        // Kernel posts a completion; CQ capacity 3, rest
                        // goes to overflow. Either way it must come back.
                        ring.post_cqe(Cqe { user_data: posted, res: 0 });
                        cq_model.push_back(posted);
                        expected.push(posted);
                        posted += 1;
                    }
                    3 => {
                        ring.flush_overflow();
                    }
                    _ => {
                        if let Some(c) = ring.reap_cqe() {
                            reaped.push(c.user_data);
                            prop_assert_eq!(Some(c.user_data), cq_model.pop_front());
                        }
                    }
                }
            }
            // Drain everything still in flight.
            loop {
                while let Some(c) = ring.reap_cqe() {
                    reaped.push(c.user_data);
                    prop_assert_eq!(Some(c.user_data), cq_model.pop_front());
                }
                if ring.overflow_len() == 0 {
                    break;
                }
                ring.flush_overflow();
            }
            prop_assert_eq!(reaped, expected, "every post reaps exactly once, in order");
            prop_assert_eq!(ring.cq_len(), 0);
        }
    }
}
