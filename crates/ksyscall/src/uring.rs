//! Ring system calls: `sys_ring_setup`, `sys_ring_register`,
//! `sys_ring_enter` — the `ksyscall` side of the `kuring` shared rings.
//!
//! `sys_ring_enter` is the one crossing a whole batch pays. It flushes any
//! parked overflow completions, then drains up to `to_submit` SQEs and
//! executes each **in kernel context**: the SQE is decoded into a
//! [`KOp`] and run through [`SyscallLayer::dispatch`], the same dispatcher
//! the classic calls use — so the entry filter, permission checks,
//! descriptor semantics and cycle charges are identical; only the per-op
//! crossing and `syscall_dispatch` are gone, replaced by
//! `uring_op_dispatch`.
//!
//! Linked SQEs ([`IOSQE_LINK`]) form chains: a failure (negative result)
//! cancels every later link with [`ECANCELED`], and fd-producing ops
//! (`open`, `accept`) feed their result to later links marked
//! [`IOSQE_FD_CHAIN`] — an `open→read→close` chain runs like a Cosy
//! compound, without the compiler. Fixed-buffer ops ([`IOSQE_FIXED_BUF`],
//! the [`FixedBufs`] transport) move data through registered ranges at the
//! in-kernel memcpy rate with zero `copy_to_user`/`copy_from_user`, like
//! `sendfile` does; the flag means something only to Read, Write, Send and
//! Recv, and an Open or Fstat carrying it is -EINVAL.

use std::sync::Arc;

use ksim::Pid;
use ktrace::Sysno;
use kuring::{
    Cqe, Opcode, Sqe, Uring, ECANCELED, IOSQE_FD_CHAIN, IOSQE_FIXED_BUF, IOSQE_LINK,
};

use crate::fd::OpenFlags;
use crate::layer::SyscallLayer;
use crate::op::{FixedBufs, KOp, OpError, PathRef, UserMem};

/// Cap on how many times a CQE program may resubmit one SQE within a
/// single `sys_ring_enter`. A verified program provably terminates *per
/// invocation*; this bounds the chain of invocations so a
/// resubmit-forever program still returns to user space. On overrun the
/// latest completion posts as-is (fail open).
const MAX_CQE_RESUBMITS: usize = 4096;

impl SyscallLayer {
    /// `sys_ring_setup`: create `pid`'s SQ/CQ ring pair with the given
    /// entry capacities. One ring pair per process; -EEXIST if it already
    /// has one, -EINVAL on a zero capacity.
    pub fn sys_ring_setup(&self, pid: Pid, sq_entries: usize, cq_entries: usize) -> i64 {
        self.invoke(pid, Sysno::RingSetup, |s| {
            s.charge_arg_in(16); // the two capacity words, params-struct style
            if sq_entries == 0 || cq_entries == 0 {
                return Err(OpError::Errno(-22)); // EINVAL
            }
            let mut rings = s.urings.lock();
            if rings.contains_key(&pid.0) {
                return Err(OpError::Errno(-17)); // EEXIST
            }
            rings.insert(
                pid.0,
                Arc::new(Uring::new(s.machine.clone(), sq_entries, cq_entries)),
            );
            Ok(0)
        })
    }

    /// `sys_ring_register`: pin `(user_addr, len)` data-buffer ranges for
    /// fixed-buffer ops, replacing any previous table. Returns the number
    /// of registered buffers; -ENXIO without a ring, -EINVAL on an empty
    /// or zero-length range, -EFAULT if a range is not mapped.
    pub fn sys_ring_register(&self, pid: Pid, ranges: &[(u64, usize)]) -> i64 {
        self.invoke(pid, Sysno::RingRegister, |s| {
            s.charge_arg_in(ranges.len() * 16);
            let Some(ring) = s.urings.lock().get(&pid.0).cloned() else {
                return Err(OpError::Errno(-6)); // ENXIO
            };
            if ranges.is_empty() {
                return Err(OpError::Errno(-22)); // EINVAL
            }
            let Ok(asid) = s.machine.proc_asid(pid) else {
                return Err(OpError::Errno(-3)); // ESRCH
            };
            let mut probe = [0u8; 1];
            for &(addr, len) in ranges {
                if len == 0 {
                    return Err(OpError::Errno(-22)); // EINVAL
                }
                // Pinning walks the pages: both ends must be mapped.
                if s.machine.mem.read_virt(asid, addr, &mut probe).is_err()
                    || s.machine
                        .mem
                        .read_virt(asid, addr + len as u64 - 1, &mut probe)
                        .is_err()
                {
                    return Err(OpError::Errno(-14)); // EFAULT
                }
            }
            ring.register_buffers(ranges);
            Ok(ranges.len() as i64)
        })
    }

    /// The user-side handle on `pid`'s ring pair: enqueue SQEs and reap
    /// CQEs with zero crossings. No charges — this is a pointer lookup the
    /// process did once at setup time and kept.
    pub fn uring(&self, pid: Pid) -> Option<Arc<Uring>> {
        self.urings.lock().get(&pid.0).cloned()
    }

    /// `sys_ring_enter`: the single crossing for a whole batch. Flushes
    /// parked overflow CQEs, then drains up to `to_submit` SQEs, executing
    /// each through the `k_*` paths and posting its CQE. Returns how many
    /// entries were consumed; -ENXIO without a ring.
    ///
    /// Execution is synchronous — every consumed SQE has completed by
    /// return, so any `min_complete` ≤ the submission count is satisfied
    /// trivially; the argument exists for call-shape fidelity.
    pub fn sys_ring_enter(&self, pid: Pid, to_submit: usize, min_complete: usize) -> i64 {
        let _ = min_complete;
        self.invoke(pid, Sysno::RingEnter, |s| {
            let Some(ring) = s.urings.lock().get(&pid.0).cloned() else {
                return Err(OpError::Errno(-6)); // ENXIO
            };
            ring.flush_overflow();
            // Fetched once per batch: one relaxed load when no CQE program
            // is attached (the common case, pinned by the exact-charge
            // tests).
            let cqe_prog = s.progs.cqe_program(pid.0);
            // One lock round-trip drains the whole batch; the per-entry
            // SQE-move charges are identical to popping them one by one.
            let mut sqes = Vec::with_capacity(to_submit.min(64));
            ring.take_sqes(to_submit, &mut sqes);
            let mut submitted = 0i64;
            // Chain state: `in_chain` while the previous SQE carried
            // IOSQE_LINK; a fresh chain resets the failure flag and the
            // propagated fd.
            let mut in_chain = false;
            let mut chain_failed = false;
            let mut chain_fd: i64 = -1;
            for sqe in &sqes {
                submitted += 1;
                if !in_chain {
                    chain_failed = false;
                    chain_fd = -1;
                }
                s.machine.charge_sys(s.machine.cost.uring_op_dispatch);
                let res = if chain_failed {
                    ECANCELED
                } else {
                    let r = s.exec_ring_op(pid, &ring, sqe, chain_fd);
                    if r >= 0 && matches!(sqe.opcode, Opcode::Open | Opcode::Accept) {
                        chain_fd = r;
                    }
                    if r < 0 {
                        chain_failed = true;
                    }
                    r
                };
                match &cqe_prog {
                    None => ring.post_cqe(Cqe {
                        user_data: sqe.user_data,
                        res,
                    }),
                    Some(att) => s.complete_with_program(pid, &ring, att, sqe, res),
                }
                in_chain = sqe.flags & IOSQE_LINK != 0;
            }
            Ok(submitted)
        })
    }

    /// Run `pid`'s verified CQE program over one completion, looping while
    /// it resubmits. Contract (`ctx = [user_data, res, off, len]`, plus
    /// the first `buf_len` bytes of the op's data window when the op
    /// produced data):
    ///
    /// * return `0` — **drop**: no CQE posts; the completion was consumed
    ///   in kernel.
    /// * return `2` — **resubmit**: re-execute the same SQE with
    ///   `off := ctx[2]` (clamped to [`kprog::MAX_RESUBMIT_OFF`]); the new
    ///   completion feeds back through the program. Each resubmission pays
    ///   `uring_op_dispatch` like a fresh SQE, but no crossing.
    /// * any other return — **keep**: post `Cqe { user_data: ctx[0],
    ///   res: ctx[1] }` (the rewrite surface).
    /// * program error — fail **open**: the unmodified completion posts,
    ///   so a buggy program degrades to a plain ring, never a silent ring.
    fn complete_with_program(
        &self,
        pid: Pid,
        ring: &Arc<Uring>,
        att: &Arc<kprog::Attachment>,
        sqe: &Sqe,
        first_res: i64,
    ) {
        let buf_len = att.prog().spec().buf_len;
        let mut cur = *sqe;
        let mut res = first_res;
        for _ in 0..=MAX_CQE_RESUBMITS {
            let mut ctx = [cur.user_data as i64, res, cur.off as i64, cur.len as i64];
            // The window goes back to the scratch pool before a resubmit
            // takes buffers of its own.
            let out = {
                let window = self.cqe_window(pid, ring, &cur, res, buf_len);
                att.run(&mut ctx, window.as_deref())
            };
            match out {
                Err(_) => {
                    ring.post_cqe(Cqe {
                        user_data: cur.user_data,
                        res,
                    });
                    return;
                }
                Ok(0) => return,
                Ok(2) => {
                    cur.off = (ctx[2].max(0) as u64).min(kprog::MAX_RESUBMIT_OFF);
                    self.machine.charge_sys(self.machine.cost.uring_op_dispatch);
                    res = self.exec_ring_op(pid, ring, &cur, -1);
                }
                Ok(_) => {
                    ring.post_cqe(Cqe {
                        user_data: ctx[0] as u64,
                        res: ctx[1],
                    });
                    return;
                }
            }
        }
        // Resubmit cap hit: surface the latest completion untouched.
        ring.post_cqe(Cqe {
            user_data: cur.user_data,
            res,
        });
    }

    /// The data window a CQE program sees: the first `buf_len` bytes the
    /// op deposited (fixed-buffer range or plain user buffer), or `None`
    /// when the program declared no window or the op produced no data.
    /// The bytes sit in a scratch-pool buffer.
    fn cqe_window(
        &self,
        pid: Pid,
        ring: &Uring,
        sqe: &Sqe,
        res: i64,
        buf_len: usize,
    ) -> Option<kalloc::PoolBuf<'_>> {
        if buf_len == 0 || res <= 0 {
            return None;
        }
        let addr = if sqe.flags & IOSQE_FIXED_BUF != 0 {
            ring.fixed_buf(sqe.buf as u32)?.0
        } else {
            sqe.buf
        };
        let asid = self.machine.proc_asid(pid).ok()?;
        let mut out = self.scratch.take(buf_len.min(res as usize));
        self.machine.mem.read_virt(asid, addr, &mut out).ok()?;
        Some(out)
    }

    /// Execute one drained SQE in kernel context. Returns the op's result
    /// with the same conventions as the matching synchronous syscall.
    fn exec_ring_op(&self, pid: Pid, ring: &Uring, sqe: &Sqe, chain_fd: i64) -> i64 {
        let op = match Self::ring_op(sqe, chain_fd) {
            Ok(Some(op)) => op,
            Ok(None) => return 0, // Nop
            Err(e) => return e,
        };
        let r = if sqe.flags & IOSQE_FIXED_BUF != 0 {
            self.dispatch(pid, op, &mut FixedBufs(ring))
        } else {
            self.dispatch(pid, op, &mut UserMem)
        };
        r.unwrap_or_else(|e| e.errno())
    }

    /// Decode an SQE into the op it names (`None` for a no-op). A
    /// descriptor comes from the SQE's `fd`, or under [`IOSQE_FD_CHAIN`]
    /// from the chain's most recent fd-producing result (-EBADF if nothing
    /// in the chain produced one).
    fn ring_op(sqe: &Sqe, chain_fd: i64) -> Result<Option<KOp<'static>>, i64> {
        let fd = || match sqe.flags & IOSQE_FD_CHAIN != 0 {
            false => Ok(sqe.fd),
            true if chain_fd < 0 => Err(-9),
            true => Ok(chain_fd as i32),
        };
        let (buf, len) = (sqe.buf, sqe.len as usize);
        Ok(Some(match sqe.opcode {
            Opcode::Nop => return Ok(None),
            Opcode::Open => KOp::Open {
                path: PathRef::At { addr: buf, len },
                flags: OpenFlags(sqe.off as u32),
            },
            Opcode::Read => KOp::Read { fd: fd()?, buf, len, off: sqe.off },
            Opcode::Write => KOp::Write { fd: fd()?, buf, len, off: sqe.off },
            Opcode::Close => KOp::Close { fd: fd()? },
            Opcode::Fstat => KOp::Fstat { fd: fd()?, buf },
            Opcode::Send => KOp::Send { sd: fd()?, buf, len },
            Opcode::Recv => KOp::Recv { sd: fd()?, buf, len },
            Opcode::Accept => KOp::Accept { sd: sqe.fd },
            // `fd` is the socket; the file fd rides in `off` or comes from
            // the chain (an earlier `open`).
            Opcode::Sendfile => KOp::Sendfile {
                sd: sqe.fd,
                fd: if sqe.flags & IOSQE_FD_CHAIN != 0 { fd()? } else { sqe.off as i32 },
                len,
            },
            Opcode::Shutdown => KOp::Shutdown { sd: fd()? },
            Opcode::Fsync => KOp::Fsync { fd: fd()?, data_only: sqe.off == 1 },
            Opcode::Lseek => KOp::Lseek { fd: fd()?, off: sqe.off as i64, whence: sqe.len as i32 },
            Opcode::Unlink => KOp::Unlink { path: PathRef::At { addr: buf, len } },
        }))
    }
}
