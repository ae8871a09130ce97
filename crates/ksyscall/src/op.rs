//! One operation dispatcher for every way user code reaches a `k_*` call.
//!
//! A classic `sys_*` call, a uring SQE, a Cosy compound op and a KC
//! program's `sys_*` intrinsic are the same kernel operation reached four
//! ways. Each caller only *encodes* its request as a [`KOp`] and hands it
//! to [`SyscallLayer::dispatch`] together with a [`Transport`] saying where
//! the op's data lives. `dispatch` runs the syscall-entry filter, resolves
//! buffers and paths through the transport, calls the `k_*` function, and
//! returns the value or a typed [`OpError`] whose [`OpError::errno`] is the
//! classic negative errno.
//!
//! Three transports, each keeping its own copy charge:
//!
//! * **user memory** ([`UserMem`]): `copy_to_user`/`copy_from_user_into`
//!   at the boundary-copy rate (classic calls, plain SQEs);
//! * **a kernel-visible range**: a uring registered buffer ([`FixedBufs`],
//!   `sock_move_block16` per 16 bytes) or a Cosy shared-region offset (the
//!   cosy crate's transport, at its own per-16-byte rate);
//! * **KC program memory** through `MemCtx` (the cosy kernel host), whose
//!   segment checks are the only charge.
//!
//! `dispatch` charges and counts nothing of its own: the crossing, the
//! `syscall_dispatch`/`uring_op_dispatch`/in-kernel demux charge and the
//! syscall counter stay with the caller, so each path pays exactly what it
//! paid before the paths shared one dispatcher.

use std::convert::Infallible;

use knet::NetError;
use ksim::Pid;
use ktrace::Sysno;
use kuring::Uring;
pub use kuring::OFF_CURSOR;
use kvfs::{VfsError, DIRENT_WIRE_BYTES};

use crate::fd::OpenFlags;
use crate::layer::{SyscallLayer, SEEK_SET};
use crate::wire;

/// I/O at or below this size stages through an on-stack buffer; larger
/// transfers check out a recycled [`kalloc::BufPool`] buffer instead.
const SMALL_IO_MAX: usize = 256;

/// Longest path a user-memory path argument may span (an `Open` SQE's).
const USER_PATH_MAX: usize = 256;

/// Where a path argument lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathRef<'a> {
    /// Already in the kernel (a classic call's argument). Charged as a
    /// user→kernel argument copy of its length.
    Host(&'a str),
    /// At `addr` in the transport's memory, at most `len` bytes up to a
    /// NUL (`len` is ignored for C strings in KC program memory).
    At { addr: u64, len: usize },
}

/// One kernel operation, decoded from whichever interface submitted it.
///
/// `Read`/`Write` carry an explicit file offset to seek to first, or
/// [`OFF_CURSOR`] for the descriptor's cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KOp<'a> {
    Getpid,
    Open { path: PathRef<'a>, flags: OpenFlags },
    Close { fd: i32 },
    Read { fd: i32, buf: u64, len: usize, off: u64 },
    Write { fd: i32, buf: u64, len: usize, off: u64 },
    Lseek { fd: i32, off: i64, whence: i32 },
    Stat { path: PathRef<'a>, buf: u64 },
    Fstat { fd: i32, buf: u64 },
    /// Up to `max` fixed-size dirents from the cursor; returns the count.
    Readdir { fd: i32, buf: u64, max: usize },
    Mkdir { path: PathRef<'a> },
    Rmdir { path: PathRef<'a> },
    Unlink { path: PathRef<'a> },
    /// Classic only: both names are host strings, charged as one copy.
    Rename { from: &'a str, to: &'a str },
    Truncate { path: PathRef<'a>, size: u64 },
    Fsync { fd: i32, data_only: bool },
    Socket,
    BindListen { sd: i32, port: u16, backlog: usize },
    Connect { sd: i32, port: u16 },
    Accept { sd: i32 },
    Send { sd: i32, buf: u64, len: usize },
    Recv { sd: i32, buf: u64, len: usize },
    Shutdown { sd: i32 },
    /// Stream up to `len` bytes from file `fd` into socket `sd`.
    Sendfile { sd: i32, fd: i32, len: usize },
}

impl KOp<'_> {
    /// The syscall number the entry filter and the tracer see.
    pub fn sysno(&self) -> Sysno {
        match self {
            KOp::Getpid => Sysno::Getpid,
            KOp::Open { .. } => Sysno::Open,
            KOp::Close { .. } => Sysno::Close,
            KOp::Read { .. } => Sysno::Read,
            KOp::Write { .. } => Sysno::Write,
            KOp::Lseek { .. } => Sysno::Lseek,
            KOp::Stat { .. } => Sysno::Stat,
            KOp::Fstat { .. } => Sysno::Fstat,
            KOp::Readdir { .. } => Sysno::Readdir,
            KOp::Mkdir { .. } => Sysno::Mkdir,
            KOp::Rmdir { .. } => Sysno::Rmdir,
            KOp::Unlink { .. } => Sysno::Unlink,
            KOp::Rename { .. } => Sysno::Rename,
            KOp::Truncate { .. } => Sysno::Truncate,
            KOp::Fsync { data_only: false, .. } => Sysno::Fsync,
            KOp::Fsync { data_only: true, .. } => Sysno::Fdatasync,
            KOp::Socket => Sysno::Socket,
            KOp::BindListen { .. } => Sysno::BindListen,
            KOp::Connect { .. } => Sysno::Connect,
            KOp::Accept { .. } => Sysno::Accept,
            KOp::Send { .. } => Sysno::Send,
            KOp::Recv { .. } => Sysno::Recv,
            KOp::Shutdown { .. } => Sysno::Shutdown,
            KOp::Sendfile { .. } => Sysno::Sendfile,
        }
    }

    /// The entry filter's argument slots `ctx[1..4]`: the op's descriptor,
    /// buffer and length. `lseek` passes `(fd, off, whence)` and
    /// `sendfile` `(sd, fd, len)`; a slot an op lacks is 0, and ops with
    /// no descriptor pass fd -1.
    pub fn args(&self) -> [i64; 3] {
        let only = |fd: i32| [fd as i64, 0, 0];
        match *self {
            KOp::Read { fd, buf, len, .. }
            | KOp::Write { fd, buf, len, .. }
            | KOp::Send { sd: fd, buf, len }
            | KOp::Recv { sd: fd, buf, len } => [fd as i64, buf as i64, len as i64],
            KOp::Readdir { fd, buf, max } => [fd as i64, buf as i64, max as i64],
            KOp::Lseek { fd, off, whence } => [fd as i64, off, whence as i64],
            KOp::Sendfile { sd, fd, len } => [sd as i64, fd as i64, len as i64],
            KOp::Fstat { fd, buf } => [fd as i64, buf as i64, 0],
            KOp::Stat { buf, .. } => [-1, buf as i64, 0],
            KOp::Close { fd }
            | KOp::Fsync { fd, .. }
            | KOp::Accept { sd: fd }
            | KOp::Shutdown { sd: fd }
            | KOp::BindListen { sd: fd, .. }
            | KOp::Connect { sd: fd, .. } => only(fd),
            KOp::Getpid
            | KOp::Socket
            | KOp::Open { .. }
            | KOp::Mkdir { .. }
            | KOp::Rmdir { .. }
            | KOp::Unlink { .. }
            | KOp::Rename { .. }
            | KOp::Truncate { .. } => [-1, 0, 0],
        }
    }

    /// Apply a filter's (possibly rewritten) slots back onto the fields
    /// [`Self::args`] exposed. Negative lengths clamp to 0.
    fn set_args(&mut self, a: [i64; 3]) {
        let (fd0, buf1, len2) = (a[0] as i32, a[1] as u64, a[2].max(0) as usize);
        match self {
            KOp::Read { fd, buf, len, .. }
            | KOp::Write { fd, buf, len, .. }
            | KOp::Send { sd: fd, buf, len }
            | KOp::Recv { sd: fd, buf, len }
            | KOp::Readdir { fd, buf, max: len } => (*fd, *buf, *len) = (fd0, buf1, len2),
            KOp::Lseek { fd, off, whence } => (*fd, *off, *whence) = (fd0, a[1], a[2] as i32),
            KOp::Sendfile { sd, fd, len } => (*sd, *fd, *len) = (fd0, a[1] as i32, len2),
            KOp::Fstat { fd, buf } => (*fd, *buf) = (fd0, buf1),
            KOp::Stat { buf, .. } => *buf = buf1,
            KOp::Close { fd }
            | KOp::Fsync { fd, .. }
            | KOp::Accept { sd: fd }
            | KOp::Shutdown { sd: fd }
            | KOp::BindListen { sd: fd, .. }
            | KOp::Connect { sd: fd, .. } => *fd = fd0,
            KOp::Getpid
            | KOp::Socket
            | KOp::Open { .. }
            | KOp::Mkdir { .. }
            | KOp::Rmdir { .. }
            | KOp::Unlink { .. }
            | KOp::Rename { .. }
            | KOp::Truncate { .. } => {}
        }
    }
}

/// Why an op produced no value. `F` is the transport's own fault type:
/// a failure the caller turns into its own error instead of an errno.
#[derive(Debug)]
pub enum OpError<F> {
    Vfs(VfsError),
    Net(NetError),
    /// A ready errno: a user-copy fault, a bad fixed buffer or path, or a
    /// `sendfile` error (which spans the vfs and socket domains).
    Errno(i64),
    /// The syscall-entry filter vetoed the op with this errno.
    Veto(i64),
    Fault(F),
}

impl<F> OpError<F> {
    /// The classic negative errno (-EFAULT for a transport fault).
    pub fn errno(&self) -> i64 {
        match self {
            OpError::Vfs(e) => e.errno(),
            OpError::Net(e) => e.errno(),
            OpError::Errno(n) | OpError::Veto(n) => *n,
            OpError::Fault(_) => -14,
        }
    }
}

impl<F> From<VfsError> for OpError<F> {
    fn from(e: VfsError) -> Self {
        OpError::Vfs(e)
    }
}

impl<F> From<NetError> for OpError<F> {
    fn from(e: NetError) -> Self {
        OpError::Net(e)
    }
}

/// The result of one dispatched op.
pub type OpResult<F> = Result<i64, OpError<F>>;

/// The result of one transport data move.
pub type Moved<F> = Result<(), OpError<F>>;

/// A path a transport fetched.
pub enum PathText<'s> {
    Host(&'s str),
    /// Pooled bytes, read up to the first NUL.
    Pooled(kalloc::PoolBuf<'s>),
    Owned(String),
}

impl PathText<'_> {
    /// The path, or `None` if its bytes are not UTF-8.
    fn as_str(&self) -> Option<&str> {
        match self {
            PathText::Host(s) => Some(s),
            PathText::Pooled(b) => {
                let end = b.iter().position(|&c| c == 0).unwrap_or(b.len());
                std::str::from_utf8(&b[..end]).ok()
            }
            PathText::Owned(s) => Some(s),
        }
    }
}

/// Where an op's data lives and what moving it costs. Addresses are the
/// transport's own: user virtual addresses, region offsets, program
/// addresses. Every method runs after the entry filter, so rewritten
/// arguments meet the same checks as the submitted ones.
pub trait Transport {
    /// A failure of the transport itself that is not an errno.
    type Fault;

    /// Resolve a data buffer of `len` bytes at `buf` to the `(addr, len)`
    /// the op may move, clamping or refusing.
    fn span(&mut self, buf: u64, len: usize) -> Result<(u64, usize), OpError<Self::Fault>> {
        Ok((buf, len))
    }

    /// Resolve an output record buffer (stat, dirents) to `(addr, capacity)`.
    fn record(&mut self, buf: u64) -> Result<(u64, usize), OpError<Self::Fault>> {
        Ok((buf, usize::MAX))
    }

    /// Fill `out` from `addr`.
    fn get(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, out: &mut [u8]) -> Moved<Self::Fault>;

    /// Store `data` at `addr`.
    fn put(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, data: &[u8]) -> Moved<Self::Fault>;

    /// Store a stat record at `addr` (a plain [`Self::put`] by default).
    fn put_stat(&mut self, s: &SyscallLayer, pid: Pid, at: u64, rec: &[u8]) -> Moved<Self::Fault> {
        self.put(s, pid, at, rec)
    }

    /// Fetch the path at `addr` (see [`PathRef::At`]).
    fn path<'s>(
        &mut self,
        s: &'s SyscallLayer,
        pid: Pid,
        addr: u64,
        len: usize,
    ) -> Result<PathText<'s>, OpError<Self::Fault>>;

    /// Called once an op that changes file-system state has its inputs in
    /// hand (paths as [`PathRef::Host`], a write's final length) and
    /// before its `k_*` call: the hook for a caller's undo capture.
    fn before(&mut self, s: &SyscallLayer, pid: Pid, op: &KOp<'_>) -> Moved<Self::Fault> {
        let _ = (s, pid, op);
        Ok(())
    }
}

/// The calling process's user memory: every move is a boundary copy.
pub struct UserMem;

impl Transport for UserMem {
    type Fault = Infallible;

    fn get(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, out: &mut [u8]) -> Moved<Infallible> {
        s.machine.copy_from_user_into(pid, addr, out).map_err(|_| OpError::Errno(-14))
    }

    fn put(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, data: &[u8]) -> Moved<Infallible> {
        s.machine.copy_to_user(pid, addr, data).map_err(|_| OpError::Errno(-14))
    }

    fn path<'s>(
        &mut self,
        s: &'s SyscallLayer,
        pid: Pid,
        addr: u64,
        len: usize,
    ) -> Result<PathText<'s>, OpError<Infallible>> {
        let mut bytes = s.scratch.take(len.min(USER_PATH_MAX));
        self.get(s, pid, addr, &mut bytes)?;
        Ok(PathText::Pooled(bytes))
    }
}

/// A uring's registered buffers: `buf` is a buffer index, lengths clamp to
/// the registered range, and data moves at the in-kernel memcpy rate the
/// socket rings pay, with no user copy. Only data ops take a fixed buffer:
/// a path or a stat record through one is -EINVAL.
pub struct FixedBufs<'r>(pub &'r Uring);

impl FixedBufs<'_> {
    fn charge(s: &SyscallLayer, len: usize) {
        s.machine.charge_sys((len as u64).div_ceil(16) * s.machine.cost.sock_move_block16);
    }
}

impl Transport for FixedBufs<'_> {
    type Fault = Infallible;

    fn span(&mut self, buf: u64, len: usize) -> Result<(u64, usize), OpError<Infallible>> {
        let idx = u32::try_from(buf).map_err(|_| OpError::Errno(-22))?;
        let (addr, blen) = self.0.fixed_buf(idx).ok_or(OpError::Errno(-22))?;
        Ok((addr, len.min(blen)))
    }

    fn record(&mut self, _buf: u64) -> Result<(u64, usize), OpError<Infallible>> {
        Err(OpError::Errno(-22))
    }

    fn get(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, out: &mut [u8]) -> Moved<Infallible> {
        let asid = s.machine.proc_asid(pid).map_err(|_| OpError::Errno(-3))?;
        s.machine.mem.read_virt(asid, addr, out).map_err(|_| OpError::Errno(-14))?;
        Self::charge(s, out.len());
        Ok(())
    }

    fn put(&mut self, s: &SyscallLayer, pid: Pid, addr: u64, data: &[u8]) -> Moved<Infallible> {
        let asid = s.machine.proc_asid(pid).map_err(|_| OpError::Errno(-3))?;
        s.machine.mem.write_virt(asid, addr, data).map_err(|_| OpError::Errno(-14))?;
        Self::charge(s, data.len());
        Ok(())
    }

    fn path<'s>(
        &mut self,
        _: &'s SyscallLayer,
        _: Pid,
        _: u64,
        _: usize,
    ) -> Result<PathText<'s>, OpError<Infallible>> {
        Err(OpError::Errno(-22))
    }
}

impl SyscallLayer {
    /// Run `f` on `len` bytes of kernel staging for one op's data: on the
    /// stack up to [`SMALL_IO_MAX`] bytes, else a pooled buffer.
    fn staged<F>(&self, len: usize, f: impl FnOnce(&mut [u8]) -> OpResult<F>) -> OpResult<F> {
        if len <= SMALL_IO_MAX {
            f(&mut [0; SMALL_IO_MAX][..len])
        } else {
            f(&mut self.scratch.take(len))
        }
    }

    /// Run `f` on `path`, fetched through `io` if it is not a host string.
    fn on_path<T: Transport>(
        &self,
        pid: Pid,
        path: PathRef<'_>,
        io: &mut T,
        f: impl FnOnce(&mut T, &str) -> OpResult<T::Fault>,
    ) -> OpResult<T::Fault> {
        let text = match path {
            PathRef::Host(p) => {
                self.charge_arg_in(p.len());
                PathText::Host(p)
            }
            PathRef::At { addr, len } => io.path(self, pid, addr, len)?,
        };
        f(io, text.as_str().ok_or(OpError::Errno(-22))?)
    }

    /// Execute one op for `pid` in kernel context, moving its data through
    /// `io`. With a syscall-entry filter attached, the filter runs first,
    /// exactly once, on `ctx = [sysno, args...]` ([`KOp::args`]); a veto
    /// is the op's result, and the rewritten arguments are what the
    /// transport's bound checks then see.
    pub fn dispatch<T: Transport>(
        &self,
        pid: Pid,
        mut op: KOp<'_>,
        io: &mut T,
    ) -> OpResult<T::Fault> {
        if self.progs.has_syscall_filters() {
            let args = self
                .consult_syscall_filter(pid, op.sysno(), op.args())
                .map_err(OpError::Veto)?;
            op.set_args(args);
        }
        Ok(match op {
            KOp::Getpid => pid.0 as i64,
            KOp::Open { path, flags } => self.on_path(pid, path, io, |io, p| {
                io.before(self, pid, &KOp::Open { path: PathRef::Host(p), flags })?;
                Ok(self.k_open(pid, p, flags)? as i64)
            })?,
            KOp::Close { fd } => self.k_close(pid, fd).map(|()| 0)?,
            KOp::Read { fd, buf, len, off } => {
                self.seek(pid, fd, off)?;
                let (addr, len) = io.span(buf, len)?;
                self.staged(len, |data| {
                    let n = self.k_read(pid, fd, data)?;
                    io.put(self, pid, addr, &data[..n])?;
                    Ok(n as i64)
                })?
            }
            KOp::Write { fd, buf, len, off } => {
                self.seek(pid, fd, off)?;
                let (addr, len) = io.span(buf, len)?;
                self.staged(len, |data| {
                    io.get(self, pid, addr, data)?;
                    io.before(self, pid, &KOp::Write { fd, buf, len, off })?;
                    Ok(self.k_write(pid, fd, data)? as i64)
                })?
            }
            KOp::Lseek { fd, off, whence } => self.k_lseek(pid, fd, off, whence)? as i64,
            KOp::Stat { path, buf } => self.on_path(pid, path, io, |io, p| {
                let (addr, _) = io.record(buf)?;
                let st = self.k_stat(p)?;
                io.put_stat(self, pid, addr, &st.to_wire())?;
                Ok(0)
            })?,
            KOp::Fstat { fd, buf } => {
                let (addr, _) = io.record(buf)?;
                let st = self.k_fstat(pid, fd)?;
                io.put_stat(self, pid, addr, &st.to_wire())?;
                0
            }
            KOp::Readdir { fd, buf, max } => {
                let (addr, cap) = io.record(buf)?;
                let entries = self.k_readdir_chunk(pid, fd, max.min(cap / DIRENT_WIRE_BYTES))?;
                let mut out = Vec::with_capacity(entries.len() * DIRENT_WIRE_BYTES);
                for e in &entries {
                    out.extend_from_slice(&wire::dirent_to_wire(e));
                }
                io.put(self, pid, addr, &out)?;
                entries.len() as i64
            }
            KOp::Mkdir { path } => self.on_path(pid, path, io, |io, p| {
                io.before(self, pid, &KOp::Mkdir { path: PathRef::Host(p) })?;
                Ok(self.k_mkdir(p).map(|()| 0)?)
            })?,
            KOp::Rmdir { path } => {
                self.on_path(pid, path, io, |_, p| Ok(self.k_rmdir(p).map(|()| 0)?))?
            }
            KOp::Unlink { path } => self.on_path(pid, path, io, |io, p| {
                io.before(self, pid, &KOp::Unlink { path: PathRef::Host(p) })?;
                Ok(self.k_unlink(p).map(|()| 0)?)
            })?,
            KOp::Rename { from, to } => {
                self.charge_arg_in(from.len() + to.len());
                self.k_rename(from, to).map(|()| 0)?
            }
            KOp::Truncate { path, size } => {
                self.on_path(pid, path, io, |_, p| Ok(self.k_truncate(p, size).map(|()| 0)?))?
            }
            KOp::Fsync { fd, data_only } => self.k_fsync(pid, fd, data_only).map(|()| 0)?,
            KOp::Socket => self.k_socket(pid)? as i64,
            KOp::BindListen { sd, port, backlog } => {
                self.k_bind_listen(pid, sd, port, backlog).map(|()| 0)?
            }
            KOp::Connect { sd, port } => self.k_connect(pid, sd, port).map(|()| 0)?,
            KOp::Accept { sd } => self.k_accept(pid, sd)? as i64,
            KOp::Send { sd, buf, len } => {
                let (addr, len) = io.span(buf, len)?;
                self.staged(len, |data| {
                    io.get(self, pid, addr, data)?;
                    Ok(self.k_send(pid, sd, data)? as i64)
                })?
            }
            KOp::Recv { sd, buf, len } => {
                let (addr, len) = io.span(buf, len)?;
                self.staged(len, |data| {
                    let n = self.k_recv(pid, sd, data)?;
                    io.put(self, pid, addr, &data[..n])?;
                    Ok(n as i64)
                })?
            }
            KOp::Shutdown { sd } => self.k_shutdown(pid, sd).map(|()| 0)?,
            KOp::Sendfile { sd, fd, len } => {
                self.k_sendfile(pid, sd, fd, len).map_err(OpError::Errno)? as i64
            }
        })
    }

    /// Position `fd`'s cursor for an explicit-offset read or write.
    fn seek<F>(&self, pid: Pid, fd: i32, off: u64) -> Result<(), OpError<F>> {
        if off != OFF_CURSOR {
            self.k_lseek(pid, fd, off as i64, SEEK_SET)?;
        }
        Ok(())
    }
}
