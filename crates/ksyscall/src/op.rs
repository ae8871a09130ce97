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
use crate::layer::{SyscallLayer, FILTER, SEEK_SET};
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

/// Generates [`KOp`], [`OpKind`] and every per-op conversion from one
/// row per op: `Name { field: Type [role], .. } => sysno, wire N,
/// intrinsic "sys_name", barrier always|moved;` (all after the sysno
/// optional; no `barrier` means the op never is one). A field's role is
/// its positional argument `i`, optionally followed by `slot j` (its entry
/// filter slot `ctx[1 + j]`): `arg i` (a scalar, cast), `len i` (a length:
/// negative clamps to 0), `flags i`, `nonzero i` (a bool), `data i` (a data
/// buffer address) or `path i`. Otherwise it is `= expr`, a default the
/// positional form cannot set, or `host`, a host string with no positional
/// form.
macro_rules! ops {
    (@decode $src:ident; arg $i:literal $(, slot $s:literal)?) => { $src.scalar($i)? as _ };
    (@decode $src:ident; len $i:literal $(, slot $s:literal)?) => { $src.scalar($i)?.max(0) as _ };
    (@decode $src:ident; flags $i:literal) => { OpenFlags($src.scalar($i)? as u32) };
    (@decode $src:ident; nonzero $i:literal) => { $src.scalar($i)? != 0 };
    (@decode $src:ident; data $i:literal $(, slot $s:literal)?) => { $src.data($i)? };
    (@decode $src:ident; path $i:literal) => { $src.path($i)? };
    (@decode $src:ident; = $e:expr) => { $e };
    (@decode $src:ident; host) => { return Ok(None) };
    (@get $a:ident $f:ident; $r:ident $i:literal, slot $s:literal) => { $a[$s] = $f as i64 };
    (@get $a:ident $f:ident; $($r:tt)*) => {};
    (@set $a:ident $f:ident; len $i:literal, slot $s:literal) => { *$f = $a[$s].max(0) as _ };
    (@set $a:ident $f:ident; $r:ident $i:literal, slot $s:literal) => { *$f = $a[$s] as _ };
    (@set $a:ident $f:ident; $($r:tt)*) => {};
    (@positional $r:ident $i:literal $($rest:tt)*) => { 1 };
    (@positional $($r:tt)*) => { 0 };
    (@opt) => { None };
    (@opt $v:literal) => { Some($v) };
    (@barrier $ret:ident;) => { false };
    (@barrier $ret:ident; always) => { true };
    (@barrier $ret:ident; moved) => { $ret > 0 };
    ($(
        $(#[$doc:meta])*
        $name:ident $({ $($f:ident: $t:ty [$($role:tt)*]),* })? => $sysno:expr
            $(, wire $wire:literal)? $(, intrinsic $intr:literal)? $(, barrier $barrier:ident)?;
    )*) => {
        /// One kernel operation, decoded from whichever interface submitted
        /// it. `Read`/`Write` carry an explicit file offset to seek to
        /// first, or [`OFF_CURSOR`] for the descriptor's cursor.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum KOp<'a> {
            $($(#[$doc])* $name $({ $($f: $t),* })?,)*
        }

        /// A [`KOp`]'s kind: its Cosy wire code, KC intrinsic name,
        /// positional arity and barrier class.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum OpKind {
            $($name,)*
        }

        impl OpKind {
            /// Every kind, in table order.
            pub const ALL: [OpKind; [$(OpKind::$name),*].len()] = [$(OpKind::$name),*];

            /// The kind's code in an encoded Cosy compound, if it has one.
            pub const fn wire(self) -> Option<u8> {
                match self { $(OpKind::$name => ops!(@opt $($wire)?),)* }
            }

            pub fn from_wire(code: u8) -> Option<OpKind> {
                match code { $($($wire => Some(OpKind::$name),)?)* _ => None }
            }

            /// The `sys_*` name a KC program or Cosy-GCC source calls it by.
            pub const fn intrinsic(self) -> Option<&'static str> {
                match self { $(OpKind::$name => ops!(@opt $($intr)?),)* }
            }

            pub fn from_intrinsic(name: &str) -> Option<OpKind> {
                match name { $($($intr => Some(OpKind::$name),)?)* _ => None }
            }

            /// How many positional arguments [`Self::decode`] reads.
            pub const fn arity(self) -> usize {
                match self { $(OpKind::$name => 0 $($(+ ops!(@positional $($role)*))*)?,)* }
            }

            /// Whether a success returning `ret` left the machine (a
            /// connection, bytes handed to a peer, a durability promise),
            /// so that Cosy's undo log must stop at it instead of undoing.
            pub const fn is_barrier(self, ret: i64) -> bool {
                match self { $(OpKind::$name => ops!(@barrier ret; $($barrier)?),)* }
            }

            /// Build the op from its positional arguments, read in field
            /// order. `None` for an op with a host-string field (`Rename`),
            /// which has no positional form.
            #[allow(unreachable_code)]
            pub fn decode<'a, S>(self, src: &mut S) -> Result<Option<KOp<'a>>, S::Error>
            where
                S: ArgSource<'a>,
            {
                Ok(Some(match self {
                    $(OpKind::$name => KOp::$name $({ $($f: ops!(@decode src; $($role)*)),* })?,)*
                }))
            }
        }

        impl KOp<'_> {
            /// The syscall number the entry filter and the tracer see.
            #[allow(unused_variables)]
            pub fn sysno(&self) -> Sysno {
                match *self { $(KOp::$name $({ $($f),* })? => $sysno,)* }
            }

            /// The entry filter's argument slots `ctx[1..4]`: each field's
            /// declared slot; a slot an op lacks is 0, except that ops with
            /// no descriptor pass fd -1.
            #[allow(unused_variables)]
            pub fn args(&self) -> [i64; 3] {
                let mut a = [-1, 0, 0];
                match *self {
                    $(KOp::$name $({ $($f),* })? => { $($(ops!(@get a $f; $($role)*);)*)? })*
                }
                a
            }

            /// Apply a filter's (possibly rewritten) slots back onto the
            /// fields [`Self::args`] exposed. Negative lengths clamp to 0.
            #[allow(unused_variables)]
            fn set_args(&mut self, a: [i64; 3]) {
                match self {
                    $(KOp::$name $({ $($f),* })? => { $($(ops!(@set a $f; $($role)*);)*)? })*
                }
            }
        }
    };
}

ops! {
    Getpid => Sysno::Getpid, wire 8, intrinsic "sys_getpid";
    Open { path: PathRef<'a> [path 0], flags: OpenFlags [flags 1] }
        => Sysno::Open, wire 1, intrinsic "sys_open";
    Close { fd: i32 [arg 0, slot 0] } => Sysno::Close, wire 2, intrinsic "sys_close";
    Read { fd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1], len: usize [len 2, slot 2],
        off: u64 [= OFF_CURSOR] } => Sysno::Read, wire 3, intrinsic "sys_read";
    Write { fd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1], len: usize [len 2, slot 2],
        off: u64 [= OFF_CURSOR] } => Sysno::Write, wire 4, intrinsic "sys_write";
    Lseek { fd: i32 [arg 0, slot 0], off: i64 [arg 1, slot 1], whence: i32 [arg 2, slot 2] }
        => Sysno::Lseek, wire 5, intrinsic "sys_lseek";
    Stat { path: PathRef<'a> [path 0], buf: u64 [data 1, slot 1] }
        => Sysno::Stat, wire 6, intrinsic "sys_stat";
    Fstat { fd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1] }
        => Sysno::Fstat, wire 7, intrinsic "sys_fstat";
    /// Up to `max` fixed-size dirents from the cursor; returns the count.
    Readdir { fd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1], max: usize [len 2, slot 2] }
        => Sysno::Readdir, wire 11, intrinsic "sys_readdir";
    Mkdir { path: PathRef<'a> [path 0] } => Sysno::Mkdir, wire 9, intrinsic "sys_mkdir";
    Rmdir { path: PathRef<'a> [path 0] } => Sysno::Rmdir;
    Unlink { path: PathRef<'a> [path 0] } => Sysno::Unlink, wire 10, intrinsic "sys_unlink";
    /// Classic only: both names are host strings, charged as one copy.
    Rename { from: &'a str [host], to: &'a str [host] } => Sysno::Rename;
    Truncate { path: PathRef<'a> [path 0], size: u64 [arg 1] } => Sysno::Truncate;
    /// Durability is an external effect: a barrier, not an undo.
    Fsync { fd: i32 [arg 0, slot 0], data_only: bool [nonzero 1] }
        => if data_only { Sysno::Fdatasync } else { Sysno::Fsync },
        wire 17, intrinsic "sys_fsync", barrier always;
    Socket => Sysno::Socket;
    BindListen { sd: i32 [arg 0, slot 0], port: u16 [arg 1], backlog: usize [len 2] }
        => Sysno::BindListen, barrier always;
    Connect { sd: i32 [arg 0, slot 0], port: u16 [arg 1] } => Sysno::Connect, barrier always;
    Accept { sd: i32 [arg 0, slot 0] }
        => Sysno::Accept, wire 12, intrinsic "sys_accept", barrier always;
    Send { sd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1], len: usize [len 2, slot 2] }
        => Sysno::Send, wire 14, intrinsic "sys_send", barrier moved;
    Recv { sd: i32 [arg 0, slot 0], buf: u64 [data 1, slot 1], len: usize [len 2, slot 2] }
        => Sysno::Recv, wire 13, intrinsic "sys_recv", barrier moved;
    Shutdown { sd: i32 [arg 0, slot 0] }
        => Sysno::Shutdown, wire 16, intrinsic "sys_shutdown", barrier always;
    /// Stream up to `len` bytes from file `fd` into socket `sd`.
    Sendfile { sd: i32 [arg 0, slot 0], fd: i32 [arg 1, slot 1], len: usize [len 2, slot 2] }
        => Sysno::Sendfile, wire 15, intrinsic "sys_sendfile", barrier moved;
}

/// Where [`OpKind::decode`] reads positional arguments from: a Cosy
/// compound's argument list or a KC intrinsic call's arguments.
pub trait ArgSource<'a> {
    type Error;
    fn scalar(&mut self, i: usize) -> Result<i64, Self::Error>;
    /// Argument `i` as the address of the op's data buffer (by default,
    /// the scalar argument itself).
    fn data(&mut self, i: usize) -> Result<u64, Self::Error> {
        self.scalar(i).map(|v| v as u64)
    }
    fn path(&mut self, i: usize) -> Result<PathRef<'a>, Self::Error>;
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
        if self.hooked(FILTER) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The filter contract, pinned per op: the sysno the entry filter sees,
    /// the `ctx[1..4]` slots `args` exposes, and the slots after `set_args`
    /// writes back the rewritten `[100, 200, -3]` (a negative length
    /// clamps to 0).
    #[test]
    fn op_abi_is_pinned() {
        use KOp::*;
        use Sysno as S;
        let (p, cur) = (PathRef::Host("/p"), OFF_CURSOR);
        #[rustfmt::skip]
        let pinned: [(KOp, Sysno, [i64; 3], [i64; 3]); 24] = [
            (Getpid, S::Getpid, [-1, 0, 0], [-1, 0, 0]),
            (Open { path: p, flags: OpenFlags(0x42) }, S::Open, [-1, 0, 0], [-1, 0, 0]),
            (Close { fd: 3 }, S::Close, [3, 0, 0], [100, 0, 0]),
            (Read { fd: 3, buf: 0x10, len: 7, off: 9 }, S::Read, [3, 0x10, 7], [100, 200, 0]),
            (Write { fd: 4, buf: 0x20, len: 8, off: cur }, S::Write, [4, 0x20, 8], [100, 200, 0]),
            (Lseek { fd: 3, off: -5, whence: 2 }, S::Lseek, [3, -5, 2], [100, 200, -3]),
            (Stat { path: p, buf: 0x30 }, S::Stat, [-1, 0x30, 0], [-1, 200, 0]),
            (Fstat { fd: 5, buf: 0x40 }, S::Fstat, [5, 0x40, 0], [100, 200, 0]),
            (Readdir { fd: 6, buf: 0x50, max: 10 }, S::Readdir, [6, 0x50, 10], [100, 200, 0]),
            (Mkdir { path: p }, S::Mkdir, [-1, 0, 0], [-1, 0, 0]),
            (Rmdir { path: p }, S::Rmdir, [-1, 0, 0], [-1, 0, 0]),
            (Unlink { path: p }, S::Unlink, [-1, 0, 0], [-1, 0, 0]),
            (Rename { from: "/a", to: "/b" }, S::Rename, [-1, 0, 0], [-1, 0, 0]),
            (Truncate { path: p, size: 11 }, S::Truncate, [-1, 0, 0], [-1, 0, 0]),
            (Fsync { fd: 7, data_only: false }, S::Fsync, [7, 0, 0], [100, 0, 0]),
            (Fsync { fd: 7, data_only: true }, S::Fdatasync, [7, 0, 0], [100, 0, 0]),
            (Socket, S::Socket, [-1, 0, 0], [-1, 0, 0]),
            (BindListen { sd: 8, port: 80, backlog: 4 }, S::BindListen, [8, 0, 0], [100, 0, 0]),
            (Connect { sd: 9, port: 80 }, S::Connect, [9, 0, 0], [100, 0, 0]),
            (Accept { sd: 10 }, S::Accept, [10, 0, 0], [100, 0, 0]),
            (Send { sd: 11, buf: 0x60, len: 12 }, S::Send, [11, 0x60, 12], [100, 200, 0]),
            (Recv { sd: 12, buf: 0x70, len: 13 }, S::Recv, [12, 0x70, 13], [100, 200, 0]),
            (Shutdown { sd: 13 }, S::Shutdown, [13, 0, 0], [100, 0, 0]),
            (Sendfile { sd: 14, fd: 15, len: 16 }, S::Sendfile, [14, 15, 16], [100, 200, 0]),
        ];
        let set = |mut op: KOp<'static>, a| {
            op.set_args(a);
            op
        };
        for (op, sysno, args, rewritten) in pinned {
            assert_eq!((op.sysno(), op.args()), (sysno, args), "{op:?}");
            assert_eq!(set(op, args), op, "writing back unchanged slots is a no-op");
            assert_eq!(set(op, [100, 200, -3]).args(), rewritten, "{op:?}");
        }
        let read = set(Read { fd: 3, buf: 0x10, len: 7, off: 9 }, [100, 200, -3]);
        assert_eq!(read, Read { fd: 100, buf: 200, len: 0, off: 9 }, "only slot fields move");
    }
}
