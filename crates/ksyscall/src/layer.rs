//! The syscall dispatch layer.
//!
//! Every `sys_*` method is one user→kernel→user round trip: it charges the
//! user-side stub, the crossing, and all boundary copies, records itself in
//! the tracer, and maps errors onto negative errno values. The `k_*`
//! methods are the same operations *already inside the kernel* — no
//! crossing, no user copies — used both by the `sys_*` wrappers and by the
//! Cosy kernel extension, whose entire value is invoking many of them per
//! crossing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use ksim::SpinMutex;

use knet::{NetError, NetStack};
use kprog::{Attachment, HookClass};
use ksim::{FxHashMap, Machine, Pid, SimError};
use ktrace::{SyscallEvent, Sysno, Tracer};
use kuring::{Uring, OFF_CURSOR};
#[cfg(test)]
use kvfs::{DIRENT_WIRE_BYTES, STAT_WIRE_BYTES};
use kvfs::{DirEntry, FileKind, Stat, Vfs, VfsError, VfsResult};

use crate::fd::{FdTable, OpenFile, OpenFlags};
use crate::op::{KOp, OpError, OpResult, PathRef, Transport, UserMem};

/// What a crossing's body returns: a value or an error with an errno.
pub(crate) type SysResult = OpResult<std::convert::Infallible>;
use crate::wire;

/// User-side cycles per syscall invocation (libc stub, register setup).
pub const USER_STUB_CYCLES: u64 = 180;

/// Whence values for lseek.
pub const SEEK_SET: i32 = 0;
pub const SEEK_CUR: i32 = 1;
pub const SEEK_END: i32 = 2;

/// Distinguishes layer instances in the per-thread context cache.
static NEXT_LAYER_ID: AtomicU64 = AtomicU64::new(0);

/// One (layer id, pid, context) cache entry; see [`LAST_CTX`].
type CachedCtx = (u64, u32, Arc<ProcCtx>);

thread_local! {
    /// The (layer, pid) → context this thread last used. Same pattern as
    /// the machine's boundary cache: a syscall stream repeats the pid, so
    /// the table lock and hash probe are paid once per thread migration
    /// instead of on every descriptor, ring or program lookup.
    static LAST_CTX: RefCell<Option<CachedCtx>> = const { RefCell::new(None) };
}

/// The program attach points this layer hosts, as indices into
/// [`ProcCtx::progs`], [`SyscallLayer::attached`] and [`HOOK_CLASS`].
pub(crate) const FILTER: usize = 0;
pub(crate) const CQE: usize = 1;
/// The class a program must be verified for to attach at each hook.
const HOOK_CLASS: [HookClass; 2] = [HookClass::SyscallEntry, HookClass::UringCqe];

/// What the syscall layer keeps for one process: its descriptor table, its
/// ring pair and the programs attached to it. Each part has its own lock,
/// so a cached context never touches the layer's pid table.
#[derive(Default)]
pub(crate) struct ProcCtx {
    fds: SpinMutex<FdTable>,
    /// Set once, by `sys_ring_setup`.
    pub(crate) ring: OnceLock<Arc<Uring>>,
    /// The syscall-entry filter ([`FILTER`]) and CQE program ([`CQE`]).
    progs: SpinMutex<[Option<Arc<Attachment>>; 2]>,
}

/// The kernel's system-call interface.
pub struct SyscallLayer {
    pub(crate) machine: Arc<Machine>,
    vfs: Arc<Vfs>,
    net: Arc<NetStack>,
    tracer: Arc<Tracer>,
    /// Every process's context, by pid.
    procs: Mutex<FxHashMap<u32, Arc<ProcCtx>>>,
    /// This instance's key in the per-thread context cache.
    id: u64,
    /// How many processes have a program at each attach point. While a
    /// count is zero its hook costs one relaxed load and takes no lock.
    /// Relaxed suffices: the program itself is read under its context's
    /// lock, and the count only says whether to look.
    attached: [AtomicUsize; 2],
    /// Recycled scratch buffers for user↔kernel data copies.
    pub(crate) scratch: kalloc::BufPool,
}

impl SyscallLayer {
    pub fn new(machine: Arc<Machine>, vfs: Arc<Vfs>) -> Self {
        let scratch = kalloc::BufPool::new();
        scratch.monitor("ksyscall.scratch");
        SyscallLayer {
            net: Arc::new(NetStack::new(machine.clone())),
            machine,
            vfs,
            tracer: Arc::new(Tracer::new()),
            procs: Mutex::new(FxHashMap::default()),
            id: NEXT_LAYER_ID.fetch_add(1, Relaxed),
            attached: Default::default(),
            scratch,
        }
    }

    /// Run `f` with `pid`'s context, creating it on first use. A hit in
    /// the per-thread cache takes no lock, and a nested call for the same
    /// pid (an op inside a ring batch) shares the cached handle.
    pub(crate) fn with_ctx<R>(&self, pid: Pid, f: impl FnOnce(&ProcCtx) -> R) -> R {
        LAST_CTX.with(|cell| {
            if let Some((lid, cached_pid, ctx)) = &*cell.borrow() {
                if *lid == self.id && *cached_pid == pid.0 {
                    return f(ctx);
                }
            }
            let ctx = self.procs.lock().entry(pid.0).or_default().clone();
            let r = f(&ctx);
            // While an outer call still holds the cache, it stays as is.
            if let Ok(mut slot) = cell.try_borrow_mut() {
                *slot = Some((self.id, pid.0, ctx));
            }
            r
        })
    }

    /// `pid`'s context, if it has one; a peek never creates one.
    pub(crate) fn peek_ctx(&self, pid: Pid) -> Option<Arc<ProcCtx>> {
        self.procs.lock().get(&pid.0).cloned()
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    pub fn net(&self) -> &Arc<NetStack> {
        &self.net
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The recycled kernel scratch buffers (op staging, fetched paths).
    pub fn scratch(&self) -> &kalloc::BufPool {
        &self.scratch
    }

    /// Open descriptors across all processes (leak checking in tests).
    pub fn open_fds(&self, pid: Pid) -> usize {
        self.peek_ctx(pid).map_or(0, |c| c.fds.lock().open_count())
    }

    /// The open file behind `fd`, if any (no side effects, no charges).
    pub fn fd_peek(&self, pid: Pid, fd: i32) -> Option<OpenFile> {
        self.peek_ctx(pid).and_then(|c| c.fds.lock().get(fd))
    }

    /// Capture `pid`'s descriptor table (descriptor numbers included) so a
    /// failed compound can put it back exactly — see [`Self::fd_restore`].
    pub fn fd_snapshot(&self, pid: Pid) -> Vec<Option<OpenFile>> {
        self.peek_ctx(pid).map(|c| c.fds.lock().snapshot()).unwrap_or_default()
    }

    /// Restore a table captured with [`Self::fd_snapshot`]: descriptors
    /// opened since vanish, closed ones reappear at their old numbers with
    /// their old offsets.
    pub fn fd_restore(&self, pid: Pid, snap: Vec<Option<OpenFile>>) {
        self.with_ctx(pid, |c| c.fds.lock().restore(snap));
    }

    // ---- boundary-charge helpers ------------------------------------------

    /// Charge a user→kernel argument copy of `len` bytes (path strings and
    /// other small arguments; the bytes themselves need no storage).
    pub(crate) fn charge_arg_in(&self, len: usize) {
        self.machine
            .clock
            .charge_sys(self.machine.cost.copy_cost(len));
        self.machine
            .stats
            .bytes_copied_in
            .fetch_add(len as u64, Relaxed);
    }

    /// One user→kernel→user round trip: stub + crossing + `f` + trace
    /// record. The caller decides what the syscall-entry filter sees.
    ///
    /// The whole call runs under one [`ksim::BatchGuard`], so the dozens of
    /// per-charge atomic RMWs a syscall used to issue collapse into one
    /// flush when the guard drops. The machine-stats snapshots exist only
    /// to compute the byte deltas for the trace record, so an untraced
    /// syscall (the default) skips both of them.
    fn cross(&self, pid: Pid, no: Sysno, f: impl FnOnce(&Self) -> i64) -> i64 {
        let _batch = self.machine.clock.batch();
        let traced = self.tracer.is_enabled();
        self.machine.charge_user(USER_STUB_CYCLES);
        let s0 = traced.then(|| self.machine.stats.snapshot());
        let token = match self.machine.enter_kernel(pid) {
            Ok(t) => t,
            Err(SimError::NoSuchProcess(_)) => return -3, // ESRCH
            Err(_) => return -14,                         // EFAULT
        };
        self.machine.stats.syscalls.fetch_add(1, Relaxed);
        let ret = f(self);
        self.machine.exit_kernel(token);
        if let Some(s0) = s0 {
            let d = self.machine.stats.snapshot().delta(&s0);
            self.tracer.record(SyscallEvent {
                no,
                pid: pid.0,
                bytes_in: d.bytes_copied_in,
                bytes_out: d.bytes_copied_out,
                ret,
                ts: self.machine.clock.elapsed_cycles(),
            });
        }
        ret
    }

    /// A classic system call: one crossing around one [`KOp`] dispatched
    /// over user memory. The entry filter runs inside
    /// [`Self::dispatch`], once.
    pub fn syscall(&self, pid: Pid, op: KOp<'_>) -> i64 {
        self.cross(pid, op.sysno(), |s| {
            s.dispatch(pid, op, &mut UserMem).unwrap_or_else(|e| e.errno())
        })
    }

    /// A crossing that is not a single [`KOp`] (ring setup/register/enter,
    /// the consolidated calls, poll). With a filter attached it sees
    /// `ctx = [sysno, 0, 0, 0]` and may veto; with none the extra cost is
    /// one relaxed load (the exact-cycle fast-path tests pin this).
    pub(crate) fn invoke(&self, pid: Pid, no: Sysno, f: impl FnOnce(&Self) -> SysResult) -> i64 {
        self.cross(pid, no, |s| {
            if let Err(veto) = s.consult_syscall_filter(pid, no, [0; 3]) {
                return veto;
            }
            f(s).unwrap_or_else(|e| e.errno())
        })
    }

    /// Run `pid`'s entry filter on `ctx = [sysno, args...]`. `Ok` carries
    /// the (possibly rewritten) arguments; `Err` carries the veto errno: a
    /// negative return, or -13 EACCES when the program faults — a process
    /// that asked for a policy program keeps it or loses service.
    pub(crate) fn consult_syscall_filter(
        &self,
        pid: Pid,
        no: Sysno,
        args: [i64; 3],
    ) -> Result<[i64; 3], i64> {
        let Some(att) = self.prog(pid, FILTER) else {
            return Ok(args);
        };
        let mut ctx = [no as i64, args[0], args[1], args[2]];
        match att.run(&mut ctx, None) {
            Ok(v) if v < 0 => Err(v),
            Ok(_) => Ok([ctx[1], ctx[2], ctx[3]]),
            Err(_) => Err(-13), // EACCES: fail closed
        }
    }

    // ---- verified-program attach points (kprog) ---------------------------

    /// Whether any process has a program at `hook`: one relaxed load.
    #[inline]
    pub(crate) fn hooked(&self, hook: usize) -> bool {
        self.attached[hook].load(Relaxed) != 0
    }

    /// `pid`'s program at `hook` ([`FILTER`] or [`CQE`]). While no process
    /// has one there this is one relaxed load and takes no lock.
    #[inline]
    pub(crate) fn prog(&self, pid: Pid, hook: usize) -> Option<Arc<Attachment>> {
        if !self.hooked(hook) {
            return None;
        }
        self.with_ctx(pid, |c| c.progs.lock()[hook].clone())
    }

    /// Put `att` at `pid`'s `hook`, or clear it with `None`, keeping the
    /// hook's count in step; returns what was there. A program verified for
    /// another hook's class is refused.
    fn set_prog(
        &self,
        pid: Pid,
        hook: usize,
        att: Option<Arc<Attachment>>,
    ) -> Result<Option<Arc<Attachment>>, &'static str> {
        if att.as_ref().is_some_and(|a| a.class() != HOOK_CLASS[hook]) {
            return Err("attachment was verified for another hook class");
        }
        Ok(self.with_ctx(pid, |c| {
            let mut progs = c.progs.lock();
            let old = std::mem::replace(&mut progs[hook], att);
            match (old.is_some(), progs[hook].is_some()) {
                (false, true) => self.attached[hook].fetch_add(1, Relaxed),
                (true, false) => self.attached[hook].fetch_sub(1, Relaxed),
                _ => 0,
            };
            old
        }))
    }

    /// Install a verified syscall-entry filter for `pid`, replacing any
    /// previous one. Every subsequent syscall from `pid` runs it before
    /// dispatch; see [`Self::dispatch`] for the veto/rewrite contract.
    pub fn attach_syscall_filter(&self, pid: Pid, att: Arc<Attachment>) -> Result<(), &'static str> {
        self.set_prog(pid, FILTER, Some(att)).map(drop)
    }

    /// Remove `pid`'s syscall-entry filter, returning it if present.
    pub fn detach_syscall_filter(&self, pid: Pid) -> Option<Arc<Attachment>> {
        self.set_prog(pid, FILTER, None).ok().flatten()
    }

    /// Install a verified per-CQE completion program for `pid`, replacing
    /// any previous one. Ring completions from `sys_ring_enter` then pass
    /// through it: the program can drop, rewrite, or resubmit each
    /// completion without a crossing.
    pub fn attach_cqe_program(&self, pid: Pid, att: Arc<Attachment>) -> Result<(), &'static str> {
        self.set_prog(pid, CQE, Some(att)).map(drop)
    }

    /// Remove `pid`'s CQE program, returning it if present.
    pub fn detach_cqe_program(&self, pid: Pid) -> Option<Arc<Attachment>> {
        self.set_prog(pid, CQE, None).ok().flatten()
    }

    // ---- in-kernel operations (used by sys_* and by Cosy) -----------------

    /// In-kernel `open`: path resolution, optional create/truncate, FD
    /// installation.
    pub fn k_open(&self, pid: Pid, path: &str, flags: OpenFlags) -> VfsResult<i32> {
        let ino = match self.vfs.resolve(path) {
            Ok(ino) => {
                // A directory opens read-only, like open(2).
                if flags.writable() && self.vfs.fs().kind(ino)? == FileKind::Dir {
                    return Err(VfsError::IsADirectory);
                }
                if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                    self.vfs.fs().truncate(ino, 0)?;
                }
                ino
            }
            Err(VfsError::NotFound) if flags.contains(OpenFlags::CREAT) => {
                self.vfs.create_path(path)?
            }
            Err(e) => return Err(e),
        };
        let file = OpenFile {
            ino,
            offset: 0,
            flags,
        };
        Ok(self.with_ctx(pid, |c| c.fds.lock().insert(file)))
    }

    /// In-kernel `close`.
    pub fn k_close(&self, pid: Pid, fd: i32) -> VfsResult<()> {
        self.with_ctx(pid, |c| c.fds.lock().remove(fd))
            .map(|_| ())
            .ok_or(VfsError::BadHandle)
    }

    /// Run `f` with the descriptor's [`OpenFile`], holding the fd-table
    /// lock for the duration. The file-system layers take their own locks
    /// (inode table, block cache) strictly *after* this one, so the single
    /// hold replaces the old lookup/operate/update triple acquisition
    /// without any ordering hazard.
    fn with_file<R>(
        &self,
        pid: Pid,
        fd: i32,
        f: impl FnOnce(&mut OpenFile) -> VfsResult<R>,
    ) -> VfsResult<R> {
        self.with_ctx(pid, |c| {
            let mut table = c.fds.lock();
            let file = table.get_mut(fd).ok_or(VfsError::BadHandle)?;
            f(file)
        })
    }

    /// In-kernel positional read into a kernel buffer; advances the offset.
    pub fn k_read(&self, pid: Pid, fd: i32, buf: &mut [u8]) -> VfsResult<usize> {
        self.with_file(pid, fd, |f| {
            let n = self.vfs.fs().read(f.ino, f.offset, buf)?;
            f.offset += n as u64;
            Ok(n)
        })
    }

    /// In-kernel write from a kernel buffer; honours `O_APPEND`, `O_SYNC`,
    /// and `O_DIRECT` (the latter two flush through the file system's
    /// durability hook before returning — a no-op on memfs, a journal
    /// commit on kjfs).
    pub fn k_write(&self, pid: Pid, fd: i32, data: &[u8]) -> VfsResult<usize> {
        self.with_file(pid, fd, |f| {
            if !f.flags.writable() {
                return Err(VfsError::BadHandle);
            }
            let off = if f.flags.contains(OpenFlags::APPEND) {
                self.vfs.fs().stat(f.ino)?.size
            } else {
                f.offset
            };
            let n = self.vfs.fs().write(f.ino, off, data)?;
            if f.flags.contains(OpenFlags::SYNC) {
                self.vfs.fs().fsync(f.ino, false)?;
            } else if f.flags.contains(OpenFlags::DIRECT) {
                self.vfs.fs().fsync(f.ino, true)?;
            }
            f.offset = off + n as u64;
            Ok(n)
        })
    }

    /// In-kernel `fsync`/`fdatasync` on a descriptor.
    pub fn k_fsync(&self, pid: Pid, fd: i32, data_only: bool) -> VfsResult<()> {
        let ino = self.with_file(pid, fd, |f| Ok(f.ino))?;
        self.vfs.fs().fsync(ino, data_only)
    }

    /// In-kernel `lseek`.
    pub fn k_lseek(&self, pid: Pid, fd: i32, off: i64, whence: i32) -> VfsResult<u64> {
        self.with_file(pid, fd, |f| {
            let size = self.vfs.fs().stat(f.ino)?.size;
            let base = match whence {
                SEEK_SET => 0i64,
                SEEK_CUR => f.offset as i64,
                SEEK_END => size as i64,
                _ => return Err(VfsError::Invalid("bad whence")),
            };
            let new = base + off;
            if new < 0 {
                return Err(VfsError::Invalid("negative offset"));
            }
            f.offset = new as u64;
            Ok(f.offset)
        })
    }

    /// In-kernel `stat` by path.
    pub fn k_stat(&self, path: &str) -> VfsResult<Stat> {
        self.vfs.stat_path(path)
    }

    /// In-kernel `fstat`.
    pub fn k_fstat(&self, pid: Pid, fd: i32) -> VfsResult<Stat> {
        let ino = self.with_file(pid, fd, |f| Ok(f.ino))?;
        self.vfs.fs().stat(ino)
    }

    /// In-kernel directory read: up to `max` entries from the cursor.
    pub fn k_readdir_chunk(&self, pid: Pid, fd: i32, max: usize) -> VfsResult<Vec<DirEntry>> {
        self.with_file(pid, fd, |f| {
            let mut all = self.vfs.fs().readdir(f.ino)?;
            let start = (f.offset as usize).min(all.len());
            let end = (start + max).min(all.len());
            f.offset = end as u64;
            all.truncate(end);
            all.drain(..start);
            Ok(all)
        })
    }

    pub fn k_mkdir(&self, path: &str) -> VfsResult<()> {
        self.vfs.mkdir_path(path).map(|_| ())
    }

    pub fn k_rmdir(&self, path: &str) -> VfsResult<()> {
        self.vfs.rmdir_path(path)
    }

    pub fn k_unlink(&self, path: &str) -> VfsResult<()> {
        self.vfs.unlink_path(path)
    }

    pub fn k_rename(&self, from: &str, to: &str) -> VfsResult<()> {
        self.vfs.rename_path(from, to)
    }

    pub fn k_truncate(&self, path: &str, size: u64) -> VfsResult<()> {
        let ino = self.vfs.resolve(path)?;
        self.vfs.fs().truncate(ino, size)
    }

    // ---- classic system calls: one crossing, one dispatched op -------------

    /// `open(2)`.
    pub fn sys_open(&self, pid: Pid, path: &str, flags: OpenFlags) -> i64 {
        self.syscall(pid, KOp::Open { path: PathRef::Host(path), flags })
    }

    /// `close(2)`.
    pub fn sys_close(&self, pid: Pid, fd: i32) -> i64 {
        self.syscall(pid, KOp::Close { fd })
    }

    /// `read(2)` into user buffer `ubuf`.
    pub fn sys_read(&self, pid: Pid, fd: i32, ubuf: u64, len: usize) -> i64 {
        self.syscall(pid, KOp::Read { fd, buf: ubuf, len, off: OFF_CURSOR })
    }

    /// `write(2)` from user buffer `ubuf`.
    pub fn sys_write(&self, pid: Pid, fd: i32, ubuf: u64, len: usize) -> i64 {
        self.syscall(pid, KOp::Write { fd, buf: ubuf, len, off: OFF_CURSOR })
    }

    /// `lseek(2)`.
    pub fn sys_lseek(&self, pid: Pid, fd: i32, off: i64, whence: i32) -> i64 {
        self.syscall(pid, KOp::Lseek { fd, off, whence })
    }

    /// `stat(2)`: writes the stat record to user address `ustat`.
    pub fn sys_stat(&self, pid: Pid, path: &str, ustat: u64) -> i64 {
        self.syscall(pid, KOp::Stat { path: PathRef::Host(path), buf: ustat })
    }

    /// `fstat(2)`.
    pub fn sys_fstat(&self, pid: Pid, fd: i32, ustat: u64) -> i64 {
        self.syscall(pid, KOp::Fstat { fd, buf: ustat })
    }

    /// `readdir`/getdents: copies up to `max` fixed-size dirents to `ubuf`;
    /// returns the entry count (0 at end of directory).
    pub fn sys_readdir(&self, pid: Pid, fd: i32, ubuf: u64, max: usize) -> i64 {
        self.syscall(pid, KOp::Readdir { fd, buf: ubuf, max })
    }

    /// `getpid(2)`.
    pub fn sys_getpid(&self, pid: Pid) -> i64 {
        self.syscall(pid, KOp::Getpid)
    }

    /// `mkdir(2)`.
    pub fn sys_mkdir(&self, pid: Pid, path: &str) -> i64 {
        self.syscall(pid, KOp::Mkdir { path: PathRef::Host(path) })
    }

    /// `rmdir(2)`.
    pub fn sys_rmdir(&self, pid: Pid, path: &str) -> i64 {
        self.syscall(pid, KOp::Rmdir { path: PathRef::Host(path) })
    }

    /// `unlink(2)`.
    pub fn sys_unlink(&self, pid: Pid, path: &str) -> i64 {
        self.syscall(pid, KOp::Unlink { path: PathRef::Host(path) })
    }

    /// `rename(2)`.
    pub fn sys_rename(&self, pid: Pid, from: &str, to: &str) -> i64 {
        self.syscall(pid, KOp::Rename { from, to })
    }

    /// `fsync(2)`: block until the file's data and metadata are durable.
    pub fn sys_fsync(&self, pid: Pid, fd: i32) -> i64 {
        self.syscall(pid, KOp::Fsync { fd, data_only: false })
    }

    /// `fdatasync(2)`: like `fsync` but may skip metadata that isn't needed
    /// to read the data back (a no-op commit when only timestamps changed).
    pub fn sys_fdatasync(&self, pid: Pid, fd: i32) -> i64 {
        self.syscall(pid, KOp::Fsync { fd, data_only: true })
    }

    /// `truncate(2)`.
    pub fn sys_truncate(&self, pid: Pid, path: &str, size: u64) -> i64 {
        self.syscall(pid, KOp::Truncate { path: PathRef::Host(path), size })
    }

    // ---- consolidated system calls (§2.2) ----------------------------------

    /// `readdirplus`: one crossing returns every entry of `path` packed with
    /// its attributes. Returns the entry count; entries are written to
    /// `ubuf` as [`wire::RDP_ENTRY_WIRE_BYTES`]-byte records.
    ///
    /// Savings vs `readdir` + N × `stat`: N crossings, N path copies, N
    /// repeated directory searches — "once we get the file names we can
    /// directly use them to get the stat information".
    pub fn sys_readdirplus(&self, pid: Pid, path: &str, ubuf: u64, max: usize) -> i64 {
        self.invoke(pid, Sysno::ReaddirPlus, |s| {
            s.charge_arg_in(path.len());
            let entries = s.vfs.fs().readdir(s.vfs.resolve(path)?)?;
            let count = entries.len().min(max);
            let mut buf = Vec::with_capacity(count * wire::RDP_ENTRY_WIRE_BYTES);
            for e in &entries[..count] {
                // The names are already in hand: stat directly by inode,
                // no second path resolution.
                let st = s.vfs.fs().stat(kvfs::Ino(e.ino))?;
                buf.extend_from_slice(&wire::rdp_entry_to_wire(e, &st));
            }
            UserMem.put(s, pid, ubuf, &buf)?;
            Ok(count as i64)
        })
    }

    /// `open_read_close`: read up to `len` bytes at `off` from `path` into
    /// `ubuf` in a single crossing. Returns bytes read.
    pub fn sys_open_read_close(
        &self,
        pid: Pid,
        path: &str,
        ubuf: u64,
        len: usize,
        off: u64,
    ) -> i64 {
        self.invoke(pid, Sysno::OpenReadClose, |s| {
            s.charge_arg_in(path.len());
            let ino = s.vfs.resolve(path)?;
            if s.vfs.fs().stat(ino).is_ok_and(|st| st.kind == FileKind::Dir) {
                return Err(VfsError::IsADirectory.into());
            }
            let mut buf = vec![0u8; len];
            let n = s.vfs.fs().read(ino, off, &mut buf)?;
            UserMem.put(s, pid, ubuf, &buf[..n])?;
            Ok(n as i64)
        })
    }

    /// `open_write_close`: write `len` bytes from `ubuf` to `path` (created
    /// if needed; truncated unless `append`) in a single crossing.
    pub fn sys_open_write_close(
        &self,
        pid: Pid,
        path: &str,
        ubuf: u64,
        len: usize,
        append: bool,
    ) -> i64 {
        self.invoke(pid, Sysno::OpenWriteClose, |s| {
            s.charge_arg_in(path.len());
            let mut data = vec![0u8; len];
            UserMem.get(s, pid, ubuf, &mut data)?;
            let ino = match s.vfs.resolve(path) {
                Err(VfsError::NotFound) => s.vfs.create_path(path)?,
                r => r?,
            };
            let off = if append {
                s.vfs.fs().stat(ino)?.size
            } else {
                s.vfs.fs().truncate(ino, 0)?;
                0
            };
            Ok(s.vfs.fs().write(ino, off, &data)? as i64)
        })
    }

    /// `open_fstat`: open `path` and return its attributes in one crossing.
    /// Returns the new fd; the stat record is written to `ustat`.
    pub fn sys_open_fstat(&self, pid: Pid, path: &str, ustat: u64, flags: OpenFlags) -> i64 {
        self.invoke(pid, Sysno::OpenFstat, |s| {
            s.charge_arg_in(path.len());
            let fd = s.k_open(pid, path, flags)?;
            let st = s.k_fstat(pid, fd).inspect_err(|_| {
                let _ = s.k_close(pid, fd);
            })?;
            UserMem.put(s, pid, ustat, &st.to_wire())?;
            Ok(fd as i64)
        })
    }

    // ---- in-kernel socket operations (used by sys_* and by Cosy) ----------

    pub fn k_socket(&self, pid: Pid) -> Result<i32, NetError> {
        self.net.socket(pid)
    }

    pub fn k_bind_listen(
        &self,
        pid: Pid,
        sd: i32,
        port: u16,
        backlog: usize,
    ) -> Result<(), NetError> {
        self.net.bind_listen(pid, sd, port, backlog)
    }

    pub fn k_connect(&self, pid: Pid, sd: i32, port: u16) -> Result<(), NetError> {
        self.net.connect(pid, sd, port)
    }

    pub fn k_accept(&self, pid: Pid, sd: i32) -> Result<i32, NetError> {
        self.net.accept(pid, sd)
    }

    pub fn k_send(&self, pid: Pid, sd: i32, data: &[u8]) -> Result<usize, NetError> {
        self.net.send(pid, sd, data)
    }

    pub fn k_recv(&self, pid: Pid, sd: i32, out: &mut [u8]) -> Result<usize, NetError> {
        self.net.recv(pid, sd, out)
    }

    pub fn k_shutdown(&self, pid: Pid, sd: i32) -> Result<(), NetError> {
        self.net.shutdown(pid, sd)
    }

    /// In-kernel `sendfile`: stream up to `len` bytes from `fd`'s cursor
    /// into socket `sd`, page by page, never surfacing the data to user
    /// space. Under backpressure the file cursor is rewound to cover
    /// exactly the bytes actually queued, so a caller can retry from where
    /// it left off. Returns bytes queued; `Err` is a ready negative errno
    /// (the call spans the vfs and socket error domains).
    pub fn k_sendfile(&self, pid: Pid, sd: i32, fd: i32, len: usize) -> Result<usize, i64> {
        const CHUNK: usize = 8192;
        let mut page = [0u8; CHUNK];
        let mut total = 0usize;
        while total < len {
            let want = CHUNK.min(len - total);
            let n = self
                .k_read(pid, fd, &mut page[..want])
                .map_err(|e| e.errno())?;
            if n == 0 {
                break; // EOF
            }
            match self.net.send(pid, sd, &page[..n]) {
                Ok(m) => {
                    total += m;
                    if m < n {
                        // Peer ring full: un-read the unsent tail.
                        let _ = self.k_lseek(pid, fd, -((n - m) as i64), SEEK_CUR);
                        break;
                    }
                }
                Err(NetError::Again) => {
                    let _ = self.k_lseek(pid, fd, -(n as i64), SEEK_CUR);
                    if total == 0 {
                        return Err(NetError::Again.errno());
                    }
                    break;
                }
                Err(e) => return Err(e.errno()),
            }
        }
        Ok(total)
    }

    // ---- socket system calls ----------------------------------------------

    /// `socket(2)`: returns a new socket descriptor.
    pub fn sys_socket(&self, pid: Pid) -> i64 {
        self.syscall(pid, KOp::Socket)
    }

    /// `bind(2)` + `listen(2)` in one call (the simulator has no separate
    /// unbound-listening state worth modelling).
    pub fn sys_bind_listen(&self, pid: Pid, sd: i32, port: u16, backlog: usize) -> i64 {
        self.syscall(pid, KOp::BindListen { sd, port, backlog })
    }

    /// `connect(2)` to a loopback port. Completes the handshake eagerly.
    pub fn sys_connect(&self, pid: Pid, sd: i32, port: u16) -> i64 {
        self.syscall(pid, KOp::Connect { sd, port })
    }

    /// `accept(2)`: non-blocking; -EAGAIN when the backlog is empty.
    pub fn sys_accept(&self, pid: Pid, sd: i32) -> i64 {
        self.syscall(pid, KOp::Accept { sd })
    }

    /// `send(2)` from user buffer `ubuf`; returns bytes queued (may be a
    /// short count under backpressure).
    pub fn sys_send(&self, pid: Pid, sd: i32, ubuf: u64, len: usize) -> i64 {
        self.syscall(pid, KOp::Send { sd, buf: ubuf, len })
    }

    /// `recv(2)` into user buffer `ubuf`; 0 means EOF, -EAGAIN means no
    /// data yet.
    pub fn sys_recv(&self, pid: Pid, sd: i32, ubuf: u64, len: usize) -> i64 {
        self.syscall(pid, KOp::Recv { sd, buf: ubuf, len })
    }

    /// `shutdown(2)` + `close(2)` of a socket descriptor.
    pub fn sys_shutdown(&self, pid: Pid, sd: i32) -> i64 {
        self.syscall(pid, KOp::Shutdown { sd })
    }

    /// `poll(2)`-style readiness query over `sds`. Ready `(sd, mask)`
    /// pairs are written to `ubuf` as two little-endian `i32`s each;
    /// returns how many pairs were written.
    pub fn sys_poll_wait(&self, pid: Pid, sds: &[i32], ubuf: u64) -> i64 {
        self.invoke(pid, Sysno::PollWait, |s| {
            s.charge_arg_in(sds.len() * 4);
            let ready = s.net.poll(pid, sds);
            let mut buf = Vec::with_capacity(ready.len() * 8);
            for (sd, mask) in &ready {
                buf.extend_from_slice(&sd.to_le_bytes());
                buf.extend_from_slice(&mask.to_le_bytes());
            }
            UserMem.put(s, pid, ubuf, &buf)?;
            Ok(ready.len() as i64)
        })
    }

    // ---- consolidated socket calls (§2.2) ---------------------------------

    /// `sendfile`: file page → socket ring entirely inside the kernel — the
    /// data never crosses the user boundary, so the only charges are the
    /// crossing itself, the disk read, and the in-kernel ring move.
    pub fn sys_sendfile(&self, pid: Pid, sd: i32, fd: i32, len: usize) -> i64 {
        self.syscall(pid, KOp::Sendfile { sd, fd, len })
    }

    /// One crossing per request: accept a pending connection on `lsd`,
    /// read its NUL-terminated request path, stream that file back over
    /// the connection, close both. The raw request bytes (up to `reqcap`)
    /// are copied to `ureq` so the server can log them. Returns bytes
    /// served, or -EAGAIN when no connection or no request is ready.
    pub fn sys_accept_recv_send_close(&self, pid: Pid, lsd: i32, ureq: u64, reqcap: usize) -> i64 {
        self.invoke(pid, Sysno::AcceptRecvSendClose, |s| {
            let sd = s.k_accept(pid, lsd)?;
            // Every way out past the accept closes the connection.
            let served = (|| {
                let mut req = [0u8; 256];
                let n = match s.k_recv(pid, sd, &mut req) {
                    Ok(0) => return Err(NetError::Again.into()),
                    r => r?,
                };
                UserMem.put(s, pid, ureq, &req[..n.min(reqcap)])?;
                let path_end = req[..n].iter().position(|&b| b == 0).unwrap_or(n);
                let path = std::str::from_utf8(&req[..path_end]).map_err(|_| OpError::Errno(-22))?;
                let fd = s.k_open(pid, path, OpenFlags::RDONLY)?;
                let mut served = 0;
                while let Ok(m @ 1..) = s.k_sendfile(pid, sd, fd, usize::MAX) {
                    served += m;
                }
                let _ = s.k_close(pid, fd);
                Ok(served as i64)
            })();
            let _ = s.k_shutdown(pid, sd);
            served
        })
    }
}

impl std::fmt::Debug for SyscallLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyscallLayer")
            .field("fs", &self.vfs.fs().fs_name())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ksim::MachineConfig;
    use kvfs::{BlockDev, MemFs};

    /// A memfs-backed layer and a process with 1 MiB of user memory at
    /// [`UBUF`].
    pub(crate) fn setup() -> (Arc<Machine>, SyscallLayer, Pid) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Arc::new(MemFs::new(m.clone(), dev));
        let vfs = Arc::new(Vfs::new(m.clone(), fs));
        let layer = SyscallLayer::new(m.clone(), vfs);
        let pid = m.spawn_process();
        m.map_user(pid, UBUF, 1 << 20).unwrap();
        (m, layer, pid)
    }

    pub(crate) const UBUF: u64 = 0x10_0000;

    #[test]
    fn open_write_read_close_roundtrip() {
        let (m, sys, pid) = setup();
        let fd = sys.sys_open(pid, "/f", OpenFlags::RDWR | OpenFlags::CREAT);
        assert!(fd >= 0);
        let payload = b"the quick brown fox";
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, payload)
            .unwrap();
        assert_eq!(sys.sys_write(pid, fd as i32, UBUF, payload.len()), 19);
        assert_eq!(sys.sys_lseek(pid, fd as i32, 0, SEEK_SET), 0);
        assert_eq!(sys.sys_read(pid, fd as i32, UBUF + 4096, 100), 19);
        let mut out = vec![0u8; 19];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, &mut out)
            .unwrap();
        assert_eq!(&out, payload);
        assert_eq!(sys.sys_close(pid, fd as i32), 0);
        assert_eq!(sys.sys_close(pid, fd as i32), -9, "EBADF on double close");
        assert_eq!(sys.open_fds(pid), 0);
    }

    /// Leak check for the scratch pool: steady-state I/O churn must reach
    /// a high-water equilibrium — doubling the churn neither raises the
    /// peak nor leaves a buffer checked out.
    #[test]
    fn scratch_pool_reaches_high_water_equilibrium() {
        let (_m, sys, pid) = setup();
        let fd = sys.sys_open(pid, "/churn", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        // 1 KiB transfers bypass the small-I/O stack buffer, so every op
        // checks a buffer out of the pool and returns it.
        let churn = |rounds: usize| {
            for _ in 0..rounds {
                assert_eq!(sys.sys_write(pid, fd, UBUF, 1024), 1024);
                assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), 0);
                assert_eq!(sys.sys_read(pid, fd, UBUF + 4096, 1024), 1024);
                assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_SET), 0);
            }
        };
        churn(200);
        let peak = sys.scratch.high_water();
        churn(200);
        assert_eq!(sys.scratch.high_water(), peak, "churn grew the pool's peak");
        assert_eq!(sys.scratch.outstanding(), 0, "a scratch buffer leaked");
        assert!(sys.scratch.idle() as u64 <= peak, "idle list beyond the peak");
        let kalloc::PoolStats { hits, misses } = sys.scratch.stats();
        assert!(hits > 0, "steady state must recycle");
        assert!(misses as usize <= 2, "only the first checkouts allocate");
    }

    #[test]
    fn errno_mapping() {
        let (_m, sys, pid) = setup();
        assert_eq!(
            sys.sys_open(pid, "/missing", OpenFlags::RDONLY),
            -2,
            "ENOENT"
        );
        assert_eq!(sys.sys_read(pid, 42, UBUF, 10), -9, "EBADF");
        sys.sys_mkdir(pid, "/d");
        assert_eq!(sys.sys_mkdir(pid, "/d"), -17, "EEXIST");
        let fd = sys.sys_open(pid, "/d", OpenFlags::RDONLY);
        assert!(fd >= 0, "directories can be opened for readdir");
        assert_eq!(sys.sys_rmdir(pid, "/missing"), -2);
    }

    #[test]
    fn append_mode_appends() {
        let (m, sys, pid) = setup();
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, b"aaabbb")
            .unwrap();
        let fd = sys.sys_open(
            pid,
            "/log",
            OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::APPEND,
        );
        assert_eq!(sys.sys_write(pid, fd as i32, UBUF, 3), 3);
        assert_eq!(sys.sys_write(pid, fd as i32, UBUF + 3, 3), 3);
        sys.sys_close(pid, fd as i32);
        let fd = sys.sys_open(pid, "/log", OpenFlags::RDONLY);
        assert_eq!(sys.sys_read(pid, fd as i32, UBUF + 100, 10), 6);
        let mut out = vec![0u8; 6];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 100, &mut out)
            .unwrap();
        assert_eq!(&out, b"aaabbb");
    }

    #[test]
    fn readdir_pages_through_entries() {
        let (_m, sys, pid) = setup();
        sys.sys_mkdir(pid, "/dir");
        for i in 0..7 {
            let fd = sys.sys_open(pid, &format!("/dir/f{i}"), OpenFlags::CREAT);
            sys.sys_close(pid, fd as i32);
        }
        let dfd = sys.sys_open(pid, "/dir", OpenFlags::RDONLY) as i32;
        let n1 = sys.sys_readdir(pid, dfd, UBUF, 3);
        let n2 = sys.sys_readdir(pid, dfd, UBUF, 3);
        let n3 = sys.sys_readdir(pid, dfd, UBUF, 3);
        let n4 = sys.sys_readdir(pid, dfd, UBUF, 3);
        assert_eq!((n1, n2, n3, n4), (3, 3, 1, 0));
    }

    #[test]
    fn readdirplus_matches_readdir_stat_loop_with_fewer_crossings() {
        let (m, sys, pid) = setup();
        sys.sys_mkdir(pid, "/data");
        for i in 0..20 {
            let fd = sys.sys_open(
                pid,
                &format!("/data/file{i:02}"),
                OpenFlags::RDWR | OpenFlags::CREAT,
            ) as i32;
            m.mem
                .write_virt(m.proc_asid(pid).unwrap(), UBUF, &vec![7u8; i])
                .unwrap();
            sys.sys_write(pid, fd, UBUF, i);
            sys.sys_close(pid, fd);
        }

        // Baseline: readdir + stat per name.
        let before = m.stats.snapshot();
        let dfd = sys.sys_open(pid, "/data", OpenFlags::RDONLY) as i32;
        let n = sys.sys_readdir(pid, dfd, UBUF, 64);
        assert_eq!(n, 20);
        let mut buf = vec![0u8; 20 * DIRENT_WIRE_BYTES];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut buf)
            .unwrap();
        let entries = wire::parse_dirents(&buf, 20);
        let mut baseline_stats = Vec::new();
        for e in &entries {
            let path = format!("/data/{}", e.name);
            assert_eq!(sys.sys_stat(pid, &path, UBUF + 65536), 0);
            let mut sw = [0u8; STAT_WIRE_BYTES];
            m.mem
                .read_virt(m.proc_asid(pid).unwrap(), UBUF + 65536, &mut sw)
                .unwrap();
            baseline_stats.push(Stat::from_wire(&sw));
        }
        sys.sys_close(pid, dfd);
        let base = m.stats.snapshot().delta(&before);

        // readdirplus: one crossing.
        let before = m.stats.snapshot();
        let n = sys.sys_readdirplus(pid, "/data", UBUF, 64);
        assert_eq!(n, 20);
        let mut buf = vec![0u8; 20 * wire::RDP_ENTRY_WIRE_BYTES];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut buf)
            .unwrap();
        let plus = wire::parse_rdp_entries(&buf, 20);
        let cons = m.stats.snapshot().delta(&before);

        // Same information...
        for (i, (e, st)) in plus.iter().enumerate() {
            assert_eq!(e.name, entries[i].name);
            assert_eq!(st.size, baseline_stats[i].size);
            assert_eq!(st.ino, baseline_stats[i].ino);
        }
        // ...far cheaper transport.
        assert_eq!(cons.crossings, 1);
        assert!(base.crossings >= 22, "open+readdir+20 stats+close");
        assert!(cons.bytes_crossed() < base.bytes_crossed());
    }

    #[test]
    fn open_read_close_equals_three_call_sequence() {
        let (m, sys, pid) = setup();
        let fd = sys.sys_open(pid, "/blob", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 256) as u8).collect();
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, &data)
            .unwrap();
        sys.sys_write(pid, fd, UBUF, data.len());
        sys.sys_close(pid, fd);

        let s0 = m.stats.snapshot();
        let n = sys.sys_open_read_close(pid, "/blob", UBUF + 8192, 3000, 0);
        assert_eq!(n, 3000);
        let d = m.stats.snapshot().delta(&s0);
        assert_eq!(d.crossings, 1, "single crossing for the whole sequence");
        let mut out = vec![0u8; 3000];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 8192, &mut out)
            .unwrap();
        assert_eq!(out, data);
        assert_eq!(sys.open_fds(pid), 0, "orc leaves no fd behind");
        // Partial read at offset.
        let n = sys.sys_open_read_close(pid, "/blob", UBUF + 8192, 100, 2950);
        assert_eq!(n, 50);
    }

    #[test]
    fn open_write_close_creates_truncates_and_appends() {
        let (m, sys, pid) = setup();
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, b"hello")
            .unwrap();
        assert_eq!(sys.sys_open_write_close(pid, "/new", UBUF, 5, false), 5);
        assert_eq!(sys.sys_open_write_close(pid, "/new", UBUF, 5, true), 5);
        let st_ret = sys.sys_stat(pid, "/new", UBUF + 4096);
        assert_eq!(st_ret, 0);
        let mut sw = [0u8; STAT_WIRE_BYTES];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, &mut sw)
            .unwrap();
        assert_eq!(Stat::from_wire(&sw).size, 10, "append grew the file");
        assert_eq!(sys.sys_open_write_close(pid, "/new", UBUF, 5, false), 5);
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, &mut sw)
            .unwrap();
        let _ = sys.sys_stat(pid, "/new", UBUF + 4096);
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, &mut sw)
            .unwrap();
        assert_eq!(Stat::from_wire(&sw).size, 5, "non-append truncates");
    }

    #[test]
    fn open_fstat_returns_open_fd_and_stat() {
        let (m, sys, pid) = setup();
        let fd = sys.sys_open(pid, "/x", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, &[1u8; 500])
            .unwrap();
        sys.sys_write(pid, fd, UBUF, 500);
        sys.sys_close(pid, fd);

        let s0 = m.stats.snapshot();
        let fd2 = sys.sys_open_fstat(pid, "/x", UBUF + 2048, OpenFlags::RDONLY);
        assert!(fd2 >= 0);
        assert_eq!(m.stats.snapshot().delta(&s0).crossings, 1);
        let mut sw = [0u8; STAT_WIRE_BYTES];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 2048, &mut sw)
            .unwrap();
        assert_eq!(Stat::from_wire(&sw).size, 500);
        // The fd is genuinely open.
        assert_eq!(sys.sys_read(pid, fd2 as i32, UBUF + 4096, 10), 10);
        sys.sys_close(pid, fd2 as i32);
    }

    #[test]
    fn tracer_records_syscalls_with_bytes() {
        let (_m, sys, pid) = setup();
        sys.tracer().set_enabled(true);
        let fd = sys.sys_open(pid, "/t", OpenFlags::RDWR | OpenFlags::CREAT);
        sys.sys_close(pid, fd as i32);
        let events = sys.tracer().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].no, Sysno::Open);
        assert!(events[0].bytes_in >= 2, "path copy recorded");
        assert_eq!(events[1].no, Sysno::Close);
        assert!(events[1].ts >= events[0].ts);
    }

    #[test]
    fn getpid_is_cheapest_syscall() {
        let (m, sys, pid) = setup();
        let sys0 = m.clock.sys_cycles();
        assert_eq!(sys.sys_getpid(pid), pid.0 as i64);
        let spent = m.clock.sys_cycles() - sys0;
        assert_eq!(spent, m.cost.crossing_cost(), "no copies, no fs work");
    }

    #[test]
    fn socket_syscalls_roundtrip_with_errnos() {
        let (m, sys, pid) = setup();
        let lsd = sys.sys_socket(pid) as i32;
        assert!(lsd >= 0);
        assert_eq!(sys.sys_bind_listen(pid, lsd, 80, 4), 0);
        assert_eq!(sys.sys_bind_listen(pid, lsd, 80, 4), -106, "already bound");
        let csd = sys.sys_socket(pid) as i32;
        assert_eq!(sys.sys_connect(pid, csd, 81), -111, "ECONNREFUSED");
        assert_eq!(sys.sys_connect(pid, csd, 80), 0);
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, b"ping\0")
            .unwrap();
        assert_eq!(sys.sys_send(pid, csd, UBUF, 5), 5);
        let ssd = sys.sys_accept(pid, lsd) as i32;
        assert!(ssd >= 0);
        assert_eq!(sys.sys_accept(pid, lsd), -11, "backlog drained → EAGAIN");
        assert_eq!(sys.sys_recv(pid, ssd, UBUF + 64, 16), 5);
        let mut out = [0u8; 5];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF + 64, &mut out)
            .unwrap();
        assert_eq!(&out, b"ping\0");
        assert_eq!(sys.sys_shutdown(pid, csd), 0);
        assert_eq!(sys.sys_shutdown(pid, csd), -9, "EBADF on double shutdown");
        assert_eq!(sys.sys_recv(pid, ssd, UBUF + 64, 16), 0, "EOF");
        sys.sys_shutdown(pid, ssd);
        sys.sys_shutdown(pid, lsd);
        assert_eq!(sys.net().open_socks(pid), 0);
    }

    #[test]
    fn poll_wait_writes_ready_pairs() {
        let (m, sys, pid) = setup();
        let lsd = sys.sys_socket(pid) as i32;
        sys.sys_bind_listen(pid, lsd, 80, 4);
        let csd = sys.sys_socket(pid) as i32;
        assert_eq!(
            sys.sys_poll_wait(pid, &[lsd, csd], UBUF),
            0,
            "nothing ready"
        );
        sys.sys_connect(pid, csd, 80);
        let n = sys.sys_poll_wait(pid, &[lsd, csd], UBUF);
        assert!(n >= 1);
        let mut pair = [0u8; 8];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut pair)
            .unwrap();
        let sd = i32::from_le_bytes(pair[0..4].try_into().unwrap());
        let mask = i32::from_le_bytes(pair[4..8].try_into().unwrap());
        assert_eq!(sd, lsd);
        assert_eq!(mask & knet::POLL_IN, knet::POLL_IN, "pending connection");
    }

    #[test]
    fn sendfile_matches_read_send_bytes_without_user_copies() {
        let (m, sys, pid) = setup();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let fd = sys.sys_open(pid, "/doc", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF, &data)
            .unwrap();
        sys.sys_write(pid, fd, UBUF, data.len());
        sys.sys_lseek(pid, fd, 0, SEEK_SET);

        let lsd = sys.sys_socket(pid) as i32;
        sys.sys_bind_listen(pid, lsd, 80, 4);
        let csd = sys.sys_socket(pid) as i32;
        sys.sys_connect(pid, csd, 80);
        let ssd = sys.sys_accept(pid, lsd) as i32;

        let s0 = m.stats.snapshot();
        assert_eq!(
            sys.sys_sendfile(pid, ssd, fd, data.len()),
            data.len() as i64
        );
        let d = m.stats.snapshot().delta(&s0);
        assert_eq!(d.crossings, 1);
        assert_eq!(d.bytes_copied_in + d.bytes_copied_out, 0, "zero-copy path");

        let mut got = Vec::new();
        loop {
            let n = sys.sys_recv(pid, csd, UBUF, 4096);
            if n <= 0 {
                break;
            }
            let mut chunk = vec![0u8; n as usize];
            m.mem
                .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut chunk)
                .unwrap();
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, data, "sendfile delivers the exact file bytes");
        sys.sys_close(pid, fd);
    }

    #[test]
    fn sendfile_backpressure_rewinds_file_cursor() {
        let (_m, sys, pid) = setup();
        sys.net().set_ring_capacity(4096);
        let fd = sys.sys_open(pid, "/big", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        // Build a 10 KiB file through the kernel API directly.
        assert_eq!(sys.k_write(pid, fd, &[9u8; 10_240]).unwrap(), 10_240);
        sys.sys_lseek(pid, fd, 0, SEEK_SET);
        let lsd = sys.sys_socket(pid) as i32;
        sys.sys_bind_listen(pid, lsd, 80, 4);
        let csd = sys.sys_socket(pid) as i32;
        sys.sys_connect(pid, csd, 80);
        let ssd = sys.sys_accept(pid, lsd) as i32;
        // Only the ring's worth fits; the cursor stops exactly there.
        assert_eq!(sys.sys_sendfile(pid, ssd, fd, 10_240), 4096);
        assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_CUR), 4096);
        // Saturated: a retry reports EAGAIN without moving the cursor.
        assert_eq!(sys.sys_sendfile(pid, ssd, fd, 10_240), -11);
        assert_eq!(sys.sys_lseek(pid, fd, 0, SEEK_CUR), 4096);
    }

    #[test]
    fn accept_recv_send_close_serves_request_in_one_crossing() {
        let (m, sys, pid) = setup();
        let doc: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let fd = sys.sys_open(pid, "/index.html", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        sys.k_write(pid, fd, &doc).unwrap();
        sys.sys_close(pid, fd);

        let lsd = sys.sys_socket(pid) as i32;
        sys.sys_bind_listen(pid, lsd, 80, 4);
        assert_eq!(
            sys.sys_accept_recv_send_close(pid, lsd, UBUF, 64),
            -11,
            "no client yet"
        );

        let csd = sys.sys_socket(pid) as i32;
        sys.sys_connect(pid, csd, 80);
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, b"/index.html\0")
            .unwrap();
        sys.sys_send(pid, csd, UBUF + 4096, 12);

        let s0 = m.stats.snapshot();
        let served = sys.sys_accept_recv_send_close(pid, lsd, UBUF, 64);
        assert_eq!(served, 5000);
        assert_eq!(m.stats.snapshot().delta(&s0).crossings, 1);
        let mut req = [0u8; 12];
        m.mem
            .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut req)
            .unwrap();
        assert_eq!(&req, b"/index.html\0", "request surfaced for logging");

        let mut got = Vec::new();
        loop {
            let n = sys.sys_recv(pid, csd, UBUF, 4096);
            if n <= 0 {
                break;
            }
            let mut chunk = vec![0u8; n as usize];
            m.mem
                .read_virt(m.proc_asid(pid).unwrap(), UBUF, &mut chunk)
                .unwrap();
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, doc);
        assert_eq!(sys.open_fds(pid), 0, "file fd closed inside the call");
        // Missing document: connection is closed, errno surfaces.
        let c2 = sys.sys_socket(pid) as i32;
        sys.sys_connect(pid, c2, 80);
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), UBUF + 4096, b"/nope\0")
            .unwrap();
        sys.sys_send(pid, c2, UBUF + 4096, 6);
        assert_eq!(
            sys.sys_accept_recv_send_close(pid, lsd, UBUF, 64),
            -2,
            "ENOENT"
        );
        assert_eq!(sys.sys_recv(pid, c2, UBUF, 64), 0, "server hung up");
    }
}

#[cfg(test)]
mod proptests {
    //! Model-based testing of descriptor lifecycle across mixed syscalls.

    use super::*;
    use ksim::MachineConfig;
    use kuring::Sqe;
    use kvfs::{BlockDev, MemFs};
    use proptest::prelude::*;
    use std::collections::HashMap as Model;

    #[derive(Debug, Clone)]
    enum Op {
        Open(u8),
        Close(u8),
        Write(u8, u8),
        ReadBack(u8),
        SeekEnd(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..4).prop_map(Op::Open),
            (0u8..8).prop_map(Op::Close),
            (0u8..8, 1u8..64).prop_map(|(f, n)| Op::Write(f, n)),
            (0u8..8).prop_map(Op::ReadBack),
            (0u8..8).prop_map(Op::SeekEnd),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Descriptor numbers, offsets, and data stay consistent with a
        /// reference model under arbitrary open/close/write/read/seek
        /// interleavings over four files.
        #[test]
        fn fd_lifecycle_matches_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
            let (_m, sys, pid) = super::tests::setup();
            const UB: u64 = super::tests::UBUF;

            // fd → (file index, model offset); files hold model bytes.
            let mut open_fds: Model<i32, (u8, u64)> = Model::new();
            let mut file_len: Model<u8, u64> = Model::new();

            for op in ops {
                match op {
                    Op::Open(f) => {
                        let fd = sys.sys_open(
                            pid,
                            &format!("/file{f}"),
                            OpenFlags::RDWR | OpenFlags::CREAT,
                        ) as i32;
                        prop_assert!(fd >= 0);
                        prop_assert!(!open_fds.contains_key(&fd), "fd reuse while open");
                        file_len.entry(f).or_insert(0);
                        open_fds.insert(fd, (f, 0));
                    }
                    Op::Close(raw) => {
                        let fd = raw as i32;
                        let r = sys.sys_close(pid, fd);
                        if open_fds.remove(&fd).is_some() {
                            prop_assert_eq!(r, 0);
                        } else {
                            prop_assert_eq!(r, -9);
                        }
                    }
                    Op::Write(raw, n) => {
                        let fd = raw as i32;
                        let r = sys.sys_write(pid, fd, UB, n as usize);
                        match open_fds.get_mut(&fd) {
                            Some((f, off)) => {
                                prop_assert_eq!(r, n as i64);
                                *off += n as u64;
                                let len = file_len.get_mut(f).expect("opened");
                                *len = (*len).max(*off);
                            }
                            None => prop_assert_eq!(r, -9),
                        }
                    }
                    Op::ReadBack(raw) => {
                        let fd = raw as i32;
                        let r = sys.sys_read(pid, fd, UB + 32_768, 16);
                        match open_fds.get_mut(&fd) {
                            Some((f, off)) => {
                                let len = file_len[f];
                                let expect = 16.min(len.saturating_sub(*off)) as i64;
                                prop_assert_eq!(r, expect, "off {} len {}", off, len);
                                *off += expect as u64;
                            }
                            None => prop_assert_eq!(r, -9),
                        }
                    }
                    Op::SeekEnd(raw) => {
                        let fd = raw as i32;
                        let r = sys.sys_lseek(pid, fd, 0, SEEK_END);
                        match open_fds.get_mut(&fd) {
                            Some((f, off)) => {
                                prop_assert_eq!(r, file_len[f] as i64);
                                *off = file_len[f];
                            }
                            None => prop_assert_eq!(r, -9),
                        }
                    }
                }
                prop_assert_eq!(sys.open_fds(pid), open_fds.len());
            }
        }

        /// Recycled scratch buffers behind the uring data path are
        /// observationally identical to fresh allocations. The same
        /// randomized read/write SQE schedule runs twice (against distinct
        /// files, so file contents match per pass): pass one populates the
        /// scratch pool, pass two runs on recycled buffers. CQE traces
        /// (user_data, res) and simulated cycle totals under the free cost
        /// model must match.
        #[test]
        fn pooled_scratch_matches_fresh_buffers(
            ops in proptest::collection::vec(
                (any::<bool>(), 0usize..2048, 0u64..4096),
                1..40,
            )
        ) {
            let m = Arc::new(Machine::new(MachineConfig::small_free()));
            let dev = Arc::new(BlockDev::new(m.clone()));
            let fs = Arc::new(MemFs::new(m.clone(), dev));
            let vfs = Arc::new(Vfs::new(m.clone(), fs));
            let sys = SyscallLayer::new(m.clone(), vfs);
            let pid = m.spawn_process();
            m.map_user(pid, 0x10_0000, 1 << 20).unwrap();
            const UB: u64 = 0x10_0000;
            prop_assert_eq!(sys.sys_ring_setup(pid, 64, 64), 0);
            let ring = sys.uring(pid).expect("ring installed");
            let cycles = |m: &Machine| {
                m.clock.user_cycles() + m.clock.sys_cycles() + m.clock.io_cycles()
            };

            let run_pass = |path: &str, trace: &mut Vec<(u64, i64)>| {
                let fd = sys.sys_open(pid, path, OpenFlags::RDWR | OpenFlags::CREAT) as i32;
                assert!(fd >= 0);
                for (batch_no, batch) in ops.chunks(32).enumerate() {
                    for (i, &(is_write, len, off)) in batch.iter().enumerate() {
                        let ud = (batch_no * 32 + i) as u64;
                        let sqe = if is_write {
                            Sqe::write(fd, UB, len as u32, off, ud)
                        } else {
                            Sqe::read(fd, UB + 0x8_0000, len as u32, off, ud)
                        };
                        ring.push_sqe(sqe).expect("sq sized for the batch");
                    }
                    let entered = sys.sys_ring_enter(pid, batch.len(), batch.len());
                    assert_eq!(entered, batch.len() as i64);
                    while let Some(cqe) = ring.reap_cqe() {
                        trace.push((cqe.user_data, cqe.res));
                    }
                }
                assert_eq!(sys.sys_close(pid, fd), 0);
            };

            let c0 = cycles(&m);
            let mut cold = Vec::new();
            run_pass("/pass0", &mut cold);
            let c1 = cycles(&m);
            let hits_before = sys.scratch.stats().hits;
            let mut warm = Vec::new();
            run_pass("/pass1", &mut warm);
            let c2 = cycles(&m);

            prop_assert_eq!(&cold, &warm, "recycled scratch changed CQE results");
            prop_assert_eq!(c1 - c0, c2 - c1, "recycled scratch changed cycle charges");
            // The warm pass must actually recycle: pass one returned every
            // checkout to the pool, so any nonzero transfer hits it.
            if ops.iter().any(|&(_, len, _)| len > 0) {
                let hits_after = sys.scratch.stats().hits;
                prop_assert!(hits_after > hits_before, "warm pass never hit the pool");
            }
            prop_assert_eq!(sys.scratch.outstanding(), 0, "a scratch buffer leaked");
        }
    }
}
