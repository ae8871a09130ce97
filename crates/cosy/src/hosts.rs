//! Syscall hosts: how `sys_*` intrinsics in KC programs reach the kernel.
//!
//! * [`UserHost`] — the baseline: each intrinsic becomes a full system call
//!   with a boundary crossing and user↔kernel copies. This is how the
//!   unmodified application of E3/E4 runs.
//! * [`KernelHost`] — the Cosy path: the function is already executing in
//!   the kernel, so intrinsics dispatch directly to the in-kernel `k_*`
//!   entry points. *"The system call invocation by the Cosy kernel module
//!   is the same as a normal process and hence all the necessary checks are
//!   performed"* — minus the crossing and the copies.

use std::sync::Arc;

use kclang::{InterpError, MemCtx, SyscallHost};
use ksim::Pid;
use ksyscall::op::OFF_CURSOR;
use ksyscall::{KOp, Moved, OpError, OpenFlags, PathRef, PathText, SyscallLayer, Transport};

/// Cost of an in-kernel syscall dispatch (table lookup + checks, no trap).
const KERNEL_DISPATCH_CYCLES: u64 = 120;

/// The `sys_*` intrinsics a KC program may call, as ops. A path argument
/// is a C string in program memory; `path` says how the host passes it on.
fn intrinsic<'p>(
    name: &str,
    a: &[i64],
    path: impl FnOnce(u64) -> Result<PathRef<'p>, InterpError>,
) -> Result<KOp<'p>, InterpError> {
    let (fd, buf, len) = (|| a[0] as i32, || a[1] as u64, || a[2].max(0) as usize);
    Ok(match name {
        "sys_getpid" => KOp::Getpid,
        "sys_open" => KOp::Open { path: path(a[0] as u64)?, flags: OpenFlags(a[1] as u32) },
        "sys_close" => KOp::Close { fd: fd() },
        "sys_read" => KOp::Read { fd: fd(), buf: buf(), len: len(), off: OFF_CURSOR },
        "sys_write" => KOp::Write { fd: fd(), buf: buf(), len: len(), off: OFF_CURSOR },
        "sys_lseek" => KOp::Lseek { fd: fd(), off: a[1], whence: a[2] as i32 },
        "sys_stat" => KOp::Stat { path: path(a[0] as u64)?, buf: buf() },
        "sys_fstat" => KOp::Fstat { fd: fd(), buf: buf() },
        "sys_mkdir" => KOp::Mkdir { path: path(a[0] as u64)? },
        "sys_unlink" => KOp::Unlink { path: path(a[0] as u64)? },
        other => return Err(InterpError::BadCall(format!("unknown intrinsic {other}"))),
    })
}

/// Baseline host: every intrinsic is a real system call. The program's
/// buffers live in its (user) address space, so buffer addresses pass
/// straight through and the syscall layer performs the user copies; a
/// path is read out of program memory first and passed as the call's
/// argument.
pub struct UserHost {
    pub sys: Arc<SyscallLayer>,
    pub pid: Pid,
}

impl SyscallHost for UserHost {
    fn host_call(
        &self,
        name: &str,
        args: &[i64],
        mem: &MemCtx<'_>,
    ) -> Result<i64, InterpError> {
        let mut text = String::new();
        let op = intrinsic(name, args, |addr| {
            text = mem.read_cstr(addr)?;
            Ok(PathRef::Host(&text))
        })?;
        Ok(self.sys.syscall(self.pid, op))
    }
}

/// Cosy host: intrinsics dispatch in-kernel, no crossings, data moves
/// through the (already kernel-visible) program memory via `MemCtx` —
/// which also enforces the isolation segment.
pub struct KernelHost {
    pub sys: Arc<SyscallLayer>,
    pub pid: Pid,
}

impl SyscallHost for KernelHost {
    fn host_call(
        &self,
        name: &str,
        args: &[i64],
        mem: &MemCtx<'_>,
    ) -> Result<i64, InterpError> {
        let m = self.sys.machine();
        m.charge_sys(KERNEL_DISPATCH_CYCLES);
        m.stats.syscalls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let op = intrinsic(name, args, |addr| Ok(PathRef::At { addr, len: 0 }))?;
        match self.sys.dispatch(self.pid, op, &mut ProgMem(mem)) {
            Ok(v) => Ok(v),
            Err(OpError::Fault(e)) => Err(e),
            Err(e) => Ok(e.errno()),
        }
    }
}

/// KC program memory as a dispatch transport: reads and writes go through
/// the segment-checked `MemCtx`, so a bad address is the program's fault,
/// not an errno.
struct ProgMem<'m>(&'m MemCtx<'m>);

impl Transport for ProgMem<'_> {
    type Fault = InterpError;

    fn get(&mut self, _: &SyscallLayer, _: Pid, addr: u64, out: &mut [u8]) -> Moved<InterpError> {
        self.0.read(addr, out).map_err(OpError::Fault)
    }

    fn put(&mut self, _: &SyscallLayer, _: Pid, addr: u64, data: &[u8]) -> Moved<InterpError> {
        self.0.write(addr, data).map_err(OpError::Fault)
    }

    fn path<'s>(
        &mut self,
        _: &'s SyscallLayer,
        _: Pid,
        addr: u64,
        _: usize,
    ) -> Result<PathText<'s>, OpError<InterpError>> {
        self.0.read_cstr(addr).map(PathText::Owned).map_err(OpError::Fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::setup;
    use kclang::{compile, parse_program, typecheck, ExecConfig, Vm};
    use ksim::{Machine, PteFlags, PAGE_SIZE};

    const PROG: &str = r#"
        int work() {
            char buf[256];
            int fd = sys_open("/data", 66);
            sys_write(fd, "abcdefgh", 8);
            sys_lseek(fd, 0, 0);
            int n = sys_read(fd, buf, 256);
            sys_close(fd);
            return n;
        }
    "#;

    fn run_with_host(
        m: &Machine,
        sys: &Arc<SyscallLayer>,
        pid: Pid,
        user_mode: bool,
    ) -> (i64, u64) {
        let prog = parse_program(PROG).unwrap();
        let info = typecheck(&prog).unwrap();
        let module = compile(&prog, &info).unwrap();
        // Arena in the process's own address space for the user host; in
        // kernel space for the kernel host.
        let asid = if user_mode { m.proc_asid(pid).unwrap() } else { m.kernel_asid() };
        let arena = 0x5000_0000u64;
        for i in 0..16 {
            m.mem
                .map_anon(asid, arena + (i * PAGE_SIZE) as u64, PteFlags::rw())
                .unwrap();
        }
        let mut cfg = ExecConfig::flat(asid);
        cfg.charge_sys = !user_mode;
        let mut vm = Vm::new(m, &module, cfg, arena, 16 * PAGE_SIZE).unwrap();
        let user_host;
        let kern_host;
        if user_mode {
            user_host = UserHost { sys: sys.clone(), pid };
            vm.set_host(&user_host);
        } else {
            kern_host = KernelHost { sys: sys.clone(), pid };
            vm.set_host(&kern_host);
        }
        let before = m.stats.crossings.load(std::sync::atomic::Ordering::Relaxed);
        let out = vm.run("work", &[]).unwrap();
        let after = m.stats.crossings.load(std::sync::atomic::Ordering::Relaxed);
        (out.ret, after - before)
    }

    #[test]
    fn user_host_pays_one_crossing_per_syscall() {
        let (m, sys, _, pid) = setup();
        let (ret, crossings) = run_with_host(&m, &sys, pid, true);
        assert_eq!(ret, 8, "read back the 8 bytes written");
        assert_eq!(crossings, 5, "open, write, lseek, read, close");
    }

    #[test]
    fn kernel_host_pays_no_crossings() {
        let (m, sys, _, pid) = setup();
        let (ret, crossings) = run_with_host(&m, &sys, pid, false);
        assert_eq!(ret, 8);
        assert_eq!(crossings, 0, "in-kernel dispatch never crosses");
    }

    #[test]
    fn both_hosts_produce_identical_file_state() {
        let (m, sys, _, pid) = setup();
        run_with_host(&m, &sys, pid, true);
        let st_user = sys.k_stat("/data").unwrap();
        sys.k_unlink("/data").unwrap();
        run_with_host(&m, &sys, pid, false);
        let st_kern = sys.k_stat("/data").unwrap();
        assert_eq!(st_user.size, st_kern.size);
    }
}
