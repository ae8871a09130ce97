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
use ksyscall::{
    ArgSource, KOp, Moved, OpError, OpKind, PathRef, PathText, SyscallLayer, Transport,
};

/// Cost of an in-kernel syscall dispatch (table lookup + checks, no trap).
const KERNEL_DISPATCH_CYCLES: u64 = 120;

/// One KC intrinsic call: its arguments and the program memory they
/// address. As an argument source, a path argument is a C string in
/// program memory: with `text`, it is read into it and passed on as a host
/// string (the user host's call argument); without, it stays at its
/// program address. As a dispatch transport (the kernel host's), reads and
/// writes go through the segment-checked `MemCtx`, so a bad address is the
/// program's fault, not an errno.
struct ProgCall<'a> {
    args: &'a [i64],
    mem: &'a MemCtx<'a>,
    text: Option<&'a mut String>,
}

impl<'a> ProgCall<'a> {
    /// The `sys_*` intrinsic `name` called with these arguments, as an op.
    fn op(&mut self, name: &str) -> Result<KOp<'a>, InterpError> {
        let unknown = || InterpError::BadCall(format!("unknown intrinsic {name}"));
        let kind = OpKind::from_intrinsic(name).ok_or_else(unknown)?;
        kind.decode(self)?.ok_or_else(unknown)
    }
}

impl<'a> ArgSource<'a> for ProgCall<'a> {
    type Error = InterpError;

    fn scalar(&mut self, i: usize) -> Result<i64, InterpError> {
        self.args.get(i).copied().ok_or_else(|| InterpError::BadCall("missing argument".into()))
    }

    fn path(&mut self, i: usize) -> Result<PathRef<'a>, InterpError> {
        let addr = self.scalar(i)? as u64;
        Ok(match self.text.take() {
            Some(text) => {
                *text = self.mem.read_cstr(addr)?;
                PathRef::Host(text)
            }
            None => PathRef::At { addr, len: 0 },
        })
    }
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
        let op = ProgCall { args, mem, text: Some(&mut text) }.op(name)?;
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
        let mut call = ProgCall { args, mem, text: None };
        let op = call.op(name)?;
        match self.sys.dispatch(self.pid, op, &mut call) {
            Ok(v) => Ok(v),
            Err(OpError::Fault(e)) => Err(e),
            Err(e) => Ok(e.errno()),
        }
    }
}

impl Transport for ProgCall<'_> {
    type Fault = InterpError;

    fn get(&mut self, _: &SyscallLayer, _: Pid, addr: u64, out: &mut [u8]) -> Moved<InterpError> {
        self.mem.read(addr, out).map_err(OpError::Fault)
    }

    fn put(&mut self, _: &SyscallLayer, _: Pid, addr: u64, data: &[u8]) -> Moved<InterpError> {
        self.mem.write(addr, data).map_err(OpError::Fault)
    }

    fn path<'s>(
        &mut self,
        _: &'s SyscallLayer,
        _: Pid,
        addr: u64,
        _: usize,
    ) -> Result<PathText<'s>, OpError<InterpError>> {
        self.mem.read_cstr(addr).map(PathText::Owned).map_err(OpError::Fault)
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

    /// kclang's `builtin_sig` agrees with the op table: of the ops with
    /// an intrinsic name, exactly these ten typecheck as KC calls, each at
    /// its table arity and not at one more.
    #[test]
    fn kc_builtins_agree_with_the_op_table() {
        let typechecks = |name: &str, argc: usize| {
            let src = format!("int f() {{ return {name}({}); }}", vec!["0"; argc].join(", "));
            typecheck(&parse_program(&src).unwrap()).is_ok()
        };
        let mut accepted = Vec::new();
        for kind in OpKind::ALL {
            let (Some(name), arity) = (kind.intrinsic(), kind.arity()) else { continue };
            assert!(!typechecks(name, arity + 1), "{name} with {} args", arity + 1);
            if typechecks(name, arity) {
                accepted.push(name);
            }
        }
        accepted.sort_unstable();
        #[rustfmt::skip]
        assert_eq!(accepted, [
            "sys_close", "sys_fstat", "sys_getpid", "sys_lseek", "sys_mkdir", "sys_open",
            "sys_read", "sys_stat", "sys_unlink", "sys_write",
        ]);
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
