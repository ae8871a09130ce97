//! The [`Machine`]: clock + memory + segments + processes + the
//! user↔kernel boundary.
//!
//! The boundary methods are the heart of the reproduction. Every classic
//! system call pays [`Machine::enter_kernel`] / [`Machine::exit_kernel`]
//! once, and every buffer argument pays [`Machine::copy_from_user`] /
//! [`Machine::copy_to_user`]. Consolidated syscalls (§2.2) win by making
//! one crossing do the work of many; Cosy compounds (§2.3) win by making
//! one crossing execute an entire marked code region and by letting
//! operations share kernel-resident buffers instead of copying.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::clock::Clock;
use crate::cost::CostModel;
use crate::error::{SimError, SimResult};
use crate::irq::IrqController;
use crate::mem::{AsId, MemSys, PteFlags, PAGE_SIZE};
use crate::proc::{Boundary, Pid, ProcState, Process, SchedStats, SmpScheduler};
use crate::seg::SegmentTable;
use crate::stats::Stats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Distinguishes machines so the per-thread boundary cache cannot hand
/// pid 0 of one machine the boundary of pid 0 on another.
static NEXT_MACHINE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The (machine, pid) → boundary handle this thread last crossed with.
    /// Syscall streams repeat the same pid, so the process-table lock is
    /// paid once per thread migration instead of twice per syscall.
    static LAST_BOUNDARY: RefCell<Option<(u64, u32, Arc<Boundary>)>> = const { RefCell::new(None) };

    /// The simulated CPU this thread is currently bound to (see
    /// [`Machine::bind_cpu`]). Defaults to CPU 0, which keeps every
    /// pre-SMP single-threaded workload byte-identical.
    static THREAD_CPU: Cell<usize> = const { Cell::new(0) };
}

/// The simulated CPU index the calling thread is bound to (0 when never
/// bound). Sharded structures (pool magazines, per-CPU event rings,
/// accept queues) index themselves with this.
#[inline]
pub fn thread_cpu() -> usize {
    THREAD_CPU.with(|c| c.get())
}

/// Construction parameters for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub cost: CostModel,
    /// Physical memory size in 4 KiB frames. The default models the paper's
    /// 884 MB testbed (≈226k frames).
    pub phys_frames: usize,
    /// Number of simulated CPUs: one run queue each; a thread runs on one
    /// through [`Machine::bind_cpu`].
    pub cpus: usize,
    /// Seed for the work-stealing scheduler's victim-choice stream.
    pub sched_seed: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cost: CostModel::default(),
            phys_frames: 884 * 1024 * 1024 / PAGE_SIZE,
            cpus: 8,
            sched_seed: 0x5EED_C0DE,
        }
    }
}

impl MachineConfig {
    /// A small machine for unit tests: free costs, few frames.
    pub fn small_free() -> Self {
        MachineConfig {
            cost: CostModel::free(),
            phys_frames: 4096,
            ..MachineConfig::default()
        }
    }
}

/// RAII binding of the calling thread to one simulated CPU: restores the
/// previous binding on drop. While bound, spawns enqueue on the CPU's run
/// queue and sharded structures use the CPU's shard. Not `Send`: the
/// binding belongs to the thread that made it.
#[must_use = "the thread is bound only while the guard lives"]
pub struct CpuBinding {
    prev: usize,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CpuBinding {
    fn drop(&mut self) {
        THREAD_CPU.with(|c| c.set(self.prev));
    }
}

/// Proof that a process is executing in kernel mode. Returned by
/// [`Machine::enter_kernel`] and consumed by [`Machine::exit_kernel`], so a
/// crossing cannot be half-performed.
#[derive(Debug)]
#[must_use = "a kernel entry must be paired with exit_kernel"]
pub struct KernelToken {
    pub pid: Pid,
    /// System-clock reading at kernel entry; the watchdog measures from here.
    pub entry_sys: u64,
}

/// The simulated machine.
pub struct Machine {
    pub cost: CostModel,
    pub clock: Arc<Clock>,
    pub stats: Arc<Stats>,
    pub mem: MemSys,
    pub segs: SegmentTable,
    /// The interrupt controller; handlers run in interrupt context where
    /// only lock-free structures may be touched (§3.3's constraint).
    pub irq: IrqController,
    /// The fault-injection plane shared by every instrumented layer.
    /// Disarmed by default; the fault sweep arms it per episode.
    pub faults: Arc<kfault::FaultPlane>,
    kernel_asid: AsId,
    /// This machine's key in the per-thread boundary cache.
    id: u64,
    procs: RwLock<Vec<Option<Process>>>,
    sched: Mutex<SmpScheduler>,
    cpus: usize,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Self {
        let clock = Arc::new(Clock::new());
        let stats = Arc::new(Stats::default());
        let faults = Arc::new(kfault::FaultPlane::new());
        let mem = MemSys::new(
            config.phys_frames,
            config.cost.clone(),
            clock.clone(),
            stats.clone(),
            faults.clone(),
        );
        let kernel_asid = mem.create_space();
        Machine {
            cost: config.cost,
            clock,
            stats,
            mem,
            segs: SegmentTable::new(),
            irq: IrqController::new(),
            faults,
            kernel_asid,
            id: NEXT_MACHINE_ID.fetch_add(1, Relaxed),
            procs: RwLock::new(Vec::new()),
            sched: Mutex::new(SmpScheduler::new(config.cpus, config.sched_seed)),
            cpus: config.cpus,
        }
    }

    /// The kernel's own address space (vmalloc area, Kefence targets).
    pub fn kernel_asid(&self) -> AsId {
        self.kernel_asid
    }

    // ---- simulated CPUs ---------------------------------------------------

    /// Number of simulated CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus
    }

    /// The simulated CPU the calling thread is bound to, clamped to this
    /// machine's CPU count (a thread bound to CPU 5 of an 8-CPU machine
    /// that then touches a 2-CPU machine lands on its last CPU).
    pub fn current_cpu(&self) -> usize {
        thread_cpu().min(self.cpus - 1)
    }

    /// Bind the calling thread to simulated CPU `cpu` until the guard
    /// drops. While bound, spawns enqueue on this CPU's run queue and
    /// sharded structures use this CPU's shard; charges go to the machine
    /// clock exactly as when unbound. Bindings nest.
    pub fn bind_cpu(&self, cpu: usize) -> CpuBinding {
        assert!(cpu < self.cpus, "cpu {cpu} out of range");
        let prev = THREAD_CPU.with(|c| c.replace(cpu));
        CpuBinding { prev, _not_send: PhantomData }
    }

    // ---- processes --------------------------------------------------------

    /// Create a process with a fresh address space and enqueue it on the
    /// spawning thread's current CPU (CPU 0 for unbound threads, so
    /// single-CPU workloads behave exactly as before).
    pub fn spawn_process(&self) -> Pid {
        let asid = self.mem.create_space();
        let mut procs = self.procs.write();
        let pid = Pid(procs.len() as u32);
        procs.push(Some(Process::new(pid, asid)));
        drop(procs);
        self.sched.lock().enqueue_on(self.current_cpu(), pid);
        pid
    }

    /// Run `f` with a shared view of the process.
    pub fn with_proc<R>(&self, pid: Pid, f: impl FnOnce(&Process) -> R) -> SimResult<R> {
        let procs = self.procs.read();
        let p = procs
            .get(pid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(SimError::NoSuchProcess(pid.0))?;
        Ok(f(p))
    }

    /// Run `f` with a mutable view of the process.
    pub fn with_proc_mut<R>(&self, pid: Pid, f: impl FnOnce(&mut Process) -> R) -> SimResult<R> {
        let mut procs = self.procs.write();
        let p = procs
            .get_mut(pid.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(SimError::NoSuchProcess(pid.0))?;
        Ok(f(p))
    }

    /// Run `f` with the process's hot boundary state, using the per-thread
    /// cache to skip the process-table lock when the pid repeats (the shape
    /// of every syscall stream). Correctness does not depend on the cache:
    /// kill and the watchdog write through the same shared handle, so a
    /// cached boundary observes death immediately.
    fn with_boundary<R>(&self, pid: Pid, f: impl FnOnce(&Boundary) -> R) -> SimResult<R> {
        LAST_BOUNDARY.with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some((mid, cached_pid, b)) = slot.as_ref() {
                if *mid == self.id && *cached_pid == pid.0 {
                    return Ok(f(b));
                }
            }
            let b = self.with_proc(pid, |p| p.boundary.clone())?;
            let r = f(&b);
            *slot = Some((self.id, pid.0, b));
            Ok(r)
        })
    }

    /// The address space of `pid`.
    pub fn proc_asid(&self, pid: Pid) -> SimResult<AsId> {
        self.with_boundary(pid, |b| b.asid)
    }

    /// Set (or clear) the per-kernel-visit cycle budget — the Cosy watchdog.
    pub fn set_kernel_budget(&self, pid: Pid, budget: Option<u64>) -> SimResult<()> {
        self.with_proc_mut(pid, |p| p.kernel_budget = budget)
    }

    /// Terminate a process: mark dead, drop from the scheduler, release its
    /// address space.
    pub fn kill_process(&self, pid: Pid) -> SimResult<()> {
        let asid = self.with_proc_mut(pid, |p| {
            p.state = ProcState::Dead;
            p.boundary.dead.store(true, Relaxed);
            p.asid
        })?;
        self.sched.lock().remove(pid);
        self.mem.destroy_space(asid)?;
        Ok(())
    }

    // ---- scheduler --------------------------------------------------------

    /// Invoke the scheduler on the calling thread's current CPU: rotate to
    /// the next runnable process, charging a context switch when the
    /// running process changes.
    pub fn schedule(&self) -> Option<Pid> {
        self.schedule_on(self.current_cpu())
    }

    /// Invoke the scheduler on a specific CPU. An empty run queue steals
    /// half of a random victim's queue first (seeded, deterministic).
    pub fn schedule_on(&self, cpu: usize) -> Option<Pid> {
        let mut sched = self.sched.lock();
        let before = sched.stats().switches;
        let next = sched.pick_next_on(cpu, &self.faults);
        if sched.stats().switches > before {
            self.clock.charge_sys(self.cost.context_switch);
            self.stats.context_switches.fetch_add(1, Relaxed);
        }
        next
    }

    /// Scheduler counter snapshot.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.lock().stats()
    }

    /// A preemption point (§2.3): charges tick bookkeeping and enforces the
    /// kernel-time watchdog. Call this from long-running kernel work; a
    /// `WatchdogKilled` error means the process has been terminated and the
    /// caller must unwind.
    pub fn preempt_tick(&self, pid: Pid) -> SimResult<()> {
        self.clock.charge_sys(self.cost.preempt_tick);
        self.stats.preempt_ticks.fetch_add(1, Relaxed);
        let verdict = self.with_proc(pid, |p| {
            if !p.in_kernel() {
                return None;
            }
            let used = self.clock.sys_cycles().saturating_sub(p.kernel_entry_sys());
            // Injected kill: the watchdog fires regardless of budget (a
            // fatal fault — the process is dead, exactly as on a genuine
            // budget overrun).
            if self.faults.should_fail(kfault::sites::KSIM_PREEMPT_TICK) {
                return Some((used, 0));
            }
            let budget = p.kernel_budget?;
            (used > budget).then_some((used, budget))
        })?;
        if let Some((used, budget)) = verdict {
            self.with_proc_mut(pid, |p| {
                p.killed_by_watchdog = true;
                p.state = ProcState::Dead;
                p.boundary.dead.store(true, Relaxed);
            })?;
            self.sched.lock().remove(pid);
            return Err(SimError::WatchdogKilled { pid: pid.0, used, budget });
        }
        Ok(())
    }

    // ---- user/kernel boundary --------------------------------------------

    /// Trap into the kernel: charges entry + dispatch and starts the
    /// watchdog window. The boundary is crossed per simulated syscall, so
    /// it runs entirely on the cached lock-free [`Boundary`] handle — no
    /// process-table lock on the repeat-pid fast path.
    pub fn enter_kernel(&self, pid: Pid) -> SimResult<KernelToken> {
        let entry_sys = self.with_boundary(pid, |b| {
            if b.dead.load(Relaxed) {
                return Err(SimError::NoSuchProcess(pid.0));
            }
            // Load-then-store (not a swap): a pid is driven by one thread
            // at a time, so the nesting check needs no atomicity — only
            // visibility, which the per-pid cache handoff provides.
            if b.in_kernel.load(Relaxed) {
                return Err(SimError::BoundaryMisuse("nested enter_kernel"));
            }
            b.in_kernel.store(true, Relaxed);
            // A rejected entry charges nothing, exactly as before.
            self.clock.charge_sys(self.cost.kernel_entry + self.cost.syscall_dispatch);
            let entry_sys = self.clock.sys_cycles();
            b.kernel_entry_sys.store(entry_sys, Relaxed);
            Ok(entry_sys)
        })??;
        self.stats.crossings.fetch_add(1, Relaxed);
        Ok(KernelToken { pid, entry_sys })
    }

    /// Return to user mode, consuming the entry token.
    pub fn exit_kernel(&self, token: KernelToken) {
        self.clock.charge_sys(self.cost.kernel_exit);
        // The process may have been killed by the watchdog while inside;
        // the flag is cleared regardless, exactly as before.
        let _ = self.with_boundary(token.pid, |b| b.in_kernel.store(false, Relaxed));
    }

    /// Copy `len` bytes from user space into a kernel buffer, charging the
    /// per-byte copy cost.
    pub fn copy_from_user(&self, pid: Pid, uaddr: u64, len: usize) -> SimResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.copy_from_user_into(pid, uaddr, &mut buf)?;
        Ok(buf)
    }

    /// [`Self::copy_from_user`] into a caller-provided buffer (typically a
    /// pooled scratch buffer), avoiding the per-call allocation.
    pub fn copy_from_user_into(&self, pid: Pid, uaddr: u64, buf: &mut [u8]) -> SimResult<()> {
        let asid = self.proc_asid(pid)?;
        self.mem.read_virt(asid, uaddr, buf)?;
        self.clock.charge_sys(self.cost.copy_cost(buf.len()));
        self.stats.bytes_copied_in.fetch_add(buf.len() as u64, Relaxed);
        Ok(())
    }

    /// Copy a kernel buffer out to user space, charging the copy cost.
    pub fn copy_to_user(&self, pid: Pid, uaddr: u64, data: &[u8]) -> SimResult<()> {
        let asid = self.proc_asid(pid)?;
        self.mem.write_virt(asid, uaddr, data)?;
        self.clock.charge_sys(self.cost.copy_cost(data.len()));
        self.stats.bytes_copied_out.fetch_add(data.len() as u64, Relaxed);
        Ok(())
    }

    /// Map `len` bytes (page-rounded) of anonymous user memory at `uaddr`.
    /// Test/workload setup helper (an `mmap` stand-in).
    pub fn map_user(&self, pid: Pid, uaddr: u64, len: usize) -> SimResult<()> {
        let asid = self.proc_asid(pid)?;
        let first = uaddr & !(PAGE_SIZE as u64 - 1);
        let last = uaddr + len.max(1) as u64 - 1;
        let mut va = first;
        while va <= last {
            if self.mem.with_space(asid, |s| s.lookup(va >> 12).is_none())? {
                self.mem.map_anon(asid, va, PteFlags::rw())?;
            }
            va += PAGE_SIZE as u64;
        }
        Ok(())
    }

    /// Deliver an interrupt, charging its overhead to system time.
    pub fn raise_irq(&self, irq: u32) -> SimResult<usize> {
        self.irq.raise(irq, |c| self.clock.charge_sys(c))
    }

    /// Convenience: charge user-mode computation cycles.
    #[inline]
    pub fn charge_user(&self, cycles: u64) {
        self.clock.charge_user(cycles);
    }

    /// Convenience: charge kernel-mode computation cycles.
    #[inline]
    pub fn charge_sys(&self, cycles: u64) {
        self.clock.charge_sys(cycles);
    }

    /// Convenience: charge blocking-I/O wait cycles.
    #[inline]
    pub fn charge_io(&self, cycles: u64) {
        self.clock.charge_io(cycles);
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("elapsed_cycles", &self.clock.elapsed_cycles())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_roundtrip_charges_crossing_costs() {
        let m = Machine::new(MachineConfig::default());
        let pid = m.spawn_process();
        let before = m.clock.sys_cycles();
        let tok = m.enter_kernel(pid).unwrap();
        m.exit_kernel(tok);
        let spent = m.clock.sys_cycles() - before;
        assert_eq!(spent, m.cost.crossing_cost());
        assert_eq!(m.stats.crossings.load(Relaxed), 1);
    }

    #[test]
    fn nested_enter_kernel_is_rejected() {
        let m = Machine::new(MachineConfig::small_free());
        let pid = m.spawn_process();
        let tok = m.enter_kernel(pid).unwrap();
        assert!(matches!(m.enter_kernel(pid), Err(SimError::BoundaryMisuse(_))));
        m.exit_kernel(tok);
        // After exit, entry is allowed again.
        let tok = m.enter_kernel(pid).unwrap();
        m.exit_kernel(tok);
    }

    #[test]
    fn copies_move_data_and_charge_per_byte() {
        let m = Machine::new(MachineConfig::default());
        let pid = m.spawn_process();
        m.map_user(pid, 0x1000, 8192).unwrap();
        let data: Vec<u8> = (0..6000u32).map(|i| (i % 256) as u8).collect();
        m.mem
            .write_virt(m.proc_asid(pid).unwrap(), 0x1000, &data)
            .unwrap();

        let before = m.clock.sys_cycles();
        let got = m.copy_from_user(pid, 0x1000, data.len()).unwrap();
        assert_eq!(got, data);
        let spent = m.clock.sys_cycles() - before;
        assert!(spent >= m.cost.copy_cost(data.len()));
        assert_eq!(m.stats.bytes_copied_in.load(Relaxed), data.len() as u64);

        m.copy_to_user(pid, 0x1000, &[1, 2, 3]).unwrap();
        assert_eq!(m.stats.bytes_copied_out.load(Relaxed), 3);
    }

    #[test]
    fn copy_from_unmapped_user_memory_faults() {
        let m = Machine::new(MachineConfig::small_free());
        let pid = m.spawn_process();
        assert!(m.copy_from_user(pid, 0xdead_0000, 16).is_err());
    }

    #[test]
    fn watchdog_kills_overrunning_kernel_work() {
        let m = Machine::new(MachineConfig::default());
        let pid = m.spawn_process();
        m.set_kernel_budget(pid, Some(10_000)).unwrap();
        let tok = m.enter_kernel(pid).unwrap();
        // Simulate a runaway loop in the kernel: burn cycles, tick, repeat.
        let mut killed = false;
        for _ in 0..100 {
            m.charge_sys(1_000);
            match m.preempt_tick(pid) {
                Ok(()) => continue,
                Err(SimError::WatchdogKilled { pid: p, used, budget }) => {
                    assert_eq!(p, pid.0);
                    assert!(used > budget);
                    killed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(killed, "watchdog never fired");
        m.exit_kernel(tok);
        assert!(m.with_proc(pid, |p| p.killed_by_watchdog).unwrap());
        // Dead processes cannot re-enter the kernel.
        assert!(m.enter_kernel(pid).is_err());
    }

    #[test]
    fn processes_without_budget_are_never_killed() {
        let m = Machine::new(MachineConfig::default());
        let pid = m.spawn_process();
        let tok = m.enter_kernel(pid).unwrap();
        for _ in 0..50 {
            m.charge_sys(100_000);
            m.preempt_tick(pid).unwrap();
        }
        m.exit_kernel(tok);
    }

    #[test]
    fn schedule_charges_context_switches() {
        let m = Machine::new(MachineConfig::default());
        let a = m.spawn_process();
        let b = m.spawn_process();
        assert_eq!(m.schedule(), Some(a));
        let sys0 = m.clock.sys_cycles();
        assert_eq!(m.schedule(), Some(b));
        assert!(m.clock.sys_cycles() - sys0 >= m.cost.context_switch);
        assert!(m.stats.context_switches.load(Relaxed) >= 1);
    }

    #[test]
    fn bound_charges_land_on_the_machine_clock() {
        let m = Machine::new(MachineConfig::small_free());
        {
            let _b = m.bind_cpu(3);
            m.charge_sys(100);
            m.charge_user(10);
        }
        m.charge_sys(50);
        assert_eq!(m.clock.sys_cycles(), 150, "the machine clock is the one total");
        assert_eq!(m.clock.user_cycles(), 10);
    }

    #[test]
    fn spawn_lands_on_the_bound_cpu_and_idle_cpus_steal() {
        let m = Machine::new(MachineConfig::small_free());
        let a = {
            let _b = m.bind_cpu(1);
            m.spawn_process()
        };
        let b = {
            let _b = m.bind_cpu(1);
            m.spawn_process()
        };
        assert_eq!(m.schedule_on(1), Some(a), "cpu1 runs its own queue first");
        // cpu1 still queues b; an idle CPU steals it rather than sitting idle.
        assert_eq!(m.schedule_on(5), Some(b));
        assert_eq!(m.sched_stats().steals, 1);
    }

    #[test]
    fn kill_process_releases_address_space() {
        let m = Machine::new(MachineConfig::small_free());
        let pid = m.spawn_process();
        m.map_user(pid, 0x4000, PAGE_SIZE).unwrap();
        assert_eq!(m.mem.phys.allocated(), 1);
        m.kill_process(pid).unwrap();
        assert_eq!(m.mem.phys.allocated(), 0);
    }

    #[test]
    fn map_user_is_idempotent_per_page() {
        let m = Machine::new(MachineConfig::small_free());
        let pid = m.spawn_process();
        m.map_user(pid, 0x1000, 100).unwrap();
        m.map_user(pid, 0x1000, 100).unwrap();
        assert_eq!(m.mem.phys.allocated(), 1, "remap must not leak frames");
    }
}
