//! Processes, the preemptive scheduler, and watchdog bookkeeping.
//!
//! Cosy's first safety feature (§2.3) is "a preemptive kernel to avoid
//! infinite loops": every time a process running a compound is scheduled,
//! the kernel checks how long it has been executing in kernel mode and
//! terminates it if it exceeded the allowed budget. [`Process`] carries that
//! budget, and the [`SmpScheduler`] provides the preemption points at which
//! it is enforced (see [`crate::Machine::preempt_tick`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::mem::AsId;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable or running.
    Ready,
    /// Blocked on simulated I/O.
    Blocked,
    /// Terminated (exited or killed by the watchdog).
    Dead,
}

/// The slice of process state the syscall hot path touches on *every*
/// crossing: liveness, the in-kernel flag, the watchdog's entry stamp, and
/// the address space for user copies. It lives behind an `Arc` inside
/// [`Process`] so the boundary can run on cached handles without taking the
/// process-table lock per syscall; slow-path transitions (kill, watchdog)
/// write through the same handle, so cached copies can never go stale.
#[derive(Debug)]
pub struct Boundary {
    /// The user address space — immutable for the process's lifetime.
    pub asid: AsId,
    /// Mirrors `Process::state == Dead`; set once, never cleared.
    pub(crate) dead: AtomicBool,
    pub(crate) in_kernel: AtomicBool,
    /// System-clock reading captured when this process entered the kernel.
    pub(crate) kernel_entry_sys: AtomicU64,
}

impl Boundary {
    fn new(asid: AsId) -> Self {
        Boundary {
            asid,
            dead: AtomicBool::new(false),
            in_kernel: AtomicBool::new(false),
            kernel_entry_sys: AtomicU64::new(0),
        }
    }
}

/// One simulated process.
#[derive(Debug, Clone)]
pub struct Process {
    pub pid: Pid,
    /// The user address space this process executes in.
    pub asid: AsId,
    pub state: ProcState,
    /// Maximum kernel cycles allowed per kernel visit (`None` = unlimited).
    /// This is the Cosy watchdog budget.
    pub kernel_budget: Option<u64>,
    /// Set when the watchdog kills the process.
    pub killed_by_watchdog: bool,
    /// Hot crossing state, shared with the lock-free boundary path.
    pub boundary: Arc<Boundary>,
}

impl Process {
    pub fn new(pid: Pid, asid: AsId) -> Self {
        Process {
            pid,
            asid,
            state: ProcState::Ready,
            kernel_budget: None,
            killed_by_watchdog: false,
            boundary: Arc::new(Boundary::new(asid)),
        }
    }

    /// Whether the process is currently executing in kernel mode.
    pub fn in_kernel(&self) -> bool {
        self.boundary.in_kernel.load(Relaxed)
    }

    /// System-clock reading captured at the last kernel entry.
    pub fn kernel_entry_sys(&self) -> u64 {
        self.boundary.kernel_entry_sys.load(Relaxed)
    }
}

crate::counters! {
    /// Scheduler counters, bumped under the scheduler lock.
    pub struct SchedStats {
        /// Context switches across all CPUs.
        switches,
        /// Successful steal operations (each moves half a victim queue).
        steals,
        /// Steal attempts aborted by the `sched.steal_fail` fault site.
        steal_fails,
        /// Tasks force-migrated by the `sched.migrate` fault site.
        migrations,
    }
}

/// Per-CPU run queues with seeded work stealing.
///
/// Each simulated CPU owns a round-robin queue; one CPU is a plain
/// round-robin preemptive scheduler. Context-switch cycle charging is done
/// by the [`crate::Machine`], which owns the clock; the scheduler only
/// tracks ordering and counts. When a CPU's queue drains, it steals the
/// colder half of a random victim's queue (from the back — the front is
/// the victim's next pick). The victim choice comes from a splitmix64
/// stream seeded at construction, so a sequentially driven schedule is a
/// pure function of the seed — the property A8's run-twice trace gate
/// relies on.
///
/// Two fault sites hook the stealing policy: `sched.steal_fail` aborts a
/// steal attempt after the victim is chosen, and `sched.migrate` forcibly
/// moves the local head task to a random other CPU before a pick — both
/// consulted through the machine's [`kfault::FaultPlane`], so seeded chaos
/// schedules replay exactly.
#[derive(Debug)]
pub struct SmpScheduler {
    queues: Vec<VecDeque<Pid>>,
    current: Vec<Option<Pid>>,
    stats: SchedStats,
    rng: u64,
}

impl SmpScheduler {
    pub fn new(cpus: usize, seed: u64) -> Self {
        assert!(cpus >= 1, "a machine has at least one CPU");
        SmpScheduler {
            queues: (0..cpus).map(|_| VecDeque::new()).collect(),
            current: vec![None; cpus],
            stats: SchedStats::default(),
            rng: seed,
        }
    }

    /// Add a process to the tail of `cpu`'s run queue.
    pub fn enqueue_on(&mut self, cpu: usize, pid: Pid) {
        debug_assert!(
            !self.queues.iter().any(|q| q.contains(&pid)),
            "pid {pid:?} enqueued twice"
        );
        self.queues[cpu].push_back(pid);
    }

    /// Remove a process from scheduling entirely (exit / watchdog kill).
    pub fn remove(&mut self, pid: Pid) {
        for q in &mut self.queues {
            q.retain(|&p| p != pid);
        }
        for cur in &mut self.current {
            if *cur == Some(pid) {
                *cur = None;
            }
        }
    }

    /// The process currently running on `cpu`, if any.
    pub fn current_on(&self, cpu: usize) -> Option<Pid> {
        self.current[cpu]
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Runnable processes across all CPUs (including running ones).
    pub fn runnable(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>()
            + self.current.iter().filter(|c| c.is_some()).count()
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Steal the colder half of a random non-empty victim queue into
    /// `cpu`'s queue. One rng draw per attempt (victim choice), then one
    /// `sched.steal_fail` consult — so the schedule stays a pure function
    /// of the seed and the armed fault policy.
    fn try_steal(&mut self, cpu: usize, faults: &kfault::FaultPlane) {
        let candidates: Vec<usize> = (0..self.queues.len())
            .filter(|&i| i != cpu && !self.queues[i].is_empty())
            .collect();
        if candidates.is_empty() {
            return;
        }
        let victim = candidates[(self.next_rand() as usize) % candidates.len()];
        if faults.should_fail(kfault::sites::SCHED_STEAL_FAIL) {
            self.stats.steal_fails += 1;
            return;
        }
        let take = self.queues[victim].len().div_ceil(2);
        for _ in 0..take {
            if let Some(p) = self.queues[victim].pop_back() {
                self.queues[cpu].push_back(p);
            }
        }
        self.stats.steals += 1;
    }

    /// Pick the next process to run on `cpu`, rotating its current one to
    /// the back and stealing when the local queue drains. Returns `None`
    /// when there is nothing to run. A switch is counted only when the
    /// running process actually changes (re-picking the sole runnable
    /// process is free, as on a real kernel's fast path).
    pub fn pick_next_on(&mut self, cpu: usize, faults: &kfault::FaultPlane) -> Option<Pid> {
        let prev = self.current[cpu].take();
        if let Some(cur) = prev {
            self.queues[cpu].push_back(cur);
        }
        if !self.queues[cpu].is_empty() && faults.should_fail(kfault::sites::SCHED_MIGRATE) {
            if let Some(victim) = self.random_other(cpu) {
                if let Some(p) = self.queues[cpu].pop_front() {
                    self.queues[victim].push_back(p);
                    self.stats.migrations += 1;
                }
            }
        }
        if self.queues[cpu].is_empty() {
            self.try_steal(cpu, faults);
        }
        let next = self.queues[cpu].pop_front()?;
        if prev.is_some() && prev != Some(next) {
            self.stats.switches += 1;
        }
        self.current[cpu] = Some(next);
        Some(next)
    }

    /// A random CPU other than `cpu` (migration target); `None` on a
    /// single-CPU machine.
    fn random_other(&mut self, cpu: usize) -> Option<usize> {
        let n = self.queues.len();
        if n < 2 {
            return None;
        }
        let pick = (self.next_rand() as usize) % (n - 1);
        Some(if pick >= cpu { pick + 1 } else { pick })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One CPU, unarmed fault plane: the plain round-robin scheduler.
    fn one_cpu() -> (SmpScheduler, kfault::FaultPlane) {
        (SmpScheduler::new(1, 0), kfault::FaultPlane::new())
    }

    #[test]
    fn round_robin_rotates_fairly() {
        let (mut s, f) = one_cpu();
        let (a, b, c) = (Pid(1), Pid(2), Pid(3));
        s.enqueue_on(0, a);
        s.enqueue_on(0, b);
        s.enqueue_on(0, c);
        let order: Vec<Pid> = (0..6).map(|_| s.pick_next_on(0, &f).unwrap()).collect();
        assert_eq!(order, vec![a, b, c, a, b, c]);
        assert_eq!(s.runnable(), 3);
    }

    #[test]
    fn single_process_runs_without_counting_switches_forever() {
        let (mut s, f) = one_cpu();
        s.enqueue_on(0, Pid(7));
        let first = s.pick_next_on(0, &f).unwrap();
        assert_eq!(first, Pid(7));
        let before = s.stats().switches;
        for _ in 0..10 {
            assert_eq!(s.pick_next_on(0, &f), Some(Pid(7)));
        }
        // Re-picking the only process is not a context switch.
        assert_eq!(s.stats().switches, before);
    }

    #[test]
    fn remove_drops_from_queue_and_current() {
        let (mut s, f) = one_cpu();
        s.enqueue_on(0, Pid(1));
        s.enqueue_on(0, Pid(2));
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(1)));
        s.remove(Pid(1));
        assert_eq!(s.current_on(0), None);
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(2)));
        s.remove(Pid(2));
        assert_eq!(s.pick_next_on(0, &f), None);
        assert_eq!(s.runnable(), 0);
    }

    #[test]
    fn switches_counted_between_distinct_processes() {
        let (mut s, f) = one_cpu();
        s.enqueue_on(0, Pid(1));
        s.enqueue_on(0, Pid(2));
        s.pick_next_on(0, &f);
        s.pick_next_on(0, &f);
        s.pick_next_on(0, &f);
        assert!(s.stats().switches >= 2);
    }

    #[test]
    fn smp_local_round_robin_matches_single_queue_semantics() {
        let f = kfault::FaultPlane::new();
        let mut s = SmpScheduler::new(4, 42);
        s.enqueue_on(0, Pid(1));
        s.enqueue_on(0, Pid(2));
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(1)));
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(2)));
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(1)));
        assert_eq!(s.stats().switches, 2);
        // cpu0 runs Pid(1) with Pid(2) queued; an idle CPU steals the
        // queued (not the running) task.
        assert_eq!(s.pick_next_on(2, &f), Some(Pid(2)));
        assert_eq!(s.stats().steals, 1);
    }

    #[test]
    fn draining_cpu_steals_half_from_a_loaded_victim() {
        let f = kfault::FaultPlane::new();
        let mut s = SmpScheduler::new(2, 7);
        for i in 0..8 {
            s.enqueue_on(0, Pid(i));
        }
        let got = s.pick_next_on(1, &f);
        assert!(got.is_some(), "cpu1 stole work from cpu0");
        assert_eq!(s.stats().steals, 1);
        assert_eq!(s.runnable(), 8, "stealing moves tasks, never loses them");
    }

    #[test]
    fn seeded_stealing_replays_identically() {
        let run = |seed: u64| {
            let f = kfault::FaultPlane::new();
            let mut s = SmpScheduler::new(4, seed);
            for i in 0..12 {
                s.enqueue_on((i % 2) as usize, Pid(i));
            }
            let order: Vec<Option<Pid>> =
                (0..64).map(|t| s.pick_next_on(t % 4, &f)).collect();
            (order, s.stats().steals, s.stats().switches)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn smp_remove_clears_queues_and_running_slots() {
        let f = kfault::FaultPlane::new();
        let mut s = SmpScheduler::new(2, 1);
        s.enqueue_on(0, Pid(1));
        s.enqueue_on(1, Pid(2));
        assert_eq!(s.pick_next_on(0, &f), Some(Pid(1)));
        s.remove(Pid(1));
        assert_eq!(s.current_on(0), None);
        s.remove(Pid(2));
        assert_eq!(s.runnable(), 0);
        assert_eq!(s.pick_next_on(0, &f), None);
    }

    #[test]
    fn process_new_defaults() {
        let p = Process::new(Pid(5), AsId(3));
        assert_eq!(p.state, ProcState::Ready);
        assert!(!p.in_kernel());
        assert!(p.kernel_budget.is_none());
        assert!(!p.killed_by_watchdog);
    }
}
