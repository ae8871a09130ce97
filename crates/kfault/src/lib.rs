//! `kfault` — deterministic, seedable fault injection.
//!
//! The reproduction's safety story (watchdog, Kefence, KGCC) is only
//! credible if the system demonstrably survives failures at arbitrary
//! points, so every layer that can fail for resource reasons declares a
//! **named injection site** and asks its [`FaultPlane`] whether to fail
//! artificially before doing real work. Policies select which hits fail:
//! fail-the-nth-call, fail-every-nth-call, or a seeded per-hit probability,
//! each optionally filtered to a site-name prefix.
//!
//! Everything is deterministic: the probability policy draws from a
//! splitmix64 stream owned by the plane, and every fired fault is appended
//! to a trace (`seq`, site, per-site hit number). The same seed and the
//! same workload therefore produce bit-identical traces — a failing sweep
//! run replays exactly from its seed, and [`FaultPlane::trace_hash`] gives
//! CI a one-word determinism check.
//!
//! The disarmed fast path is a single relaxed atomic load, so production
//! benchmarks pay effectively nothing for the instrumentation.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use parking_lot::Mutex;

/// The canonical injection-site registry. Sites are plain string constants
/// (not dynamic registrations) so a sweep can enumerate [`sites::ALL`] and
/// prove that every site fired at least once.
pub mod sites {
    /// Physical frame allocation in `MemSys::map_anon` (OOM).
    pub const KSIM_FRAME_ALLOC: &str = "ksim.frame_alloc";
    /// TLB fill after a miss in `MemSys::translate` (spurious memory fault).
    pub const KSIM_TLB_FILL: &str = "ksim.tlb_fill";
    /// Forced watchdog kill at a preemption point (fatal: process dies).
    pub const KSIM_PREEMPT_TICK: &str = "ksim.preempt_tick";
    /// `vmalloc` arena allocation failure.
    pub const KALLOC_VMALLOC: &str = "kalloc.vmalloc";
    /// Slab `kmalloc` failure.
    pub const KALLOC_SLAB: &str = "kalloc.slab";
    /// Block-device read error (EIO) on the cache-miss path.
    pub const KVFS_BLOCKDEV_READ: &str = "kvfs.blockdev.read";
    /// Block-device write error (EIO).
    pub const KVFS_BLOCKDEV_WRITE: &str = "kvfs.blockdev.write";
    /// File-system out-of-space (ENOSPC) on create/write.
    pub const KVFS_NOSPC: &str = "kvfs.nospc";
    /// Event ring reports full even when it is not (forced drop).
    pub const KEVENTS_RING_FULL: &str = "kevents.ring_full";
    /// Listener accept queue reports full on connect (ECONNREFUSED).
    pub const NET_ACCEPT_OVERFLOW: &str = "net.accept_overflow";
    /// Spurious flow-control stall on send (EAGAIN).
    pub const NET_SEND_AGAIN: &str = "net.send_again";
    /// Connection reset mid-stream: both endpoints die, in-flight data is
    /// discarded (ECONNRESET).
    pub const NET_PEER_RESET: &str = "net.peer_reset";
    /// Completion queue reports full on CQE post: the completion is
    /// diverted onto the ring's counted overflow list instead of the CQ.
    pub const URING_CQ_OVERFLOW: &str = "uring.cq_overflow";
    /// Work-stealing scheduler: abort a steal attempt after the victim is
    /// chosen (the draining CPU stays idle this tick).
    pub const SCHED_STEAL_FAIL: &str = "sched.steal_fail";
    /// Work-stealing scheduler: force-migrate the local head task to a
    /// random other CPU before a pick.
    pub const SCHED_MIGRATE: &str = "sched.migrate";
    /// Torn block write: only the first half of the block's bytes land
    /// before the device reports EIO — the power-cut failure mode.
    pub const KVFS_BLOCKDEV_TORN: &str = "kvfs.blockdev.torn";
    /// kjfs journal commit: kill the machine at a journal-record or
    /// commit-block write (crash-consistency harness kill point).
    pub const KJFS_JOURNAL_COMMIT: &str = "kjfs.journal.commit";
    /// kjfs mount-time journal replay: kill mid-replay (a crash during
    /// recovery; replay must remain idempotent).
    pub const KJFS_JOURNAL_REPLAY: &str = "kjfs.journal.replay";
    /// kjfs page-cache writeback: kill at a checkpoint/writeback block
    /// write after commit.
    pub const KJFS_WRITEBACK: &str = "kjfs.writeback";
    /// kjfs checkpoint drain: kill at a home-location write or a
    /// commit-slot retirement while committed transactions are draining
    /// from the journal (the pipelined journal's third stage).
    pub const KJFS_CHECKPOINT: &str = "kjfs.journal.checkpoint";
    /// kprog load-time verifier: force a structured rejection verdict for
    /// a program that would otherwise verify (exercises every caller's
    /// rejected-program path without crafting unsound bytecode).
    pub const KPROG_VERIFY_REJECT: &str = "kprog.verify.reject";
    /// kprog attached-program invocation: force the step budget to read as
    /// exhausted before the program runs (the hook's fail-open/fail-closed
    /// handling under a budget trip).
    pub const KPROG_BUDGET_EXHAUSTED: &str = "kprog.budget.exhausted";

    /// Every registered site, for sweeps. The two `sched.*` sites need an
    /// SMP driving harness, the `kjfs.*`/torn sites a crash-remount
    /// harness, and the `kprog.*` sites a loaded-program engine, so the a8
    /// single-rig workload sweep skips them (keeping its TRACE_HASH
    /// stable); `tests/integration_smp.rs`, the A13 crash sweep, and
    /// `tests/integration_faults.rs` cover their determinism instead. New
    /// sites append at the END: a8's per-combo seeds are derived from
    /// these indices.
    pub const ALL: &[&str] = &[
        KSIM_FRAME_ALLOC,
        KSIM_TLB_FILL,
        KSIM_PREEMPT_TICK,
        KALLOC_VMALLOC,
        KALLOC_SLAB,
        KVFS_BLOCKDEV_READ,
        KVFS_BLOCKDEV_WRITE,
        KVFS_NOSPC,
        KEVENTS_RING_FULL,
        NET_ACCEPT_OVERFLOW,
        NET_SEND_AGAIN,
        NET_PEER_RESET,
        URING_CQ_OVERFLOW,
        SCHED_STEAL_FAIL,
        SCHED_MIGRATE,
        KVFS_BLOCKDEV_TORN,
        KJFS_JOURNAL_COMMIT,
        KJFS_JOURNAL_REPLAY,
        KJFS_WRITEBACK,
        KPROG_VERIFY_REJECT,
        KPROG_BUDGET_EXHAUSTED,
        KJFS_CHECKPOINT,
    ];
}

/// Whether a fault injected at a site is survivable by retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The operation can be retried (resource pressure, I/O error).
    Transient,
    /// The process is dead afterwards; no retry is possible.
    Fatal,
}

/// Classify a site. Only the forced watchdog kill is fatal: it terminates
/// the process, so nothing can be replayed on its behalf.
pub fn classify(site: &str) -> FaultClass {
    if site == sites::KSIM_PREEMPT_TICK {
        FaultClass::Fatal
    } else {
        FaultClass::Transient
    }
}

/// When a policy fails a matching hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Fail exactly the `n`-th matching hit (1-based), once.
    FailNth(u64),
    /// Fail every `n`-th matching hit.
    EveryNth(u64),
    /// Fail each matching hit with probability `permille`/1000, drawn from
    /// the plane's seeded stream.
    Probability(u32),
}

// The per-policy site masks below pack one bit per registered site.
const _: () = assert!(sites::ALL.len() <= 32, "site masks are u32");

/// A policy armed against an optional site-name prefix (`None` = all sites).
///
/// The prefix is resolved ONCE, when the policy is added: `mask` has bit
/// `i` set iff the policy covers `sites::ALL[i]`. A consultation then
/// tests one bit instead of running `starts_with` over the prefix string —
/// the per-hit cost no longer depends on site-name lengths at all.
#[derive(Debug, Clone)]
struct ArmedPolicy {
    /// Bit `i` ⇔ this policy covers `sites::ALL[i]`.
    mask: u32,
    policy: Policy,
    /// Hits this policy has matched (its own counter, so two policies with
    /// different filters keep independent `nth` positions).
    matched: u64,
}

/// Compile an optional site-name prefix into its coverage mask.
fn site_mask(prefix: Option<&str>) -> u32 {
    match prefix {
        None => ((1u64 << sites::ALL.len()) - 1) as u32,
        Some(p) => sites::ALL
            .iter()
            .enumerate()
            .filter(|(_, s)| s.starts_with(p))
            .fold(0u32, |m, (i, _)| m | (1 << i)),
    }
}

/// One fired fault in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global fire sequence number (0-based).
    pub seq: u64,
    /// The site that failed.
    pub site: &'static str,
    /// The site's hit number at which it failed (1-based).
    pub hit: u64,
}

/// Per-site counters reported by [`FaultPlane::site_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteStats {
    pub site: &'static str,
    /// Times the site was consulted while armed.
    pub hits: u64,
    /// Times the site was made to fail.
    pub fired: u64,
}

#[derive(Debug, Default)]
struct PlaneState {
    seed: u64,
    rng: u64,
    policies: Vec<ArmedPolicy>,
    /// Union of every armed policy's mask: a consulted site outside the
    /// union counts its hit and returns without walking the policy list.
    covered: u32,
    /// Parallel to [`sites::ALL`].
    hits: Vec<u64>,
    fired: Vec<u64>,
    trace: Vec<FaultEvent>,
}

impl PlaneState {
    fn site_index(site: &str) -> Option<usize> {
        // The instrumented layers pass the `sites::*` constants, so a
        // pointer-equality scan usually resolves the index without reading
        // the string bytes; dynamic names fall back to a content scan.
        sites::ALL
            .iter()
            .position(|&s| std::ptr::eq(s.as_ptr(), site.as_ptr()) && s.len() == site.len())
            .or_else(|| sites::ALL.iter().position(|&s| s == site))
    }
}

/// The per-machine fault-injection plane.
///
/// Disarmed (the default), [`FaultPlane::should_fail`] is one relaxed
/// atomic load. Armed, each consultation counts a hit for its site, runs
/// the armed policies in order, and — if any fires — appends to the trace.
#[derive(Debug, Default)]
pub struct FaultPlane {
    armed: AtomicBool,
    state: Mutex<PlaneState>,
}

impl FaultPlane {
    pub fn new() -> Self {
        FaultPlane::default()
    }

    /// Arm the plane with `seed` (also resets counters, trace, and the
    /// random stream, so arming is the start of a reproducible episode).
    pub fn arm(&self, seed: u64) {
        let mut st = self.state.lock();
        st.seed = seed;
        st.rng = seed;
        st.hits = vec![0; sites::ALL.len()];
        st.fired = vec![0; sites::ALL.len()];
        st.trace.clear();
        for p in &mut st.policies {
            p.matched = 0;
        }
        self.armed.store(true, Relaxed);
    }

    /// Stop injecting. Policies, counters, and the trace are kept (for
    /// inspection); re-[`arm`](FaultPlane::arm) to start a fresh episode.
    pub fn disarm(&self) {
        self.armed.store(false, Relaxed);
    }

    /// Temporarily stop injecting (recovery paths are not instrumented).
    /// Returns the previous armed state for [`resume`](FaultPlane::resume).
    pub fn suspend(&self) -> bool {
        self.armed.swap(false, Relaxed)
    }

    /// Restore the armed state saved by [`suspend`](FaultPlane::suspend).
    pub fn resume(&self, was_armed: bool) {
        self.armed.store(was_armed, Relaxed);
    }

    /// Add a policy, optionally filtered to sites whose name starts with
    /// `prefix`. Policies are evaluated in insertion order; the first that
    /// fires wins. The prefix is resolved to a site mask here, once, so a
    /// consultation never does string matching.
    pub fn add_policy(&self, prefix: Option<&str>, policy: Policy) {
        let mask = site_mask(prefix);
        let mut st = self.state.lock();
        st.covered |= mask;
        st.policies.push(ArmedPolicy { mask, policy, matched: 0 });
    }

    /// Drop every policy (the plane stays armed but injects nothing).
    pub fn clear_policies(&self) {
        let mut st = self.state.lock();
        st.policies.clear();
        st.covered = 0;
    }

    /// Should the operation at `site` fail now? The heart of the plane:
    /// called from the instrumented layers before they do real work.
    #[inline]
    pub fn should_fail(&self, site: &'static str) -> bool {
        if !self.armed.load(Relaxed) {
            return false;
        }
        self.consult(site)
    }

    #[cold]
    fn consult(&self, site: &'static str) -> bool {
        let Some(idx) = PlaneState::site_index(site) else {
            return false;
        };
        let bit = 1u32 << idx;
        let mut st = self.state.lock();
        st.hits[idx] += 1;
        let hit = st.hits[idx];
        // No policy covers this site: nothing below could match, fire, or
        // advance the random stream — skip the policy walk entirely.
        if st.covered & bit == 0 {
            return false;
        }
        let mut fire = false;
        for i in 0..st.policies.len() {
            if st.policies[i].mask & bit == 0 {
                continue;
            }
            st.policies[i].matched += 1;
            let matched = st.policies[i].matched;
            fire = match st.policies[i].policy {
                Policy::FailNth(n) => matched == n,
                Policy::EveryNth(n) => n > 0 && matched.is_multiple_of(n),
                Policy::Probability(permille) => {
                    let draw = splitmix64(&mut st.rng) % 1000;
                    draw < permille as u64
                }
            };
            if fire {
                break;
            }
        }
        if fire {
            st.fired[idx] += 1;
            let seq = st.trace.len() as u64;
            st.trace.push(FaultEvent { seq, site, hit });
        }
        fire
    }

    /// Total faults fired since the last arm.
    pub fn fired_count(&self) -> u64 {
        self.state.lock().trace.len() as u64
    }

    /// The most recently fired fault, if any.
    pub fn last_fired(&self) -> Option<FaultEvent> {
        self.state.lock().trace.last().copied()
    }

    /// The full fired-fault trace since the last arm.
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.state.lock().trace.clone()
    }

    /// FNV-1a over the trace: one word that equal seeds must reproduce.
    pub fn trace_hash(&self) -> u64 {
        let st = self.state.lock();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ev in &st.trace {
            mix(ev.site.as_bytes());
            mix(&ev.hit.to_le_bytes());
            mix(&ev.seq.to_le_bytes());
        }
        h
    }

    /// Hit/fired counters for every registered site.
    pub fn site_stats(&self) -> Vec<SiteStats> {
        let st = self.state.lock();
        sites::ALL
            .iter()
            .enumerate()
            .map(|(i, &site)| SiteStats {
                site,
                hits: st.hits.get(i).copied().unwrap_or(0),
                fired: st.fired.get(i).copied().unwrap_or(0),
            })
            .collect()
    }
}

/// splitmix64: the plane's deterministic random stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plane_never_fails() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::EveryNth(1));
        for _ in 0..100 {
            assert!(!p.should_fail(sites::KSIM_FRAME_ALLOC));
        }
        assert_eq!(p.fired_count(), 0);
    }

    #[test]
    fn fail_nth_fires_exactly_once_at_the_nth_hit() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::FailNth(3));
        p.arm(1);
        let outcomes: Vec<bool> = (0..6).map(|_| p.should_fail(sites::KALLOC_SLAB)).collect();
        assert_eq!(outcomes, vec![false, false, true, false, false, false]);
        let t = p.trace();
        assert_eq!(t.len(), 1);
        assert_eq!(
            t[0],
            FaultEvent {
                seq: 0,
                site: sites::KALLOC_SLAB,
                hit: 3
            }
        );
    }

    #[test]
    fn every_nth_fires_periodically() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::EveryNth(2));
        p.arm(1);
        let fired = (0..10).filter(|_| p.should_fail(sites::KVFS_NOSPC)).count();
        assert_eq!(fired, 5);
    }

    #[test]
    fn prefix_filter_scopes_the_policy() {
        let p = FaultPlane::new();
        p.add_policy(Some("kvfs."), Policy::EveryNth(1));
        p.arm(1);
        assert!(!p.should_fail(sites::KSIM_FRAME_ALLOC));
        assert!(p.should_fail(sites::KVFS_BLOCKDEV_READ));
        assert!(p.should_fail(sites::KVFS_NOSPC));
        let stats = p.site_stats();
        let fa = stats
            .iter()
            .find(|s| s.site == sites::KSIM_FRAME_ALLOC)
            .unwrap();
        assert_eq!((fa.hits, fa.fired), (1, 0));
    }

    #[test]
    fn probability_stream_is_seed_deterministic() {
        let run = |seed: u64| {
            let p = FaultPlane::new();
            p.add_policy(None, Policy::Probability(300));
            p.arm(seed);
            let outcomes: Vec<bool> = (0..200)
                .map(|_| p.should_fail(sites::KSIM_TLB_FILL))
                .collect();
            (outcomes, p.trace_hash())
        };
        let (a, ha) = run(42);
        let (b, hb) = run(42);
        let (c, hc) = run(43);
        assert_eq!(a, b, "same seed, same outcomes");
        assert_eq!(ha, hb, "same seed, same trace hash");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "p=0.3 mixes");
        assert!(c != a || hc != ha, "different seed diverges");
    }

    #[test]
    fn suspend_and_resume_bracket_recovery_paths() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::EveryNth(1));
        p.arm(1);
        assert!(p.should_fail(sites::KALLOC_VMALLOC));
        let was = p.suspend();
        assert!(was);
        assert!(
            !p.should_fail(sites::KALLOC_VMALLOC),
            "suspended: no injection"
        );
        p.resume(was);
        assert!(p.should_fail(sites::KALLOC_VMALLOC));
    }

    #[test]
    fn rearming_resets_counters_and_trace() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::FailNth(1));
        p.arm(7);
        assert!(p.should_fail(sites::KEVENTS_RING_FULL));
        assert_eq!(p.fired_count(), 1);
        p.arm(7);
        assert_eq!(p.fired_count(), 0);
        assert!(
            p.should_fail(sites::KEVENTS_RING_FULL),
            "nth position reset"
        );
    }

    #[test]
    fn classification_marks_only_the_forced_kill_fatal() {
        for &site in sites::ALL {
            let expect = if site == sites::KSIM_PREEMPT_TICK {
                FaultClass::Fatal
            } else {
                FaultClass::Transient
            };
            assert_eq!(classify(site), expect, "{site}");
        }
    }

    #[test]
    fn compiled_masks_agree_with_starts_with_for_every_prefix() {
        // The arm-time mask must be extensionally identical to the old
        // per-consultation starts_with, for every prefix of every site
        // name (plus the catch-alls).
        let mut prefixes: Vec<Option<String>> = vec![None, Some(String::new())];
        for site in sites::ALL {
            for n in 1..=site.len() {
                prefixes.push(Some(site[..n].to_string()));
            }
        }
        prefixes.push(Some("no.such.prefix".to_string()));
        for prefix in prefixes {
            let mask = site_mask(prefix.as_deref());
            for (i, site) in sites::ALL.iter().enumerate() {
                let old = match &prefix {
                    None => true,
                    Some(p) => site.starts_with(p.as_str()),
                };
                assert_eq!(
                    mask & (1 << i) != 0,
                    old,
                    "prefix {prefix:?} vs site {site}"
                );
            }
        }
    }

    #[test]
    fn uncovered_sites_still_count_hits() {
        let p = FaultPlane::new();
        p.add_policy(Some("net."), Policy::EveryNth(1));
        p.arm(1);
        assert!(!p.should_fail(sites::KALLOC_SLAB));
        assert!(!p.should_fail(sites::KALLOC_SLAB));
        let st = p.site_stats();
        let slab = st.iter().find(|s| s.site == sites::KALLOC_SLAB).unwrap();
        assert_eq!((slab.hits, slab.fired), (2, 0));
    }

    #[test]
    fn unknown_sites_are_ignored() {
        let p = FaultPlane::new();
        p.add_policy(None, Policy::EveryNth(1));
        p.arm(1);
        assert!(!p.should_fail("no.such.site"));
    }
}
