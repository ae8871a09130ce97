//! The §2.2 consolidation estimator.
//!
//! The paper logged an interactive system for ~15 minutes and computed what
//! `readdirplus` would have saved: bytes transferred across the boundary
//! (51,807,520 → 32,250,041), system calls (171,975 → 17,251), and
//! "about 28.15 seconds per hour". This module performs the same
//! calculation over any recorded trace.

use ksim::cost::{cycles_to_secs, CostModel};
use kvfs::{DIRENT_WIRE_BYTES, RDP_ENTRY_WIRE_BYTES};

use crate::sysno::Sysno;
use crate::trace::SyscallEvent;

/// Result of the what-if analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConsolidationEstimate {
    /// Calls in the original trace.
    pub calls_before: u64,
    /// Calls if every mined burst used the consolidated syscall.
    pub calls_after: u64,
    /// Boundary bytes in the original trace.
    pub bytes_before: u64,
    /// Boundary bytes after consolidation.
    pub bytes_after: u64,
    /// Crossings eliminated.
    pub crossings_saved: u64,
    /// Cycle savings (crossings + copy bytes).
    pub cycles_saved: u64,
    /// The trace window in seconds (from timestamps).
    pub window_secs: f64,
}

impl ConsolidationEstimate {
    /// The paper's headline number: seconds saved per hour of this workload.
    pub fn secs_saved_per_hour(&self) -> f64 {
        if self.window_secs <= 0.0 {
            return 0.0;
        }
        cycles_to_secs(self.cycles_saved) * 3_600.0 / self.window_secs
    }
}

/// Estimate the effect of replacing every `readdir` + following `stat` burst
/// with one `readdirplus` call (per process, as the paper's analysis did).
pub fn estimate_consolidation(events: &[SyscallEvent], cost: &CostModel) -> ConsolidationEstimate {
    let mut est = ConsolidationEstimate::default();
    for e in events {
        est.calls_before += 1;
        est.bytes_before += e.bytes_in + e.bytes_out;
    }
    est.bytes_after = est.bytes_before;
    est.calls_after = est.calls_before;
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        est.window_secs = cycles_to_secs(last.ts.saturating_sub(first.ts));
    }

    // Scan per-pid for readdir followed by consecutive stats.
    use std::collections::HashMap;
    #[derive(Default)]
    struct Burst {
        active: bool,
        stats: u64,
        /// Boundary bytes of the burst's stat calls (paths in + stats out).
        stat_bytes: u64,
        /// Dirent bytes the readdir call returned.
        dirent_bytes: u64,
        dirents: u64,
    }
    let mut bursts: HashMap<u32, Burst> = HashMap::new();
    let commit = |est: &mut ConsolidationEstimate, b: &mut Burst| {
        if b.active && b.stats > 0 {
            // 1 readdir + N stats → 1 readdirplus: N crossings disappear.
            est.calls_after -= b.stats;
            est.crossings_saved += b.stats;
            // Byte accounting: the burst's original traffic (dirents out +
            // stat paths in + stat results out) is replaced by one stream of
            // packed name+attribute entries, one per directory entry.
            let before_burst = b.dirent_bytes + b.stat_bytes;
            let after_burst = b.dirents.max(b.stats) * RDP_ENTRY_WIRE_BYTES as u64;
            let saved = before_burst.saturating_sub(after_burst);
            est.bytes_after = est.bytes_after.saturating_sub(saved);
        }
        *b = Burst::default();
    };

    for e in events {
        let b = bursts.entry(e.pid).or_default();
        match e.no {
            Sysno::Readdir => {
                let mut old = std::mem::take(b);
                commit(&mut est, &mut old);
                let b = bursts.entry(e.pid).or_default();
                b.active = true;
                b.dirents = e.bytes_out / DIRENT_WIRE_BYTES as u64;
                b.dirent_bytes = e.bytes_out;
            }
            Sysno::Stat if b.active => {
                b.stats += 1;
                b.stat_bytes += e.bytes_in + e.bytes_out;
            }
            _ => {
                let mut old = std::mem::take(b);
                commit(&mut est, &mut old);
            }
        }
    }
    for (_, mut b) in bursts {
        commit(&mut est, &mut b);
    }

    let bytes_saved = est.bytes_before - est.bytes_after;
    // Each eliminated stat also skips its in-kernel path resolution (the
    // directory search readdirplus performs once while walking the listing).
    const PATH_RESOLVE_CYCLES: u64 = 1_300;
    est.cycles_saved = est.crossings_saved * (cost.crossing_cost() + PATH_RESOLVE_CYCLES)
        + cost.copy_cost(bytes_saved as usize);
    est
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u32, no: Sysno, bytes_in: u64, bytes_out: u64, ts: u64) -> SyscallEvent {
        SyscallEvent { no, pid, bytes_in, bytes_out, ret: 0, ts }
    }

    fn ls_burst(pid: u32, nfiles: u64, t0: u64) -> Vec<SyscallEvent> {
        let mut t = vec![ev(pid, Sysno::Readdir, 16, nfiles * DIRENT_WIRE_BYTES as u64, t0)];
        for i in 0..nfiles {
            t.push(ev(pid, Sysno::Stat, 24, 88, t0 + i + 1));
        }
        t
    }

    #[test]
    fn pure_ls_workload_consolidates_heavily() {
        let mut trace = Vec::new();
        for d in 0..100u64 {
            trace.extend(ls_burst(1, 10, d * 1_000_000));
        }
        let est = estimate_consolidation(&trace, &CostModel::default());
        assert_eq!(est.calls_before, 1_100);
        assert_eq!(est.calls_after, 100, "one readdirplus per directory");
        assert_eq!(est.crossings_saved, 1_000);
        assert!(est.bytes_after < est.bytes_before);
        assert!(est.cycles_saved > 0);
    }

    #[test]
    fn unrelated_calls_are_untouched() {
        let trace = vec![
            ev(1, Sysno::Open, 24, 0, 0),
            ev(1, Sysno::Read, 8, 4096, 1),
            ev(1, Sysno::Close, 4, 0, 2),
        ];
        let est = estimate_consolidation(&trace, &CostModel::default());
        assert_eq!(est.calls_before, 3);
        assert_eq!(est.calls_after, 3);
        assert_eq!(est.bytes_after, est.bytes_before);
        assert_eq!(est.crossings_saved, 0);
    }

    #[test]
    fn burst_broken_by_other_call_counts_partially() {
        let mut trace = ls_burst(1, 5, 0);
        trace.push(ev(1, Sysno::Getpid, 0, 0, 100));
        trace.extend(ls_burst(1, 5, 200));
        let est = estimate_consolidation(&trace, &CostModel::default());
        // Two bursts of 5 stats each consolidated.
        assert_eq!(est.crossings_saved, 10);
        assert_eq!(est.calls_after, est.calls_before - 10);
    }

    #[test]
    fn per_pid_bursts_do_not_interfere() {
        let mut trace = Vec::new();
        // Interleave two processes' bursts event by event.
        let a = ls_burst(1, 3, 0);
        let b = ls_burst(2, 3, 0);
        for (x, y) in a.into_iter().zip(b) {
            trace.push(x);
            trace.push(y);
        }
        let est = estimate_consolidation(&trace, &CostModel::default());
        assert_eq!(est.crossings_saved, 6);
    }

    #[test]
    fn savings_rate_scales_to_hours() {
        use ksim::cost::CYCLES_PER_SEC;
        let mut trace = Vec::new();
        for d in 0..60u64 {
            trace.extend(ls_burst(1, 20, d * CYCLES_PER_SEC)); // one per second
        }
        let est = estimate_consolidation(&trace, &CostModel::default());
        assert!(est.window_secs > 58.0 && est.window_secs < 61.0);
        assert!(est.secs_saved_per_hour() > 0.0);
    }
}
