//! Seeded synthetic trace generators.
//!
//! The paper captured *"system calls on a system under average interactive
//! user load for approximately 15 minutes"* plus traces of graphical
//! environments, web browsers, daemons, and `/bin/ls`. These generators
//! stand in for those captures: deterministic (seeded), with realistic call
//! mixes and boundary byte counts, so the consolidation analysis has the
//! same structure to mine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ksim::cost::CYCLES_PER_SEC;
use kvfs::{DIRENT_WIRE_BYTES, STAT_WIRE_BYTES};

use crate::sysno::Sysno;
use crate::trace::SyscallEvent;

/// Wire bytes for a path argument (average path length).
const PATH_BYTES: u64 = 24;

/// A trace generator.
pub trait TraceGen {
    /// Produce the full trace.
    fn generate(&mut self) -> Vec<SyscallEvent>;
    /// Workload name for reports.
    fn name(&self) -> &'static str;
}

/// Builder state shared by the generators.
struct Emitter {
    rng: SmallRng,
    pid: u32,
    ts: u64,
    mean_gap: u64,
    out: Vec<SyscallEvent>,
}

impl Emitter {
    fn new(seed: u64, pid: u32, mean_gap: u64) -> Self {
        Emitter { rng: SmallRng::seed_from_u64(seed), pid, ts: 0, mean_gap, out: Vec::new() }
    }

    fn push(&mut self, no: Sysno, bytes_in: u64, bytes_out: u64) {
        // Exponential-ish inter-arrival: uniform in [0.5, 1.5] × mean keeps
        // the trace deterministic-friendly and the rate right.
        let gap = self.mean_gap / 2 + self.rng.gen_range(0..=self.mean_gap);
        self.ts += gap;
        self.out.push(SyscallEvent {
            no,
            pid: self.pid,
            bytes_in,
            bytes_out,
            ret: 0,
            ts: self.ts,
        });
    }

    fn ls_burst(&mut self, entries: u64) {
        self.push(Sysno::Open, PATH_BYTES, 0);
        self.push(Sysno::Readdir, 16, entries * DIRENT_WIRE_BYTES as u64);
        for _ in 0..entries {
            self.push(Sysno::Stat, PATH_BYTES, STAT_WIRE_BYTES as u64);
        }
        self.push(Sysno::Close, 4, 0);
    }

    fn open_read_close(&mut self, size: u64) {
        self.push(Sysno::Open, PATH_BYTES, 0);
        let mut left = size;
        while left > 0 {
            let chunk = left.min(4096);
            self.push(Sysno::Read, 8, chunk);
            left -= chunk;
        }
        self.push(Sysno::Close, 4, 0);
    }

    fn open_write_close(&mut self, size: u64) {
        self.push(Sysno::Open, PATH_BYTES, 0);
        let mut left = size;
        while left > 0 {
            let chunk = left.min(4096);
            self.push(Sysno::Write, 8 + chunk, 0);
            left -= chunk;
        }
        self.push(Sysno::Close, 4, 0);
    }
}

/// The 15-minute interactive-desktop capture (E2's input).
pub struct InteractiveTraceGen {
    pub seed: u64,
    /// Trace duration in simulated minutes.
    pub minutes: u64,
    /// Average syscalls per second (the paper's capture ran ≈190/s).
    pub calls_per_sec: u64,
}

impl Default for InteractiveTraceGen {
    fn default() -> Self {
        InteractiveTraceGen { seed: 2005, minutes: 15, calls_per_sec: 190 }
    }
}

impl TraceGen for InteractiveTraceGen {
    fn generate(&mut self) -> Vec<SyscallEvent> {
        let target = self.minutes * 60 * self.calls_per_sec;
        let mean_gap = CYCLES_PER_SEC / self.calls_per_sec.max(1);
        let mut e = Emitter::new(self.seed, 100, mean_gap);
        while (e.out.len() as u64) < target {
            let dice = e.rng.gen_range(0..100u32);
            match dice {
                // Directory browsing dominates an interactive session's
                // syscall count (file manager refreshes, shell ls, tab
                // completion): readdir + a stat per entry.
                0..=84 => {
                    let entries = e.rng.gen_range(10..=60);
                    e.ls_burst(entries);
                }
                // Application/library loads.
                85..=90 => {
                    let libs = e.rng.gen_range(2..=4);
                    for _ in 0..libs {
                        let size = e.rng.gen_range(1..=4u64) * 4096;
                        e.open_read_close(size);
                    }
                }
                // Editing and saving files.
                91..=95 => {
                    let size = e.rng.gen_range(1..=4u64) * 2048;
                    e.open_read_close(size);
                    e.open_write_close(size);
                }
                // Status polls and misc metadata.
                96..=98 => {
                    e.push(Sysno::Stat, PATH_BYTES, STAT_WIRE_BYTES as u64);
                    e.push(Sysno::Getpid, 0, 0);
                }
                // Occasional namespace churn.
                _ => {
                    e.push(Sysno::Mkdir, PATH_BYTES, 0);
                    e.push(Sysno::Rename, 2 * PATH_BYTES, 0);
                    e.push(Sysno::Unlink, PATH_BYTES, 0);
                }
            }
        }
        e.out.truncate(target as usize);
        e.out
    }

    fn name(&self) -> &'static str {
        "interactive-15min"
    }
}

/// `/bin/ls -l` over one directory of `entries` files.
pub struct LsTraceGen {
    pub seed: u64,
    pub entries: u64,
}

impl TraceGen for LsTraceGen {
    fn generate(&mut self) -> Vec<SyscallEvent> {
        let mut e = Emitter::new(self.seed, 200, 10_000);
        e.ls_burst(self.entries);
        e.out
    }

    fn name(&self) -> &'static str {
        "ls"
    }
}

/// A static-content web server: request loop of open-read-close plus a log
/// append — the sendfile/ORC motivation.
pub struct WebServerTraceGen {
    pub seed: u64,
    pub requests: u64,
}

impl TraceGen for WebServerTraceGen {
    fn generate(&mut self) -> Vec<SyscallEvent> {
        let mut e = Emitter::new(self.seed, 300, 50_000);
        for _ in 0..self.requests {
            e.push(Sysno::Stat, PATH_BYTES, STAT_WIRE_BYTES as u64); // If-Modified-Since
            let size = e.rng.gen_range(1..=32u64) * 1024;
            e.open_read_close(size);
            e.push(Sysno::Write, 96, 0); // access log line
        }
        e.out
    }

    fn name(&self) -> &'static str {
        "webserver"
    }
}

/// A mail server spool: deliveries write, pickups read + unlink.
pub struct MailServerTraceGen {
    pub seed: u64,
    pub messages: u64,
}

impl TraceGen for MailServerTraceGen {
    fn generate(&mut self) -> Vec<SyscallEvent> {
        let mut e = Emitter::new(self.seed, 400, 80_000);
        for i in 0..self.messages {
            let size = e.rng.gen_range(1..=20u64) * 1024;
            e.open_write_close(size); // deliver to tmp
            e.push(Sysno::Rename, 2 * PATH_BYTES, 0); // tmp → new
            if i % 3 == 0 {
                // A pickup pass over the spool.
                let entries = e.rng.gen_range(2..=8);
                e.ls_burst(entries);
                e.open_read_close(size);
                e.push(Sysno::Unlink, PATH_BYTES, 0);
            }
        }
        e.out
    }

    fn name(&self) -> &'static str {
        "mailserver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::estimate_consolidation;
    use crate::graph::{mine_patterns, SyscallGraph};
    use ksim::CostModel;

    #[test]
    fn interactive_trace_is_deterministic_and_sized() {
        let a = InteractiveTraceGen { seed: 7, minutes: 1, calls_per_sec: 100 }.generate();
        let b = InteractiveTraceGen { seed: 7, minutes: 1, calls_per_sec: 100 }.generate();
        assert_eq!(a, b, "same seed, same trace");
        assert_eq!(a.len(), 6_000);
        let c = InteractiveTraceGen { seed: 8, minutes: 1, calls_per_sec: 100 }.generate();
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn interactive_trace_timestamps_cover_the_window() {
        let t = InteractiveTraceGen { seed: 1, minutes: 1, calls_per_sec: 100 }.generate();
        let secs = ksim::cost::cycles_to_secs(t.last().unwrap().ts - t.first().unwrap().ts);
        assert!(secs > 40.0 && secs < 90.0, "≈1 minute of activity, got {secs}");
    }

    #[test]
    fn interactive_trace_mines_readdir_stat() {
        let t = InteractiveTraceGen { seed: 3, minutes: 1, calls_per_sec: 150 }.generate();
        let pats = mine_patterns(&t, 2, 10);
        assert!(
            pats.iter().any(|p| p.seq == vec![Sysno::Readdir, Sysno::Stat]),
            "interactive load must exhibit the readdirplus pattern"
        );
        let g = SyscallGraph::from_trace(&t);
        assert!(g.weight(Sysno::Stat, Sysno::Stat) > g.weight(Sysno::Mkdir, Sysno::Rename));
    }

    #[test]
    fn interactive_consolidation_saves_an_order_of_magnitude_of_calls() {
        let t = InteractiveTraceGen::default().generate();
        let est = estimate_consolidation(&t, &CostModel::default());
        assert!(est.calls_before > 150_000, "≈15 min at 190/s");
        let ratio = est.calls_before as f64 / est.calls_after as f64;
        assert!(ratio > 5.0, "call-count ratio {ratio} too small");
        assert!(est.bytes_after < est.bytes_before);
        assert!(est.secs_saved_per_hour() > 0.3, "got {}", est.secs_saved_per_hour());
    }

    #[test]
    fn webserver_is_orc_dominated() {
        let t = WebServerTraceGen { seed: 5, requests: 200 }.generate();
        let pats = mine_patterns(&t, 3, 50);
        assert!(pats
            .iter()
            .any(|p| p.seq == vec![Sysno::Read, Sysno::Read, Sysno::Read]
                || p.seq == vec![Sysno::Open, Sysno::Read, Sysno::Read]));
        let g = SyscallGraph::from_trace(&t);
        assert!(g.weight(Sysno::Open, Sysno::Read) >= 200);
    }

    #[test]
    fn mailserver_has_rename_churn() {
        let t = MailServerTraceGen { seed: 5, messages: 60 }.generate();
        let g = SyscallGraph::from_trace(&t);
        assert!(g.weight(Sysno::Close, Sysno::Rename) >= 50, "deliver→rename");
        assert!(g.occurrences(Sysno::Unlink) >= 15);
    }

    #[test]
    fn ls_matches_expected_shape() {
        let t = LsTraceGen { seed: 1, entries: 10 }.generate();
        // open + readdir + 10 stats + close.
        assert_eq!(t.len(), 13);
        assert_eq!(t[1].no, Sysno::Readdir);
        assert_eq!(t[1].bytes_out, 10 * DIRENT_WIRE_BYTES as u64);
    }
}
