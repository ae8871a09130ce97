//! Durable event logs — the paper's tracing mode.
//!
//! §3.3: the framework supports *"on-line analysis in the kernel and in
//! user space, as well as logging for later analysis"*. This module is the
//! "later analysis" half: a compact line-oriented serialisation of event
//! records that a user-space logger writes out, plus a loader that replays
//! a saved log through any [`EventMonitor`] — so the same invariant
//! checkers run on-line and post-mortem.
//!
//! Format (one event per line, `\t`-separated, stable and greppable):
//!
//! ```text
//! <obj-hex>\t<event>\t<file>\t<line>\t<value>
//! ```

use std::fmt::Write as _;

use crate::dispatch::EventMonitor;
use crate::record::{EventRecord, EventType};

/// Serialise records into the log format.
pub fn write_log(records: &[EventRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 32);
    for r in records {
        let _ = writeln!(
            out,
            "{:x}\t{}\t{}\t{}\t{}",
            r.obj,
            event_name(r.event),
            r.file,
            r.line,
            r.value
        );
    }
    out
}

/// A record as loaded from a log: the file name is owned (the `'static`
/// source names of live records are not recoverable from text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedEvent {
    pub obj: u64,
    pub event: EventType,
    pub file: String,
    pub line: u32,
    pub value: i64,
}

/// Log-parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for LogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "log parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LogParseError {}

/// Parse a saved log.
pub fn read_log(text: &str) -> Result<Vec<LoggedEvent>, LogParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut f = line.split('\t');
        let err = |msg: &str| LogParseError { line: i + 1, msg: msg.to_string() };
        let obj = u64::from_str_radix(f.next().ok_or_else(|| err("missing obj"))?, 16)
            .map_err(|e| err(&format!("bad obj: {e}")))?;
        let event = parse_event(f.next().ok_or_else(|| err("missing event"))?)
            .ok_or_else(|| err("unknown event"))?;
        let file = f.next().ok_or_else(|| err("missing file"))?.to_string();
        let line_no: u32 = f
            .next()
            .ok_or_else(|| err("missing line"))?
            .parse()
            .map_err(|e| err(&format!("bad line: {e}")))?;
        let value: i64 = f
            .next()
            .ok_or_else(|| err("missing value"))?
            .parse()
            .map_err(|e| err(&format!("bad value: {e}")))?;
        out.push(LoggedEvent { obj, event, file, line: line_no, value });
    }
    Ok(out)
}

/// Replay a loaded log through a monitor (post-mortem analysis). The
/// monitor sees the same records it would have seen on-line, except that
/// file names are interned per call.
pub fn replay<M: EventMonitor>(events: &[LoggedEvent], monitor: &M) {
    for e in events {
        // Leak-free interning is unnecessary for analysis runs; the file
        // string's lifetime only needs to outlive the callback.
        let rec = EventRecord {
            obj: e.obj,
            event: e.event,
            file: "replayed",
            line: e.line,
            value: e.value,
        };
        monitor.on_event(&rec);
    }
}

fn event_name(e: EventType) -> String {
    match e {
        EventType::LockAcquire => "lock+".into(),
        EventType::LockRelease => "lock-".into(),
        EventType::RefInc => "ref+".into(),
        EventType::RefDec => "ref-".into(),
        EventType::IrqDisable => "irq-".into(),
        EventType::IrqEnable => "irq+".into(),
        EventType::SemDown => "sem-".into(),
        EventType::SemUp => "sem+".into(),
        EventType::Custom(n) => format!("c{n}"),
    }
}

fn parse_event(s: &str) -> Option<EventType> {
    Some(match s {
        "lock+" => EventType::LockAcquire,
        "lock-" => EventType::LockRelease,
        "ref+" => EventType::RefInc,
        "ref-" => EventType::RefDec,
        "irq-" => EventType::IrqDisable,
        "irq+" => EventType::IrqEnable,
        "sem-" => EventType::SemDown,
        "sem+" => EventType::SemUp,
        s if s.starts_with('c') => EventType::Custom(s[1..].parse().ok()?),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitors::BalanceMonitor;

    fn rec(obj: u64, event: EventType, value: i64) -> EventRecord {
        EventRecord::new(obj, event, "src/x.c", 42, value)
    }

    #[test]
    fn write_read_roundtrip() {
        let records = vec![
            rec(0xDEAD, EventType::LockAcquire, 0),
            rec(0xDEAD, EventType::LockRelease, 0),
            rec(1, EventType::RefInc, 1),
            rec(1, EventType::RefDec, 0),
            rec(7, EventType::Custom(250), -9),
            rec(3, EventType::SemDown, 2),
        ];
        let text = write_log(&records);
        let loaded = read_log(&text).unwrap();
        assert_eq!(loaded.len(), records.len());
        for (l, r) in loaded.iter().zip(&records) {
            assert_eq!(l.obj, r.obj);
            assert_eq!(l.event, r.event);
            assert_eq!(l.file, r.file);
            assert_eq!(l.line, r.line);
            assert_eq!(l.value, r.value);
        }
    }

    #[test]
    fn corrupt_logs_error_with_line_numbers() {
        assert!(read_log("nonsense").is_err());
        let e = read_log("1\tlock+\tf\t1\t0\nzz\twat\tf\t1\t0").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(read_log("1\tlock+\tf\tnotanum\t0").is_err());
        assert!(read_log("").unwrap().is_empty());
    }

    #[test]
    fn post_mortem_replay_finds_the_same_violations() {
        // On-line: a refcount underflow and a lock imbalance occur.
        let events = vec![
            rec(1, EventType::RefInc, 1),
            rec(1, EventType::RefDec, 0),
            rec(1, EventType::RefDec, -1), // bug
            rec(2, EventType::LockRelease, 0), // bug
        ];
        let online_refs = BalanceMonitor::refcount();
        let online_locks = BalanceMonitor::spinlock();
        for e in &events {
            online_refs.on_event(e);
            online_locks.on_event(e);
        }

        // Post-mortem: same log, fresh monitors.
        let text = write_log(&events);
        let loaded = read_log(&text).unwrap();
        let offline_refs = BalanceMonitor::refcount();
        let offline_locks = BalanceMonitor::spinlock();
        replay(&loaded, &offline_refs);
        replay(&loaded, &offline_locks);

        assert_eq!(
            online_refs.violations().len(),
            offline_refs.violations().len()
        );
        assert_eq!(
            online_locks.violations().len(),
            offline_locks.violations().len()
        );
        assert_eq!(offline_refs.violations().len(), 1);
        assert_eq!(offline_locks.violations().len(), 1);
    }
}
