//! Host-time spans around every call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end, a parent and an operation id; the
//! spans of one measured operation share its id and have the operation's
//! span as parent. Calls into the program never nest inside each other (the
//! benchmark issues them one at a time), so a call span's self time is its
//! whole duration, and an operation span's self time is the benchmark's own
//! work between calls. With tracing off, [`Tracer::call`] is one branch
//! around the call and nothing is recorded.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent id of spans that belong to no operation (set-up calls).
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Operation spans are the parentless spans with an operation id;
    /// set-up calls are parentless with none.
    fn is_op(&self) -> bool {
        self.parent == NO_PARENT && self.op != NO_PARENT
    }
}

/// In-memory span recorder for one single-threaded benchmark.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Index of the open operation span, or `NO_PARENT`.
    open_op: Cell<u32>,
    next_op: Cell<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open_op: Cell::new(NO_PARENT),
            next_op: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the span of one measured operation; calls recorded until
    /// [`Tracer::end_op`] become its children.
    pub fn begin_op(&self, name: &'static str) {
        if !self.on {
            return;
        }
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        self.open_op.set(spans.len() as u32);
        spans.push(Span {
            name,
            op,
            parent: NO_PARENT,
            start_ns,
            end_ns: start_ns,
        });
    }

    pub fn end_op(&self) {
        if !self.on {
            return;
        }
        let idx = self.open_op.replace(NO_PARENT);
        if idx != NO_PARENT {
            let end = self.now_ns();
            self.spans.borrow_mut()[idx as usize].end_ns = end;
        }
    }

    /// Run `f`, a call into one layer, recording it as span `name`.
    #[inline]
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let parent = self.open_op.get();
        let op = if parent == NO_PARENT {
            NO_PARENT
        } else {
            self.spans.borrow()[parent as usize].op
        };
        self.spans.borrow_mut().push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        r
    }

    /// Number of spans recorded so far.
    pub fn recorded(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span recorded, in start order of operations and calls.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Per-name totals of call spans.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// name → (calls, total ns).
    pub calls: BTreeMap<&'static str, (u64, u64)>,
    /// Nanoseconds covered by call spans.
    pub in_program_ns: u64,
}

impl SpanTotals {
    pub fn add(&mut self, spans: &[Span]) {
        for s in spans.iter().filter(|s| !s.is_op()) {
            let d = s.end_ns - s.start_ns;
            let e = self.calls.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            self.in_program_ns += d;
        }
    }

    /// Mean microseconds per call of span `name`; 0 when it was never called.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&(n, ns)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }
}

/// Tab-separated dump: one span per line, `op parent name start_ns end_ns`.
/// `parent` is the line number (from 0, header excluded) of the
/// operation's span; -1 marks no operation or no parent.
pub fn to_tsv(spans: &[Span]) -> String {
    let id = |v: u32| if v == NO_PARENT { -1 } else { i64::from(v) };
    let mut out = String::from("op\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            id(s.op),
            id(s.parent),
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_count_calls_but_not_operation_spans() {
        let spans = [
            Span {
                name: "op",
                op: 0,
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                op: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "a",
                op: 0,
                parent: 0,
                start_ns: 50,
                end_ns: 60,
            },
            Span {
                name: "setup",
                op: NO_PARENT,
                parent: NO_PARENT,
                start_ns: 200,
                end_ns: 210,
            },
        ];
        let mut t = SpanTotals::default();
        t.add(&spans);
        assert_eq!(t.in_program_ns, 50);
        assert_eq!(t.calls["a"], (2, 40));
        assert_eq!(t.mean_us("setup"), 0.01);
        assert_eq!(t.mean_us("missing"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.begin_op("op");
        assert_eq!(t.call("a", || 7), 7);
        t.end_op();
        assert!(t.into_spans().is_empty());
    }
}
