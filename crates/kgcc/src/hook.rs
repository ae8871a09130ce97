//! The KGCC runtime checks, as a `kclang` memory hook.
//!
//! Every enabled check site consults the object map before the access
//! proceeds — "the tree is consulted before any memory operation". Pointer
//! arithmetic that leaves its object's bounds creates an OOB **peer**
//! rather than failing (the `ptr+i-j` pattern); dereferencing a peer, or
//! any address outside every live object, is a violation, as are
//! use-after-free and bad `free`.
//!
//! The hook also implements the per-site execution counters that feed
//! **dynamic deinstrumentation** ([`crate::Deinstrument`]). The
//! compile-time [`CheckPlan`](crate::CheckPlan) is not consulted here: it
//! is applied when the module is compiled ([`crate::compile_planned`]), so
//! the VM calls the hook only at the sites the plan keeps.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use parking_lot::Mutex;

use kclang::{CheckViolation, MemHook, ViolationKind};
use ksim::Machine;

use crate::deinstrument::Deinstrument;
use crate::objmap::{ObjKind, ObjectMap};

/// Cycles charged per executed check (splay lookup + compare).
pub const CHECK_CYCLES: u64 = 38;

/// Hook configuration.
#[derive(Debug, Clone)]
pub struct KgccConfig {
    /// Charge check cycles to system time (kernel module) or user time.
    pub charge_sys: bool,
    /// Optional dynamic deinstrumentation policy.
    pub deinstrument: Option<Deinstrument>,
}

ksim::counters! {
    /// Live check counters, bumped from the check paths.
    struct KgccCounters =>
    /// Summary counters for reporting.
    pub struct KgccReport {
        /// Checks actually executed (after deinstrumentation skips).
        checks_executed,
        /// Hook calls declined because deinstrumentation disabled the site.
        /// A site [`crate::apply_deinstrumentation`] has patched out no
        /// longer calls the hook, so its skips are not counted; nor are
        /// parameter spills or sites the plan compiled out.
        checks_skipped,
        /// Peers created by out-of-bounds arithmetic.
        peers_created,
        /// Violations detected.
        violations,
    }
}

/// The runtime hook. Shareable; internally synchronised.
pub struct KgccHook {
    machine: Arc<Machine>,
    cfg: KgccConfig,
    map: Mutex<ObjectMap>,
    counters: KgccCounters,
}

impl KgccHook {
    /// The hook expects a module built by [`crate::compile_planned`]: it
    /// checks every site that calls it, so on a module from plain
    /// `kclang::compile` (every load and store calls the hook) it would
    /// count and charge plain variable accesses as checks.
    pub fn new(machine: Arc<Machine>, cfg: KgccConfig) -> Arc<Self> {
        Arc::new(KgccHook {
            machine,
            cfg,
            map: Mutex::new(ObjectMap::new()),
            counters: KgccCounters::default(),
        })
    }

    pub fn report(&self) -> KgccReport {
        self.counters.snapshot()
    }

    /// Live objects currently mapped.
    pub fn live_objects(&self) -> usize {
        self.map.lock().live_objects()
    }

    /// The live deinstrumentation policy this hook consults, if any.
    /// (`Deinstrument::clone` snapshots counters, so callers that want to
    /// observe accumulated confidence — or patch bytecode from it — must
    /// use this handle, not their own copy.)
    pub fn deinstrument(&self) -> Option<&Deinstrument> {
        self.cfg.deinstrument.as_ref()
    }

    /// Should this site run its check right now? Counts the skip when
    /// deinstrumentation has turned the site off.
    fn site_enabled(&self, site: u32) -> bool {
        if site == u32::MAX {
            // Engine-internal accesses (parameter spills) are trusted.
            return false;
        }
        if self.cfg.deinstrument.as_ref().is_some_and(|d| d.is_disabled(site)) {
            self.counters.checks_skipped.fetch_add(1, Relaxed);
            return false;
        }
        true
    }

    fn charge(&self) {
        if self.cfg.charge_sys {
            self.machine.charge_sys(CHECK_CYCLES);
        } else {
            self.machine.charge_user(CHECK_CYCLES);
        }
    }

    fn note_clean_execution(&self, site: u32) {
        if let Some(d) = &self.cfg.deinstrument {
            d.note_execution(site);
        }
    }

    fn violation(
        &self,
        kind: ViolationKind,
        site: u32,
        addr: u64,
        len: usize,
        msg: String,
    ) -> CheckViolation {
        self.counters.violations.fetch_add(1, Relaxed);
        CheckViolation { kind, site, addr, len, msg }
    }
}

impl MemHook for KgccHook {
    fn on_access(
        &self,
        site: u32,
        addr: u64,
        len: usize,
        is_write: bool,
    ) -> Result<(), CheckViolation> {
        if !self.site_enabled(site) {
            return Ok(());
        }
        self.counters.checks_executed.fetch_add(1, Relaxed);
        self.charge();

        let mut map = self.map.lock();
        if map.peer(addr).is_some() {
            return Err(self.violation(
                ViolationKind::DerefOob,
                site,
                addr,
                len,
                "dereference of out-of-bounds (peer) pointer".into(),
            ));
        }
        match map.containing(addr) {
            Some(obj) if obj.freed => Err(self.violation(
                ViolationKind::UseAfterFree,
                site,
                addr,
                len,
                format!("object at {:#x} was freed", obj.base),
            )),
            Some(obj) if obj.covers(addr, len) => {
                self.note_clean_execution(site);
                Ok(())
            }
            Some(obj) => Err(self.violation(
                ViolationKind::OutOfBounds,
                site,
                addr,
                len,
                format!(
                    "access of {len} bytes runs past object [{:#x}, +{})",
                    obj.base, obj.len
                ),
            )),
            None => Err(self.violation(
                ViolationKind::OutOfBounds,
                site,
                addr,
                len,
                format!("{} outside every live object", if is_write { "write" } else { "read" }),
            )),
        }
    }

    fn on_ptr_arith(&self, site: u32, old: u64, new: u64) -> Result<u64, CheckViolation> {
        if !self.site_enabled(site) {
            return Ok(new);
        }
        self.counters.checks_executed.fetch_add(1, Relaxed);
        self.charge();

        let mut map = self.map.lock();
        // Where did the old pointer point?
        let origin = if let Some(p) = map.peer(old) {
            Some(p.origin)
        } else {
            map.ptr_owner(old)
        };
        let Some(origin) = origin else {
            // Arithmetic on a pointer we never saw (e.g. an integer used as
            // an address): BCC-family checkers pass these through; the
            // dereference check will catch any bad use.
            self.note_clean_execution(site);
            return Ok(new);
        };

        if origin.in_ptr_range(new) {
            // Back (or still) in bounds: drop any stale peer for this value.
            map.remove_peer(new);
            self.note_clean_execution(site);
            Ok(new)
        } else {
            // Out of bounds: legalise as a peer of the origin. Arithmetic
            // is allowed; dereference is not.
            map.add_peer(new, origin);
            self.counters.peers_created.fetch_add(1, Relaxed);
            self.note_clean_execution(site);
            Ok(new)
        }
    }

    fn on_alloc(&self, base: u64, len: usize, is_heap: bool) {
        let kind = if is_heap { ObjKind::Heap } else { ObjKind::Stack };
        self.map.lock().insert(base, len, kind);
    }

    fn on_dealloc(&self, base: u64, is_heap: bool) {
        let mut map = self.map.lock();
        if is_heap {
            map.mark_freed(base);
        } else {
            map.remove(base);
        }
    }

    fn on_free_check(&self, site: u32, addr: u64) -> Result<(), CheckViolation> {
        if !self.site_enabled(site) {
            return Ok(());
        }
        self.counters.checks_executed.fetch_add(1, Relaxed);
        self.charge();
        let mut map = self.map.lock();
        if map.is_live_base(addr) {
            self.note_clean_execution(site);
            Ok(())
        } else {
            Err(self.violation(
                ViolationKind::BadFree,
                site,
                addr,
                0,
                "free of a pointer that is not a live allocation".into(),
            ))
        }
    }
}

impl std::fmt::Debug for KgccHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KgccHook").field("report", &self.report()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::tests::{machine, run_planned};
    use kclang::InterpError;

    /// Run `src` on the VM with every check site compiled in.
    fn run_checked(src: &str, func: &str, args: &[i64]) -> Result<i64, InterpError> {
        run_planned(&machine(), src, func, args, false, None).0
    }

    #[test]
    fn clean_programs_run_unchanged() {
        let src = r#"
            int f() {
                int a[8];
                int i;
                int acc = 0;
                for (i = 0; i < 8; i = i + 1) { a[i] = i; }
                for (i = 0; i < 8; i = i + 1) { acc = acc + a[i]; }
                return acc;
            }
            "#;
        assert_eq!(run_checked(src, "f", &[]).unwrap(), 28);
    }

    #[test]
    fn array_overflow_is_caught_at_the_exact_index() {
        let src = r#"
            int f(int n) {
                int a[8];
                int i;
                for (i = 0; i <= n; i = i + 1) { a[i] = i; }
                return a[0];
            }
            "#;
        // n=7 is fine; n=8 writes a[8] — one past the end.
        assert_eq!(run_checked(src, "f", &[7]).unwrap(), 0);
        let err = run_checked(src, "f", &[8]).unwrap_err();
        let InterpError::Check(v) = err else { panic!("expected check, got {err:?}") };
        assert!(
            matches!(v.kind, ViolationKind::OutOfBounds | ViolationKind::DerefOob),
            "a[8] must be flagged, got {:?}",
            v.kind
        );
    }

    #[test]
    fn heap_overflow_is_caught() {
        let src = r#"
            int f() {
                int *p = malloc(32);
                p[4] = 1; // byte 32..40: past the 32-byte block
                return 0;
            }
            "#;
        let err = run_checked(src, "f", &[]).unwrap_err();
        assert!(matches!(err, InterpError::Check(_)), "got {err:?}");
    }

    #[test]
    fn use_after_free_is_caught() {
        let src = r#"
            int f() {
                int *p = malloc(64);
                p[0] = 42;
                free(p);
                return p[0];
            }
            "#;
        let err = run_checked(src, "f", &[]).unwrap_err();
        let InterpError::Check(v) = err else { panic!("{err:?}") };
        assert_eq!(v.kind, ViolationKind::UseAfterFree);
    }

    #[test]
    fn bad_free_is_caught() {
        let src = r#"
            int f() {
                int *p = malloc(64);
                int *q = p + 2;
                free(q);
                return 0;
            }
            "#;
        let err = run_checked(src, "f", &[]).unwrap_err();
        let InterpError::Check(v) = err else { panic!("{err:?}") };
        assert_eq!(v.kind, ViolationKind::BadFree);
    }

    #[test]
    fn oob_peers_allow_ptr_i_minus_j() {
        // The paper's motivating case: ptr+i goes out of bounds, ptr+i-j
        // comes back. BCC flagged it; KGCC's peers must not.
        let src = r#"
            int f(int i, int j) {
                int a[8];
                a[3] = 77;
                int *p = &a[0];
                int *tmp = p + i;   // may be far out of bounds
                int *back = tmp - j; // returns into bounds
                return *back;
            }
            "#;
        assert_eq!(run_checked(src, "f", &[100, 97]).unwrap(), 77);
        // But dereferencing while out of bounds is still a violation.
        let src = r#"
            int f(int i) {
                int a[8];
                int *p = &a[0];
                int *tmp = p + i;
                return *tmp;
            }
            "#;
        let err = run_checked(src, "f", &[100]).unwrap_err();
        let InterpError::Check(v) = err else { panic!("{err:?}") };
        assert_eq!(v.kind, ViolationKind::DerefOob);
    }

    #[test]
    fn checks_charge_cycles_and_are_counted() {
        let src = r#"
            int f() {
                int a[4];
                int i;
                for (i = 0; i < 4; i = i + 1) { a[i] = i; }
                return a[2];
            }
            "#;
        let m = machine();
        let user0 = m.clock.user_cycles();
        let (r, rep) = run_planned(&m, src, "f", &[], false, None);
        r.unwrap();
        assert!(rep.checks_executed >= 5, "4 stores + 1 load at least");
        assert_eq!(rep.violations, 0);
        assert!(
            m.clock.user_cycles() - user0 >= rep.checks_executed * CHECK_CYCLES,
            "check cost is charged"
        );
    }

    #[test]
    fn optimized_plan_executes_fewer_checks_same_result() {
        let src = r#"
            int f(int *unused) {
                int a[4];
                a[0] = 5;
                a[1] = 6;
                return a[0] + a[1] + a[0] + a[1];
            }
            "#;
        let m = machine();
        let (full, rep_full) = run_planned(&m, src, "f", &[0], false, None);
        let (opt, rep_opt) = run_planned(&m, src, "f", &[0], true, None);
        assert_eq!((full.unwrap(), opt.unwrap()), (22, 22));
        assert!(
            rep_opt.checks_executed < rep_full.checks_executed,
            "optimization must reduce executed checks: {} vs {}",
            rep_opt.checks_executed,
            rep_full.checks_executed
        );
    }
}
