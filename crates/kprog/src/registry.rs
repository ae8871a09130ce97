//! Per-process attach registry, shared by the syscall layer.
//!
//! The hot-path contract: with nothing attached, consulting the registry
//! is **one relaxed atomic load** — the syscall fast path (pinned by
//! `ksyscall`'s exact-cycle tests) must not pay for a feature it is not
//! using. Only when the count is nonzero does the lookup take the map's
//! read lock.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use ksim::FxHashMap;
use parking_lot::RwLock;

use crate::attach::Attachment;
use crate::engine::HookClass;

/// A pid-keyed table for one hook class.
struct Slot {
    map: RwLock<FxHashMap<u32, Arc<Attachment>>>,
    count: AtomicUsize,
}

impl Slot {
    fn new() -> Self {
        Slot { map: RwLock::new(FxHashMap::default()), count: AtomicUsize::new(0) }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.count.load(Relaxed) == 0
    }

    fn get(&self, pid: u32) -> Option<Arc<Attachment>> {
        if self.is_empty() {
            return None;
        }
        self.map.read().get(&pid).cloned()
    }

    fn attach(&self, pid: u32, att: Arc<Attachment>) -> Option<Arc<Attachment>> {
        let mut m = self.map.write();
        let old = m.insert(pid, att);
        self.count.store(m.len(), Relaxed);
        old
    }

    fn detach(&self, pid: u32) -> Option<Arc<Attachment>> {
        let mut m = self.map.write();
        let old = m.remove(&pid);
        self.count.store(m.len(), Relaxed);
        old
    }
}

/// Registry for the two `ksyscall`-hosted attach points. (Event programs
/// attach directly to an [`kevents::EventDispatcher`]; see
/// [`crate::EventProgram`].)
pub struct ProgRegistry {
    syscall: Slot,
    cqe: Slot,
}

impl Default for ProgRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgRegistry {
    pub fn new() -> Self {
        ProgRegistry { syscall: Slot::new(), cqe: Slot::new() }
    }

    /// True if any process has a syscall-entry filter installed.
    #[inline]
    pub fn has_syscall_filters(&self) -> bool {
        !self.syscall.is_empty()
    }

    /// The syscall-entry filter for `pid`, if one is attached.
    #[inline]
    pub fn syscall_filter(&self, pid: u32) -> Option<Arc<Attachment>> {
        self.syscall.get(pid)
    }

    /// Install a syscall-entry filter for `pid` (replacing any previous).
    pub fn attach_syscall(
        &self,
        pid: u32,
        att: Arc<Attachment>,
    ) -> Result<Option<Arc<Attachment>>, &'static str> {
        if att.class() != HookClass::SyscallEntry {
            return Err("attachment is not a syscall-entry program");
        }
        Ok(self.syscall.attach(pid, att))
    }

    /// Remove `pid`'s syscall-entry filter.
    pub fn detach_syscall(&self, pid: u32) -> Option<Arc<Attachment>> {
        self.syscall.detach(pid)
    }

    /// The CQE program for `pid`, if one is attached.
    #[inline]
    pub fn cqe_program(&self, pid: u32) -> Option<Arc<Attachment>> {
        self.cqe.get(pid)
    }

    /// Install a per-CQE completion program for `pid`.
    pub fn attach_cqe(
        &self,
        pid: u32,
        att: Arc<Attachment>,
    ) -> Result<Option<Arc<Attachment>>, &'static str> {
        if att.class() != HookClass::UringCqe {
            return Err("attachment is not a uring-cqe program");
        }
        Ok(self.cqe.attach(pid, att))
    }

    /// Remove `pid`'s CQE program.
    pub fn detach_cqe(&self, pid: u32) -> Option<Arc<Attachment>> {
        self.cqe.detach(pid)
    }
}

impl std::fmt::Debug for ProgRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgRegistry")
            .field("syscall_filters", &self.syscall.count.load(Relaxed))
            .field("cqe_programs", &self.cqe.count.load(Relaxed))
            .finish()
    }
}
