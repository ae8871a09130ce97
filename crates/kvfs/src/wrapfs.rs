//! WrapFs — the paper's stackable pass-through file system (§3.2).
//!
//! *"Wrapfs is a wrapper file system that just redirects file system calls
//! to a lower-level file system. ... Each Wrapfs object (inode, file, etc.)
//! contains a private data field which gets dynamically allocated. In
//! addition to this, temporary page buffers and strings containing file
//! names are also allocated dynamically."*
//!
//! Those allocations flow through a pluggable [`KernelAllocator`], so the
//! Kefence experiment can run the identical workload twice: once with
//! `kmalloc` (vanilla) and once with guarded Kefence allocations
//! (instrumented). The allocated buffers are *really written* through the
//! simulated MMU — an off-by-one in [`WrapFs::set_overflow_bug`] mode lands
//! one byte past each private-data buffer, which slab kmalloc silently
//! absorbs and Kefence turns into a guard fault, reproducing the paper's
//! motivation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::Mutex;

use kalloc::KernelAllocator;
use ksim::{Machine, PAGE_SIZE};

use crate::error::VfsResult;
use crate::fs::{DirEntry, FileKind, FileSystem, Ino, Stat};

/// Size of the per-object private data field. The paper measured the
/// average Wrapfs allocation at 80 bytes.
pub const PRIVATE_DATA_BYTES: usize = 80;

/// Per-operation CPU overhead of the wrapper layer (call indirection,
/// argument fix-up).
const WRAP_OP_COST: u64 = 180;

ksim::counters! {
    /// Kernel allocations the wrapper made and released.
    struct WrapCounters => pub struct WrapAllocStats {
        allocs,
        frees,
    }
}

/// The stackable wrapper.
pub struct WrapFs {
    machine: Arc<Machine>,
    lower: Arc<dyn FileSystem>,
    alloc: Arc<dyn KernelAllocator>,
    /// ino → private-data kernel VA.
    private: Mutex<HashMap<u64, u64>>,
    overflow_bug: AtomicBool,
    counters: WrapCounters,
}

impl WrapFs {
    pub fn new(
        machine: Arc<Machine>,
        lower: Arc<dyn FileSystem>,
        alloc: Arc<dyn KernelAllocator>,
    ) -> Self {
        WrapFs {
            machine,
            lower,
            alloc,
            private: Mutex::new(HashMap::new()),
            overflow_bug: AtomicBool::new(false),
            counters: WrapCounters::default(),
        }
    }

    /// Enable the deliberate off-by-one overflow in private-data writes —
    /// the class of kernel bug Kefence exists to catch.
    pub fn set_overflow_bug(&self, on: bool) {
        self.overflow_bug.store(on, Relaxed);
    }

    /// Allocations and frees performed by the wrapper so far.
    pub fn alloc_stats(&self) -> WrapAllocStats {
        self.counters.snapshot()
    }

    pub fn allocator(&self) -> &Arc<dyn KernelAllocator> {
        &self.alloc
    }

    /// Allocate and fully initialise a buffer of `size` bytes. When `buggy`
    /// and the overflow switch is on, writes one byte past the end — the
    /// off-by-one that slab rounding absorbs silently and Kefence catches.
    fn alloc_and_fill(&self, size: usize, buggy: bool) -> VfsResult<u64> {
        let addr = self.alloc.alloc(size)?;
        self.counters.allocs.fetch_add(1, Relaxed);
        let write = if buggy && self.overflow_bug.load(Relaxed) { size + 1 } else { size };
        // Real writes through the simulated MMU: this is what trips the
        // Kefence guardian PTE when the bug is on.
        let pattern = vec![0x5A; write];
        self.machine
            .mem
            .write_virt(self.machine.kernel_asid(), addr, &pattern)?;
        Ok(addr)
    }

    fn free_buf(&self, addr: u64) -> VfsResult<()> {
        self.alloc.free(addr)?;
        self.counters.frees.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Get or create the private data attached to an inode. A stale
    /// handle fails the uncharged `kind` check before anything is
    /// allocated, so nothing is left for `teardown` to find.
    fn ensure_private(&self, ino: Ino) -> VfsResult<()> {
        if self.private.lock().contains_key(&ino.0) {
            return Ok(());
        }
        self.lower.kind(ino)?;
        let addr = self.alloc_and_fill(PRIVATE_DATA_BYTES, true)?;
        self.private.lock().insert(ino.0, addr);
        Ok(())
    }

    fn drop_private(&self, ino: Ino) -> VfsResult<()> {
        if let Some(addr) = self.private.lock().remove(&ino.0) {
            self.free_buf(addr)?;
        }
        Ok(())
    }

    /// A temporary name-string allocation around a lookup-style operation.
    fn with_name_string<R>(&self, name: &str, f: impl FnOnce() -> VfsResult<R>) -> VfsResult<R> {
        let addr = self.alloc_and_fill(name.len().max(1), false)?;
        let r = f();
        self.free_buf(addr)?;
        r
    }

    /// A temporary page buffer around a data operation.
    fn with_page_buffer<R>(&self, f: impl FnOnce() -> VfsResult<R>) -> VfsResult<R> {
        let addr = self.alloc_and_fill(PAGE_SIZE, false)?;
        let r = f();
        self.free_buf(addr)?;
        r
    }

    /// Release every remaining private-data buffer (unmount).
    pub fn teardown(&self) -> VfsResult<()> {
        let addrs: Vec<u64> = self.private.lock().drain().map(|(_, a)| a).collect();
        for a in addrs {
            self.free_buf(a)?;
        }
        Ok(())
    }
}

impl FileSystem for WrapFs {
    fn root(&self) -> Ino {
        self.lower.root()
    }

    fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.with_name_string(name, || self.lower.lookup(dir, name))
    }

    fn create(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(WRAP_OP_COST);
        let ino = self.with_name_string(name, || self.lower.create(dir, name))?;
        self.ensure_private(ino)?;
        Ok(ino)
    }

    fn mkdir(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(WRAP_OP_COST);
        let ino = self.with_name_string(name, || self.lower.mkdir(dir, name))?;
        self.ensure_private(ino)?;
        Ok(ino)
    }

    fn unlink(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        let ino = self.lower.lookup(dir, name)?;
        self.with_name_string(name, || self.lower.unlink(dir, name))?;
        self.drop_private(ino)
    }

    fn rmdir(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        let ino = self.lower.lookup(dir, name)?;
        self.with_name_string(name, || self.lower.rmdir(dir, name))?;
        self.drop_private(ino)
    }

    fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.with_page_buffer(|| self.lower.readdir(dir))
    }

    fn stat(&self, ino: Ino) -> VfsResult<Stat> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.ensure_private(ino)?;
        self.lower.stat(ino)
    }

    fn kind(&self, ino: Ino) -> VfsResult<FileKind> {
        self.lower.kind(ino)
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.ensure_private(ino)?;
        self.with_page_buffer(|| self.lower.read(ino, off, buf))
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.ensure_private(ino)?;
        self.with_page_buffer(|| self.lower.write(ino, off, data))
    }

    fn truncate(&self, ino: Ino, size: u64) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.lower.truncate(ino, size)
    }

    fn rename(&self, from_dir: Ino, from: &str, to_dir: Ino, to: &str) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.with_name_string(from, || self.lower.rename(from_dir, from, to_dir, to))
    }

    fn fsync(&self, ino: Ino, data_only: bool) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.lower.fsync(ino, data_only)
    }

    fn sync(&self) -> VfsResult<()> {
        self.machine.charge_sys(WRAP_OP_COST);
        self.lower.sync()
    }

    fn fs_name(&self) -> &str {
        "wrapfs"
    }
}

impl std::fmt::Debug for WrapFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapFs")
            .field("lower", &self.lower.fs_name())
            .field("allocator", &self.alloc.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDev;
    use crate::memfs::MemFs;
    use kalloc::SlabAllocator;
    use ksim::MachineConfig;

    fn wrapfs() -> WrapFs {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let lower = Arc::new(MemFs::new(m.clone(), dev));
        let alloc = Arc::new(SlabAllocator::new(m.clone()));
        WrapFs::new(m, lower, alloc)
    }

    #[test]
    fn passthrough_semantics_match_lower_fs() {
        let w = wrapfs();
        let root = w.root();
        let f = w.create(root, "file").unwrap();
        w.write(f, 0, b"hello wrapfs").unwrap();
        let mut buf = [0u8; 12];
        assert_eq!(w.read(f, 0, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"hello wrapfs");
        assert_eq!(w.stat(f).unwrap().size, 12);
        let d = w.mkdir(root, "dir").unwrap();
        assert_eq!(w.lookup(root, "dir").unwrap(), d);
        let names: Vec<String> =
            w.readdir(root).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["dir", "file"]);
    }

    #[test]
    fn private_data_allocated_once_per_inode_and_freed_on_unlink() {
        let w = wrapfs();
        let root = w.root();
        let f = w.create(root, "f").unwrap();
        let a0 = w.alloc_stats().allocs;
        w.write(f, 0, b"x").unwrap();
        w.write(f, 1, b"y").unwrap();
        let a1 = w.alloc_stats().allocs;
        // Two writes: two temp page buffers, but no new private data.
        assert_eq!(a1 - a0, 2);
        w.unlink(root, "f").unwrap();
        let WrapAllocStats { allocs, frees } = w.alloc_stats();
        // Everything transient freed + the private data freed.
        assert_eq!(allocs - frees, 0, "no leaks after unlink");
    }

    #[test]
    fn teardown_frees_outstanding_private_data() {
        let w = wrapfs();
        let root = w.root();
        for i in 0..10 {
            let f = w.create(root, &format!("f{i}")).unwrap();
            w.write(f, 0, b"data").unwrap();
        }
        let WrapAllocStats { allocs, frees } = w.alloc_stats();
        assert_eq!(allocs - frees, 10, "10 private-data buffers outstanding");
        w.teardown().unwrap();
        let WrapAllocStats { allocs, frees } = w.alloc_stats();
        assert_eq!(allocs, frees);
    }

    #[test]
    fn overflow_bug_is_silent_under_kmalloc() {
        // This is the paper's motivating failure mode: with slab kmalloc the
        // off-by-one write lands in rounding slack and nothing notices.
        let w = wrapfs();
        w.set_overflow_bug(true);
        let root = w.root();
        let f = w.create(root, "victim").unwrap();
        assert!(w.write(f, 0, b"payload").is_ok(), "bug goes undetected");
    }

    #[test]
    fn wrapper_charges_cpu_overhead() {
        let w = wrapfs();
        let root = w.root();
        let sys0 = w.machine.clock.sys_cycles();
        let _ = w.lookup(root, "missing");
        assert!(w.machine.clock.sys_cycles() - sys0 >= WRAP_OP_COST);
    }
}
