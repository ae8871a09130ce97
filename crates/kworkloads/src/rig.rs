//! Test-bench assembly: machine + fs + syscalls (+ wrapfs, + cosy).

use std::sync::Arc;

use cosy::CosyExtension;
use kalloc::{KernelAllocator, SlabAllocator};
use ksim::{CostModel, Machine, MachineConfig, Pid};
use ksyscall::SyscallLayer;
use kvfs::{BlockDev, FileSystem, MemFs, Vfs, WrapFs};

/// A fully assembled simulated system.
pub struct Rig {
    pub machine: Arc<Machine>,
    pub dev: Arc<BlockDev>,
    pub vfs: Arc<Vfs>,
    pub sys: Arc<SyscallLayer>,
    /// Present when the mount includes the Wrapfs layer.
    pub wrapfs: Option<Arc<WrapFs>>,
    /// Present when the root is kjfs: the concrete handle, for journal
    /// stats, checkpoint control, and crash hooks.
    pub kjfs: Option<Arc<kjfs::Kjfs>>,
    /// The Cosy kernel extension (always loaded; costs nothing unused).
    pub cosy: Arc<CosyExtension>,
}

impl Rig {
    /// MemFs mounted directly (the Ext2/Ext3 stand-in).
    pub fn memfs() -> Rig {
        Self::build(CostModel::default(), None)
    }

    /// MemFs with a custom cost model.
    pub fn memfs_with_cost(cost: CostModel) -> Rig {
        Self::build(cost, None)
    }

    /// The journaled on-disk file system mounted as the root: every write
    /// goes through kjfs's page cache and write-ahead journal, and `fsync`
    /// is a real durability barrier instead of a no-op.
    pub fn kjfs() -> Rig {
        Self::kjfs_with(kjfs::KjfsConfig::default())
    }

    /// kjfs with an explicit configuration — journal mode, checkpoint lag,
    /// page-cache capacity. The concrete fs handle lands in `rig.kjfs`.
    pub fn kjfs_with(cfg: kjfs::KjfsConfig) -> Rig {
        let machine = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(machine.clone()));
        let fs = Arc::new(
            kjfs::Kjfs::mount(machine.clone(), dev.clone(), cfg).expect("mkfs on a blank device"),
        );
        let vfs = Arc::new(Vfs::new(machine.clone(), fs.clone()));
        let sys = Arc::new(SyscallLayer::new(machine.clone(), vfs.clone()));
        let cosy = Arc::new(CosyExtension::new(sys.clone()));
        Rig { machine, dev, vfs, sys, wrapfs: None, kjfs: Some(fs), cosy }
    }

    /// Wrapfs stacked over MemFs, allocating through `alloc` (pass a
    /// [`SlabAllocator`] for vanilla kmalloc, a `kefence::Kefence` for the
    /// instrumented §3.2 configuration).
    pub fn wrapfs(
        alloc_for: impl FnOnce(&Arc<Machine>) -> Arc<dyn KernelAllocator> + 'static,
    ) -> Rig {
        Self::build(CostModel::default(), Some(Box::new(alloc_for)))
    }

    /// Wrapfs over MemFs with the default slab (kmalloc) allocator.
    pub fn wrapfs_kmalloc() -> Rig {
        Self::wrapfs(|m| Arc::new(SlabAllocator::new(m.clone())))
    }

    /// Wrapfs over MemFs with Kefence-guarded allocations (the instrumented
    /// §3.2 configuration). Returns the rig and the Kefence handle for
    /// inspecting violations and statistics.
    pub fn wrapfs_kefence(
        mode: kefence::OnViolation,
        protect: kefence::Protect,
    ) -> (Rig, Arc<kefence::Kefence>) {
        use parking_lot::Mutex;
        let slot: Arc<Mutex<Option<Arc<kefence::Kefence>>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let rig = Self::wrapfs(move |m| {
            let k = kefence::Kefence::new(m.clone(), mode, protect);
            *slot2.lock() = Some(k.clone());
            k
        });
        let k = slot.lock().take().expect("kefence built during rig assembly");
        (rig, k)
    }

    #[allow(clippy::type_complexity)]
    fn build(
        cost: CostModel,
        wrap: Option<Box<dyn FnOnce(&Arc<Machine>) -> Arc<dyn KernelAllocator>>>,
    ) -> Rig {
        let machine = Arc::new(Machine::new(MachineConfig { cost, ..MachineConfig::default() }));
        let dev = Arc::new(BlockDev::new(machine.clone()));
        let lower = Arc::new(MemFs::new(machine.clone(), dev.clone()));
        let (fs, wrapfs): (Arc<dyn FileSystem>, Option<Arc<WrapFs>>) = match wrap {
            None => (lower, None),
            Some(make_alloc) => {
                let alloc = make_alloc(&machine);
                let w = Arc::new(WrapFs::new(machine.clone(), lower, alloc));
                (w.clone(), Some(w))
            }
        };
        let vfs = Arc::new(Vfs::new(machine.clone(), fs));
        let sys = Arc::new(SyscallLayer::new(machine.clone(), vfs.clone()));
        let cosy = Arc::new(CosyExtension::new(sys.clone()));
        Rig { machine, dev, vfs, sys, wrapfs, kjfs: None, cosy }
    }

    /// Spawn a process with `buf_len` bytes of scratch user memory mapped.
    pub fn user(&self, buf_len: usize) -> UserProc {
        let pid = self.machine.spawn_process();
        let buf = 0x10_0000u64;
        self.machine.map_user(pid, buf, buf_len).expect("map scratch");
        UserProc { pid, buf, buf_len }
    }
}

/// A simulated user process with a scratch buffer.
#[derive(Debug, Clone, Copy)]
pub struct UserProc {
    pub pid: Pid,
    /// Base of the scratch buffer in the process's address space.
    pub buf: u64,
    pub buf_len: usize,
}

impl UserProc {
    /// Fill the start of the scratch buffer with `data`.
    pub fn stage(&self, rig: &Rig, data: &[u8]) {
        let asid = rig.machine.proc_asid(self.pid).expect("live process");
        rig.machine.mem.write_virt(asid, self.buf, data).expect("stage");
    }

    /// Read back from the scratch buffer.
    pub fn fetch(&self, rig: &Rig, len: usize) -> Vec<u8> {
        let asid = rig.machine.proc_asid(self.pid).expect("live process");
        let mut out = vec![0u8; len];
        rig.machine.mem.read_virt(asid, self.buf, &mut out).expect("fetch");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksyscall::OpenFlags;

    #[test]
    fn memfs_rig_executes_syscalls() {
        let rig = Rig::memfs();
        let p = rig.user(1 << 16);
        p.stage(&rig, b"rig smoke test");
        let fd = rig.sys.sys_open(p.pid, "/t", OpenFlags::RDWR | OpenFlags::CREAT);
        assert!(fd >= 0);
        assert_eq!(rig.sys.sys_write(p.pid, fd as i32, p.buf, 14), 14);
        assert_eq!(rig.sys.sys_close(p.pid, fd as i32), 0);
        assert_eq!(rig.sys.k_stat("/t").unwrap().size, 14);
    }

    #[test]
    fn wrapfs_rig_stacks_and_allocates() {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        let fd = rig.sys.sys_open(p.pid, "/w", OpenFlags::RDWR | OpenFlags::CREAT);
        rig.sys.sys_write(p.pid, fd as i32, p.buf, 100);
        rig.sys.sys_close(p.pid, fd as i32);
        let w = rig.wrapfs.as_ref().unwrap();
        let allocs = w.alloc_stats().allocs;
        assert!(allocs > 0, "wrapfs allocated private data / buffers");
        assert_eq!(w.allocator().name(), "kmalloc");
    }

    /// A write through a descriptor whose file was unlinked fails before
    /// wrapfs allocates private data for the dead inode.
    #[test]
    fn wrapfs_stale_writes_allocate_nothing() {
        let rig = Rig::wrapfs_kmalloc();
        let p = rig.user(1 << 16);
        let fd = rig.sys.sys_open(p.pid, "/w", OpenFlags::RDWR | OpenFlags::CREAT) as i32;
        assert_eq!(rig.sys.sys_unlink(p.pid, "/w"), 0);
        let w = rig.wrapfs.as_ref().unwrap();
        for _ in 0..10 {
            assert_eq!(rig.sys.sys_write(p.pid, fd, p.buf, 100), -2, "ENOENT");
            let kvfs::WrapAllocStats { allocs, frees } = w.alloc_stats();
            assert_eq!(allocs - frees, 0, "private data for a dead inode");
        }
    }

    #[test]
    fn user_proc_stage_fetch_roundtrip() {
        let rig = Rig::memfs();
        let p = rig.user(4096);
        p.stage(&rig, b"xyz");
        assert_eq!(&p.fetch(&rig, 3), b"xyz");
    }
}
