//! Shared user/kernel memory: the zero-copy substrate.
//!
//! §2.3: *"The Cosy system uses two buffers for exchanging information. The
//! first is a compound buffer, where the compound is encoded. The buffer is
//! shared between the user and kernel space, so the operations that are
//! added by the user into the compound are directly available to the Cosy
//! Kernel Extension without any data copies. The second is a shared buffer
//! to facilitate zero-copying of data within system calls and between user
//! applications and the kernel."*
//!
//! A [`SharedRegion`] allocates physical frames once and maps them into
//! *both* the process's and the kernel's page tables; reads and writes from
//! either side touch the same frames, so nothing is ever copied across the
//! boundary (and no copy cycles are charged — the saving is structural, not
//! an accounting trick).

use std::sync::Arc;

use ksim::{Machine, Pfn, Pid, Pte, PteFlags, SimError, SimResult, PAGE_SIZE};

/// Base of the user-side mapping window for shared regions.
const USER_SHARED_BASE: u64 = 0x7f00_0000_0000;
/// Base of the kernel-side mapping window.
const KERN_SHARED_BASE: u64 = 0xffff_e000_0000_0000;

/// A physically shared, doubly mapped memory region.
pub struct SharedRegion {
    machine: Arc<Machine>,
    pid: Pid,
    frames: Vec<Pfn>,
    user_base: u64,
    kern_base: u64,
    len: usize,
}

impl SharedRegion {
    /// Allocate `pages` frames and map them into both address spaces.
    /// `slot` selects a distinct window so one process can hold several
    /// regions (compound buffer = slot 0, data buffer = slot 1, ...).
    pub fn new(machine: Arc<Machine>, pid: Pid, pages: usize, slot: u64) -> SimResult<Self> {
        if pages == 0 {
            return Err(SimError::Invalid("zero-page shared region"));
        }
        let asid = machine.proc_asid(pid)?;
        // 16 MiB per slot window, namespaced by pid.
        let window = (pid.0 as u64) << 32 | slot << 24;
        let user_base = USER_SHARED_BASE + window;
        let kern_base = KERN_SHARED_BASE + window;

        let mut frames = Vec::with_capacity(pages);
        for i in 0..pages {
            let pfn = machine.mem.phys.alloc_frame()?;
            frames.push(pfn);
            let pte = Pte { pfn: Some(pfn), flags: PteFlags::rw() };
            machine.mem.map_page(asid, user_base + (i * PAGE_SIZE) as u64, pte)?;
            machine
                .mem
                .map_page(machine.kernel_asid(), kern_base + (i * PAGE_SIZE) as u64, pte)?;
        }
        Ok(SharedRegion {
            machine,
            pid,
            frames,
            user_base,
            kern_base,
            len: pages * PAGE_SIZE,
        })
    }

    /// The region's base address as the user process sees it.
    pub fn user_base(&self) -> u64 {
        self.user_base
    }

    /// The region's base address as the kernel sees it.
    pub fn kern_base(&self) -> u64 {
        self.kern_base
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounds-check a `(offset, len)` reference into this region — the
    /// dynamic check the kernel extension applies to every `BufRef`.
    pub fn check_ref(&self, offset: u32, len: u32) -> SimResult<u64> {
        let end = offset as u64 + len as u64;
        if end > self.len as u64 {
            return Err(SimError::Invalid("buffer reference outside shared region"));
        }
        Ok(self.kern_base + offset as u64)
    }

    /// User-side write into the region (no boundary crossing, no copy
    /// charge — this is ordinary user memory access).
    pub fn user_write(&self, offset: usize, data: &[u8]) -> SimResult<()> {
        let asid = self.machine.proc_asid(self.pid)?;
        self.machine
            .mem
            .write_virt(asid, self.user_base + offset as u64, data)
    }

    /// User-side read from the region.
    pub fn user_read(&self, offset: usize, buf: &mut [u8]) -> SimResult<()> {
        let asid = self.machine.proc_asid(self.pid)?;
        self.machine
            .mem
            .read_virt(asid, self.user_base + offset as u64, buf)
    }

    /// Kernel-side write.
    pub fn kern_write(&self, offset: usize, data: &[u8]) -> SimResult<()> {
        self.machine
            .mem
            .write_virt(self.machine.kernel_asid(), self.kern_base + offset as u64, data)
    }

    /// Kernel-side read.
    pub fn kern_read(&self, offset: usize, buf: &mut [u8]) -> SimResult<()> {
        self.machine
            .mem
            .read_virt(self.machine.kernel_asid(), self.kern_base + offset as u64, buf)
    }

    /// Unmap both sides and free the frames.
    pub fn release(self) -> SimResult<()> {
        let asid = self.machine.proc_asid(self.pid).ok();
        for (i, pfn) in self.frames.iter().enumerate() {
            let off = (i * PAGE_SIZE) as u64;
            if let Some(asid) = asid {
                let _ = self.machine.mem.unmap_page(asid, self.user_base + off);
            }
            let _ = self
                .machine
                .mem
                .unmap_page(self.machine.kernel_asid(), self.kern_base + off);
            self.machine.mem.phys.free_frame(*pfn);
        }
        Ok(())
    }
}

impl std::fmt::Debug for SharedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRegion")
            .field("user_base", &format_args!("{:#x}", self.user_base))
            .field("kern_base", &format_args!("{:#x}", self.kern_base))
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn setup() -> (Arc<Machine>, Pid) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let pid = m.spawn_process();
        (m, pid)
    }

    #[test]
    fn both_sides_see_the_same_bytes() {
        let (m, pid) = setup();
        let r = SharedRegion::new(m.clone(), pid, 2, 0).unwrap();
        r.user_write(100, b"from-user").unwrap();
        let mut buf = [0u8; 9];
        r.kern_read(100, &mut buf).unwrap();
        assert_eq!(&buf, b"from-user");
        r.kern_write(5000, b"from-kernel").unwrap();
        let mut buf = [0u8; 11];
        r.user_read(5000, &mut buf).unwrap();
        assert_eq!(&buf, b"from-kernel");
    }

    #[test]
    fn no_copy_bytes_are_charged() {
        let (m, pid) = setup();
        let r = SharedRegion::new(m.clone(), pid, 1, 0).unwrap();
        let before = m.stats.snapshot().bytes_crossed();
        r.user_write(0, &[1u8; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        r.kern_read(0, &mut buf).unwrap();
        assert_eq!(m.stats.snapshot().bytes_crossed(), before, "shared memory crosses nothing");
    }

    #[test]
    fn slots_are_disjoint_windows() {
        let (m, pid) = setup();
        let a = SharedRegion::new(m.clone(), pid, 1, 0).unwrap();
        let b = SharedRegion::new(m.clone(), pid, 1, 1).unwrap();
        assert_ne!(a.user_base(), b.user_base());
        a.user_write(0, b"AAAA").unwrap();
        b.user_write(0, b"BBBB").unwrap();
        let mut buf = [0u8; 4];
        a.kern_read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"AAAA");
    }

    #[test]
    fn check_ref_enforces_bounds() {
        let (m, pid) = setup();
        let r = SharedRegion::new(m, pid, 1, 0).unwrap();
        assert!(r.check_ref(0, 4096).is_ok());
        assert_eq!(r.check_ref(16, 16).unwrap(), r.kern_base() + 16);
        assert!(r.check_ref(1, 4096).is_err());
        assert!(r.check_ref(4096, 1).is_err());
        assert!(r.check_ref(u32::MAX, u32::MAX).is_err());
    }

    #[test]
    fn release_frees_frames_and_unmaps() {
        let (m, pid) = setup();
        let allocated_before = m.mem.phys.allocated();
        let r = SharedRegion::new(m.clone(), pid, 3, 0).unwrap();
        assert_eq!(m.mem.phys.allocated(), allocated_before + 3);
        let user_base = r.user_base();
        r.release().unwrap();
        assert_eq!(m.mem.phys.allocated(), allocated_before);
        let mut buf = [0u8; 1];
        let asid = m.proc_asid(pid).unwrap();
        assert!(m.mem.read_virt(asid, user_base, &mut buf).is_err());
    }

    #[test]
    fn distinct_processes_get_distinct_windows() {
        let (m, pid1) = setup();
        let pid2 = m.spawn_process();
        let a = SharedRegion::new(m.clone(), pid1, 1, 0).unwrap();
        let b = SharedRegion::new(m.clone(), pid2, 1, 0).unwrap();
        assert_ne!(a.kern_base(), b.kern_base());
    }
}
