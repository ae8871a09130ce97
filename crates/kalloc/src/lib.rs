//! `kalloc` — simulated kernel memory allocators.
//!
//! Three layers, mirroring Linux circa 2.6 as the paper uses them:
//!
//! * [`varange::VaAllocator`] — kernel virtual-address range management
//!   (the `vmlist` analogue). Kefence builds directly on this to place
//!   buffers against page boundaries with guardian pages.
//! * [`slab::SlabAllocator`] — `kmalloc`/`kfree`: size-class slab caches
//!   carved out of direct-mapped page frames. This is what vanilla Wrapfs
//!   uses in the Kefence evaluation (§3.2).
//! * [`vmalloc::Vmalloc`] — page-granular `vmalloc`/`vfree`. The paper
//!   notes vanilla `vfree` walks the allocation list linearly and that they
//!   "added a hash table to store the information about virtual memory
//!   buffers" to speed it up; both lookups are implemented and compared in
//!   ablation A4.
//!
//! All three keep the same §3.2 allocation ledger, [`ledger::AllocStats`].
//!
//! Kernel virtual layout (48-bit, Linux-flavoured):
//!
//! ```text
//! DIRECT_MAP_BASE  0xffff_8880_0000_0000   1:1 frame map (kmalloc lives here)
//! VMALLOC_BASE     0xffff_c000_0000_0000   vmalloc / Kefence arena
//! ```

#![forbid(unsafe_code)]

pub mod ledger;
pub mod pool;
pub mod slab;
pub mod varange;
pub mod vmalloc;

pub use ledger::{AllocSnapshot, AllocStats};
pub use pool::{BufPool, ObjPool, PoolBuf, PoolStats};
pub use slab::SlabAllocator;
pub use varange::VaAllocator;
pub use vmalloc::{VfreeIndex, Vmalloc};

/// Base of the kernel direct map: `va = DIRECT_MAP_BASE + pfn * PAGE_SIZE`.
pub const DIRECT_MAP_BASE: u64 = 0xffff_8880_0000_0000;

/// Base of the vmalloc arena.
pub const VMALLOC_BASE: u64 = 0xffff_c000_0000_0000;

/// One past the end of the vmalloc arena (64 GiB of VA — the paper leans on
/// "modern 64-bit architectures make the address space a virtually
/// inexhaustible resource").
pub const VMALLOC_END: u64 = VMALLOC_BASE + (64 << 30);

/// A pluggable kernel allocator facade.
///
/// The paper's Kefence evaluation swaps Wrapfs's `kmalloc` calls for
/// (guarded) `vmalloc` *"in such a way that this replacement is done
/// automatically if a special compiler flag is set"*. This trait is that
/// switch point: consumers (Wrapfs, modules under test) allocate through it
/// and the experiment decides which allocator is behind it.
pub trait KernelAllocator: Send + Sync {
    /// Allocate `size` bytes of kernel memory; returns the kernel VA.
    fn alloc(&self, size: usize) -> ksim::SimResult<u64>;
    /// Free a previously allocated block.
    fn free(&self, addr: u64) -> ksim::SimResult<()>;
    /// Diagnostic name ("kmalloc", "vmalloc", "kefence", ...).
    fn name(&self) -> &str;
}

impl KernelAllocator for SlabAllocator {
    fn alloc(&self, size: usize) -> ksim::SimResult<u64> {
        self.kmalloc(size)
    }
    fn free(&self, addr: u64) -> ksim::SimResult<()> {
        self.kfree(addr)
    }
    fn name(&self) -> &str {
        "kmalloc"
    }
}

impl KernelAllocator for Vmalloc {
    fn alloc(&self, size: usize) -> ksim::SimResult<u64> {
        self.vmalloc(size)
    }
    fn free(&self, addr: u64) -> ksim::SimResult<()> {
        self.vfree(addr)
    }
    fn name(&self) -> &str {
        "vmalloc"
    }
}
