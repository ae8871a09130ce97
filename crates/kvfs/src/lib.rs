//! `kvfs` — the in-memory file-system substrate.
//!
//! The paper's evaluations all run against file systems: `readdirplus` on
//! Ext3 (§2.2), Kefence via an instrumented **Wrapfs** stacked on Ext2
//! (§3.2), the event monitor on the dentry cache under PostMark (§3.3), and
//! KGCC compiled into a file-system module (§3.4). This crate provides the
//! corresponding substrate:
//!
//! * [`blockdev::BlockDev`] — a disk cost model (seek / rotation / transfer)
//!   with sequential-access detection and a simple page cache, charged
//!   against the simulated clock's I/O bucket.
//! * [`memfs::MemFs`] — an Ext2/Ext3-flavoured in-memory file system
//!   implementing the [`fs::FileSystem`] trait.
//! * [`wrapfs::WrapFs`] — the paper's stackable pass-through layer
//!   ([FiST-style]): redirects every operation to a lower file system while
//!   allocating per-object private data, temporary page buffers, and name
//!   strings — the allocation traffic Kefence instruments.
//! * [`dcache::DentryCache`] — a name-lookup cache guarded by a single
//!   global `dcache_lock` (an instrumentable spinlock from `kevents`), the
//!   exact object instrumented in the paper's event-monitoring evaluation.
//! * [`namespace::Namespace`] — the directory tree and its errno rules,
//!   shared by memfs and kjfs: each keeps only its own per-inode data.
//! * [`vfs::Vfs`] — mount point + path resolution tying it together.
//!
//! [FiST-style]: https://www.fsl.cs.sunysb.edu/project-fist.html

#![forbid(unsafe_code)]

pub mod blockdev;
pub mod dcache;
pub mod error;
pub mod fs;
pub mod memfs;
pub mod name;
pub mod namespace;
pub mod snapshot;
pub mod vfs;
pub mod wrapfs;

pub use blockdev::{BlockAddr, BlockDev};
pub use dcache::{DcacheStats, DentryCache};
pub use error::{VfsError, VfsResult};
pub use fs::{
    DirEntry, FileKind, FileSystem, Ino, Stat, DIRENT_WIRE_BYTES, RDP_ENTRY_WIRE_BYTES,
    STAT_WIRE_BYTES,
};
pub use memfs::MemFs;
pub use name::Name;
pub use namespace::{Effects, Namespace, Node, ROOT};
pub use snapshot::{SnapshotEntry, VfsSnapshot};
pub use vfs::Vfs;
pub use wrapfs::{WrapAllocStats, WrapFs};
