//! The file-system interface: the contract both [`crate::MemFs`] and the
//! stackable [`crate::WrapFs`] implement, mirroring the Linux VFS object
//! operations the paper's file systems plug into.

use crate::error::VfsResult;

/// Inode handle: a slot number in the low 32 bits and the slot's
/// generation in the high 32 (see [`crate::namespace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

impl Ino {
    pub const fn new(slot: u64, generation: u32) -> Ino {
        Ino(slot | (generation as u64) << 32)
    }

    pub const fn slot(self) -> u64 {
        self.0 & 0xFFFF_FFFF
    }

    pub const fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// What an inode is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    File,
    Dir,
}

/// `struct stat` analogue: the record `stat(2)`, `fstat(2)`, and
/// `readdirplus` marshal across the user/kernel boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub ino: u64,
    pub kind: FileKind,
    pub size: u64,
    pub nlink: u32,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    /// Block count (512-byte units, like `st_blocks`).
    pub blocks: u64,
    /// Modification time in simulated cycles.
    pub mtime: u64,
}

/// The byte size of a `Stat` when copied to user space (matches
/// `sizeof(struct stat)` on 32-bit Linux 2.6: 88 bytes).
pub const STAT_WIRE_BYTES: usize = 88;

impl Stat {
    /// Marshal to the fixed-size wire format used by boundary copies.
    pub fn to_wire(&self) -> [u8; STAT_WIRE_BYTES] {
        let mut out = [0u8; STAT_WIRE_BYTES];
        out[0..8].copy_from_slice(&self.ino.to_le_bytes());
        out[8] = match self.kind {
            FileKind::File => 0,
            FileKind::Dir => 1,
        };
        out[16..24].copy_from_slice(&self.size.to_le_bytes());
        out[24..28].copy_from_slice(&self.nlink.to_le_bytes());
        out[28..32].copy_from_slice(&self.mode.to_le_bytes());
        out[32..36].copy_from_slice(&self.uid.to_le_bytes());
        out[36..40].copy_from_slice(&self.gid.to_le_bytes());
        out[40..48].copy_from_slice(&self.blocks.to_le_bytes());
        out[48..56].copy_from_slice(&self.mtime.to_le_bytes());
        out
    }

    /// Unmarshal from the wire format.
    pub fn from_wire(b: &[u8; STAT_WIRE_BYTES]) -> Self {
        Stat {
            ino: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            kind: if b[8] == 1 { FileKind::Dir } else { FileKind::File },
            size: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            nlink: u32::from_le_bytes(b[24..28].try_into().unwrap()),
            mode: u32::from_le_bytes(b[28..32].try_into().unwrap()),
            uid: u32::from_le_bytes(b[32..36].try_into().unwrap()),
            gid: u32::from_le_bytes(b[36..40].try_into().unwrap()),
            blocks: u64::from_le_bytes(b[40..48].try_into().unwrap()),
            mtime: u64::from_le_bytes(b[48..56].try_into().unwrap()),
        }
    }
}

/// One directory entry as returned by `readdir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    pub name: String,
    pub ino: u64,
    pub kind: FileKind,
}

/// Wire size of a `readdir` entry (fixed-length dirent, 256-byte name field
/// + header, like `struct dirent`).
pub const DIRENT_WIRE_BYTES: usize = 280;

/// Wire size of a packed `readdirplus` entry: 88-byte stat + 160-byte name.
pub const RDP_ENTRY_WIRE_BYTES: usize = 248;

/// The VFS operations contract.
///
/// All operations are inode-based; path walking happens above this trait in
/// [`crate::Vfs`], consulting the dentry cache.
pub trait FileSystem: Send + Sync {
    /// The root directory's inode.
    fn root(&self) -> Ino;

    /// Find `name` in directory `dir`.
    fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino>;

    /// Create a regular file.
    fn create(&self, dir: Ino, name: &str) -> VfsResult<Ino>;

    /// Create a directory.
    fn mkdir(&self, dir: Ino, name: &str) -> VfsResult<Ino>;

    /// Remove a regular file.
    fn unlink(&self, dir: Ino, name: &str) -> VfsResult<()>;

    /// Remove an empty directory.
    fn rmdir(&self, dir: Ino, name: &str) -> VfsResult<()>;

    /// List a directory.
    fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>>;

    /// Attributes of an inode.
    fn stat(&self, ino: Ino) -> VfsResult<Stat>;

    /// What `ino` is, without charging anything: the open-time type check.
    fn kind(&self, ino: Ino) -> VfsResult<FileKind>;

    /// Read up to `buf.len()` bytes at `off`; returns bytes read.
    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> VfsResult<usize>;

    /// Write `data` at `off`; returns bytes written.
    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize>;

    /// Set file size (extend with zeros or cut).
    fn truncate(&self, ino: Ino, size: u64) -> VfsResult<()>;

    /// Move/rename an entry.
    fn rename(&self, from_dir: Ino, from: &str, to_dir: Ino, to: &str) -> VfsResult<()>;

    /// Force one inode's dirty state durable: data pages, and unless
    /// `data_only` (fdatasync) its metadata too. Purely in-memory file
    /// systems are always "durable" — the default is a no-op.
    fn fsync(&self, ino: Ino, data_only: bool) -> VfsResult<()> {
        let _ = (ino, data_only);
        Ok(())
    }

    /// Flush every dirty page and commit the journal (`sync(2)` /
    /// unmount). No-op by default, like [`FileSystem::fsync`].
    fn sync(&self) -> VfsResult<()> {
        Ok(())
    }

    /// File-system type name ("memfs", "wrapfs", ...).
    fn fs_name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_wire_roundtrip() {
        let s = Stat {
            ino: 42,
            kind: FileKind::Dir,
            size: 1 << 40,
            nlink: 3,
            mode: 0o755,
            uid: 1000,
            gid: 100,
            blocks: 9,
            mtime: 123_456_789,
        };
        let w = s.to_wire();
        assert_eq!(Stat::from_wire(&w), s);
    }

    #[test]
    fn wire_sizes_match_2005_abi() {
        assert_eq!(STAT_WIRE_BYTES, 88);
        assert_eq!(DIRENT_WIRE_BYTES, 280);
        assert_eq!(RDP_ENTRY_WIRE_BYTES, 248);
    }
}
