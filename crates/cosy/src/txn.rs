//! Compound transactions: the undo log that makes compounds all-or-nothing.
//!
//! A compound that dies half-way — watchdog kill, memory fault, injected
//! I/O error — must not leave the file system in a state no sequence of
//! complete system calls could have produced. The kernel extension records
//! an inverse operation for every mutating call *before* executing it;
//! on failure the log is applied in reverse, restoring the pre-submit
//! file-system image exactly (descriptor tables and the shared data buffer
//! are snapshotted wholesale by the caller).
//!
//! Inodes are not preserved across an undone unlink: the file is re-created
//! and receives a fresh inode number, so the log remaps stale inode
//! references in earlier entries while unwinding. Comparisons across a
//! rollback must therefore be content-level (see [`kvfs::VfsSnapshot`]),
//! which is also what user programs can observe through the syscall API.

use std::collections::HashMap;

use ksyscall::OpKind;
use kvfs::{Ino, Vfs, VfsResult};

/// One inverse operation, recorded before its forward operation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoEntry {
    /// `open(O_CREAT)` made this file; undo removes it.
    CreatedFile { path: String },
    /// `mkdir` made this directory; undo removes it (children created by
    /// later ops are undone first, so it is empty by then).
    CreatedDir { path: String },
    /// `open(O_TRUNC)` discarded this file's bytes; undo writes them back.
    RestoreContent { path: String, content: Vec<u8> },
    /// A `write` overwrote `prior` at `off` and/or grew the file past
    /// `old_size`; undo truncates back and rewrites the prior bytes.
    FileWrite { ino: Ino, old_size: u64, off: u64, prior: Vec<u8> },
    /// `unlink` removed the file; undo re-creates it with its content.
    /// The replacement gets a fresh inode, remapped over `old_ino`.
    Unlinked { path: String, old_ino: u64, content: Vec<u8> },
    /// A socket operation's effects left the machine (bytes handed to a
    /// peer, a connection consumed from a backlog). Nothing can reverse
    /// it, so rollback stops here: entries recorded *before* the barrier
    /// stay applied, and the caller reports the partial rollback.
    NetBarrier { op: OpKind },
}

/// How far a rollback got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollbackScope {
    /// Every requested entry was undone.
    Complete,
    /// The reverse walk hit a [`UndoEntry::NetBarrier`]: file-system
    /// effects from before the socket operation remain applied.
    StoppedAtBarrier,
}

/// The per-compound undo log.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<UndoEntry>,
}

impl UndoLog {
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Record an inverse operation. Call *before* the forward operation,
    /// so a partially applied forward op is still covered.
    pub fn record(&mut self, entry: UndoEntry) {
        self.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position marker for [`UndoLog::rollback_to`] — everything recorded
    /// after the mark belongs to one operation (or one retry attempt).
    pub fn mark(&self) -> usize {
        self.entries.len()
    }

    /// Undo every entry, newest first. The caller is expected to suspend
    /// the fault plane first: recovery is not an injection target.
    pub fn rollback(&mut self, vfs: &Vfs) -> VfsResult<RollbackScope> {
        self.rollback_to(0, vfs)
    }

    /// Undo entries recorded after `mark`, newest first, stopping at a
    /// [`UndoEntry::NetBarrier`] if one is reached. Applies every entry
    /// even if one fails, and reports the first failure.
    pub fn rollback_to(&mut self, mark: usize, vfs: &Vfs) -> VfsResult<RollbackScope> {
        let mut remap: HashMap<u64, u64> = HashMap::new();
        let mut first_err = None;
        while self.entries.len() > mark {
            let entry = self.entries.pop().expect("len checked above");
            if matches!(entry, UndoEntry::NetBarrier { .. }) {
                return match first_err {
                    Some(e) => Err(e),
                    None => Ok(RollbackScope::StoppedAtBarrier),
                };
            }
            if let Err(e) = Self::apply(vfs, &mut remap, entry) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(RollbackScope::Complete),
        }
    }

    fn apply(vfs: &Vfs, remap: &mut HashMap<u64, u64>, entry: UndoEntry) -> VfsResult<()> {
        match entry {
            UndoEntry::CreatedFile { path } => vfs.unlink_path(&path),
            UndoEntry::CreatedDir { path } => vfs.rmdir_path(&path),
            UndoEntry::RestoreContent { path, content } => {
                let ino = vfs.resolve(&path)?;
                vfs.fs().truncate(ino, 0)?;
                if !content.is_empty() {
                    vfs.fs().write(ino, 0, &content)?;
                }
                Ok(())
            }
            UndoEntry::FileWrite { ino, old_size, off, prior } => {
                let ino = Ino(remap.get(&ino.0).copied().unwrap_or(ino.0));
                vfs.fs().truncate(ino, old_size)?;
                if !prior.is_empty() {
                    vfs.fs().write(ino, off, &prior)?;
                }
                Ok(())
            }
            UndoEntry::Unlinked { path, old_ino, content } => {
                let ino = vfs.create_path(&path)?;
                remap.insert(old_ino, ino.0);
                if !content.is_empty() {
                    vfs.fs().write(ino, 0, &content)?;
                }
                Ok(())
            }
            // Handled in the rollback loop; kept total for safety.
            UndoEntry::NetBarrier { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{Machine, MachineConfig};
    use kvfs::{BlockDev, MemFs, VfsSnapshot};
    use std::sync::Arc;

    fn vfs() -> Vfs {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Arc::new(MemFs::new(m.clone(), dev));
        Vfs::new(m, fs)
    }

    fn content(v: &Vfs, path: &str) -> Vec<u8> {
        let ino = v.resolve(path).unwrap();
        let size = v.fs().stat(ino).unwrap().size as usize;
        let mut buf = vec![0u8; size];
        let n = v.fs().read(ino, 0, &mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn create_write_mkdir_roll_back_to_nothing() {
        let v = vfs();
        let before = VfsSnapshot::capture(v.fs().as_ref()).unwrap();

        let mut log = UndoLog::new();
        log.record(UndoEntry::CreatedDir { path: "/d".into() });
        v.mkdir_path("/d").unwrap();
        log.record(UndoEntry::CreatedFile { path: "/d/f".into() });
        let ino = v.create_path("/d/f").unwrap();
        log.record(UndoEntry::FileWrite { ino, old_size: 0, off: 0, prior: vec![] });
        v.fs().write(ino, 0, b"doomed").unwrap();

        log.rollback(&v).unwrap();
        let after = VfsSnapshot::capture(v.fs().as_ref()).unwrap();
        assert_eq!(before.hash(), after.hash(), "{:?}", before.diff(&after));
    }

    #[test]
    fn overwrite_and_extension_restore_prior_bytes() {
        let v = vfs();
        let ino = v.create_path("/f").unwrap();
        v.fs().write(ino, 0, b"original-bytes").unwrap();

        let mut log = UndoLog::new();
        // Overwrite 32 bytes at offset 3 (extending the file); the prior
        // window is the overlap with the old content: bytes 3..14.
        let mut prior = vec![0u8; 11];
        let n = v.fs().read(ino, 3, &mut prior).unwrap();
        prior.truncate(n);
        log.record(UndoEntry::FileWrite { ino, old_size: 14, off: 3, prior });
        v.fs().write(ino, 3, &[0xAA; 32]).unwrap();
        assert_eq!(v.fs().stat(ino).unwrap().size, 35);

        log.rollback(&v).unwrap();
        assert_eq!(content(&v, "/f"), b"original-bytes");
    }

    #[test]
    fn undone_unlink_remaps_inos_for_earlier_writes() {
        let v = vfs();
        let ino = v.create_path("/f").unwrap();
        v.fs().write(ino, 0, b"keep me").unwrap();

        let mut log = UndoLog::new();
        // Op 1: append, recorded against the original ino.
        log.record(UndoEntry::FileWrite { ino, old_size: 7, off: 7, prior: vec![] });
        v.fs().write(ino, 7, b" + junk").unwrap();
        // Op 2: unlink, capturing the content at unlink time.
        log.record(UndoEntry::Unlinked {
            path: "/f".into(),
            old_ino: ino.0,
            content: content_of(&v, ino),
        });
        v.unlink_path("/f").unwrap();

        log.rollback(&v).unwrap();
        // The file is back — under a new ino — with its original bytes.
        assert_eq!(content(&v, "/f"), b"keep me");
    }

    fn content_of(v: &Vfs, ino: Ino) -> Vec<u8> {
        let size = v.fs().stat(ino).unwrap().size as usize;
        let mut buf = vec![0u8; size];
        let n = v.fs().read(ino, 0, &mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    #[test]
    fn rollback_to_mark_undoes_only_the_tail() {
        let v = vfs();
        let mut log = UndoLog::new();
        log.record(UndoEntry::CreatedFile { path: "/keep".into() });
        v.create_path("/keep").unwrap();
        let mark = log.mark();
        log.record(UndoEntry::CreatedFile { path: "/drop".into() });
        v.create_path("/drop").unwrap();

        assert_eq!(log.rollback_to(mark, &v).unwrap(), RollbackScope::Complete);
        assert!(v.resolve("/keep").is_ok(), "entries before the mark survive");
        assert!(v.resolve("/drop").is_err());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn net_barrier_stops_the_reverse_walk() {
        let v = vfs();
        let mut log = UndoLog::new();
        // Pre-barrier file-system effect.
        log.record(UndoEntry::CreatedFile { path: "/pre".into() });
        v.create_path("/pre").unwrap();
        // The send: bytes left the machine.
        log.record(UndoEntry::NetBarrier { op: OpKind::Send });
        // Post-barrier effect.
        log.record(UndoEntry::CreatedFile { path: "/post".into() });
        v.create_path("/post").unwrap();

        assert_eq!(log.rollback(&v).unwrap(), RollbackScope::StoppedAtBarrier);
        assert!(v.resolve("/post").is_err(), "after the barrier: undone");
        assert!(v.resolve("/pre").is_ok(), "before the barrier: still applied");
        assert_eq!(log.len(), 1, "the pre-barrier entry stays in the log");
    }
}
