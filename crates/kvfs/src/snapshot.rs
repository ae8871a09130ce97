//! Content-level file-system snapshots for the robustness harness.
//!
//! A [`VfsSnapshot`] is the full (path, kind, content) tree of a file
//! system, captured through the ordinary [`FileSystem`] trait. The fault
//! sweep uses it to prove the transactional-compound guarantee: after a
//! failed compound rolls back, the tree must equal the pre-submit snapshot
//! **bit-exact**. Inode numbers and mtimes are deliberately excluded —
//! rollback of an unlink re-creates the file under a fresh inode, and the
//! clock diverges under injected faults; neither is user-visible state.
//!
//! Capturing walks and reads every file, so it charges simulated cycles and
//! may itself hit injection sites. Suspend the plane around captures:
//!
//! ```ignore
//! let prev = machine.faults.suspend();
//! let snap = VfsSnapshot::capture(vfs.fs().as_ref())?;
//! machine.faults.resume(prev);
//! ```

use ksim::{fnv1a, fnv1a_continue};

use crate::error::VfsResult;
use crate::fs::{FileKind, FileSystem, Ino};

/// One node of a captured tree. Directories carry empty `content`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// Absolute path, `/`-separated, root is `"/"`.
    pub path: String,
    pub kind: FileKind,
    pub content: Vec<u8>,
}

/// A full content-level snapshot, entries sorted by path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsSnapshot {
    pub entries: Vec<SnapshotEntry>,
}

impl VfsSnapshot {
    /// Walk the whole tree depth-first and record every node.
    pub fn capture(fs: &dyn FileSystem) -> VfsResult<Self> {
        let mut entries = Vec::new();
        let mut stack = vec![(fs.root(), "/".to_string())];
        while let Some((ino, path)) = stack.pop() {
            let st = fs.stat(ino)?;
            match st.kind {
                FileKind::Dir => {
                    entries.push(SnapshotEntry { path: path.clone(), kind: FileKind::Dir, content: Vec::new() });
                    for e in fs.readdir(ino)? {
                        let child = if path == "/" {
                            format!("/{}", e.name)
                        } else {
                            format!("{}/{}", path, e.name)
                        };
                        stack.push((Ino(e.ino), child));
                    }
                }
                FileKind::File => {
                    let mut content = vec![0u8; st.size as usize];
                    let n = fs.read(ino, 0, &mut content)?;
                    content.truncate(n);
                    entries.push(SnapshotEntry { path, kind: FileKind::File, content });
                }
            }
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(VfsSnapshot { entries })
    }

    /// FNV-1a over every entry; equal snapshots hash equal, and the hash is
    /// stable across processes (no host randomness), so two sweep runs can
    /// compare final states by a single number.
    pub fn hash(&self) -> u64 {
        let mut h = fnv1a(&[]);
        for e in &self.entries {
            let kind = [0xFF, (e.kind == FileKind::Dir) as u8];
            let len = (e.content.len() as u64).to_le_bytes();
            for part in [e.path.as_bytes(), &kind, &len, &e.content] {
                h = fnv1a_continue(h, part);
            }
        }
        h
    }

    /// Paths present in `self` but not `other`, and vice versa, plus paths
    /// whose content differs — for readable assertion messages.
    pub fn diff(&self, other: &VfsSnapshot) -> Vec<String> {
        let mut out = Vec::new();
        let theirs: std::collections::HashMap<&str, &SnapshotEntry> =
            other.entries.iter().map(|e| (e.path.as_str(), e)).collect();
        for e in &self.entries {
            match theirs.get(e.path.as_str()) {
                None => out.push(format!("missing in other: {}", e.path)),
                Some(o) if o.kind != e.kind => out.push(format!("kind differs: {}", e.path)),
                Some(o) if o.content != e.content => out.push(format!(
                    "content differs: {} ({} vs {} bytes)",
                    e.path,
                    e.content.len(),
                    o.content.len()
                )),
                Some(_) => {}
            }
        }
        let ours: std::collections::HashSet<&str> =
            self.entries.iter().map(|e| e.path.as_str()).collect();
        for e in &other.entries {
            if !ours.contains(e.path.as_str()) {
                out.push(format!("extra in other: {}", e.path));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDev;
    use crate::memfs::MemFs;
    use ksim::{Machine, MachineConfig};
    use std::sync::Arc;

    fn memfs() -> MemFs {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        MemFs::new(m, dev)
    }

    #[test]
    fn equal_trees_snapshot_equal() {
        let a = memfs();
        let b = memfs();
        for fs in [&a, &b] {
            let d = fs.mkdir(fs.root(), "dir").unwrap();
            let f = fs.create(d, "file").unwrap();
            fs.write(f, 0, b"same bytes").unwrap();
        }
        let sa = VfsSnapshot::capture(&a).unwrap();
        let sb = VfsSnapshot::capture(&b).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(sa.hash(), sb.hash());
        assert!(sa.diff(&sb).is_empty());
    }

    #[test]
    fn snapshot_ignores_inode_numbers() {
        // Same end state reached by different histories: inode numbers
        // differ but content snapshots must not.
        let a = memfs();
        let f = a.create(a.root(), "keep").unwrap();
        a.write(f, 0, b"v").unwrap();

        let b = memfs();
        b.create(b.root(), "tmp").unwrap();
        b.unlink(b.root(), "tmp").unwrap();
        let f = b.create(b.root(), "keep").unwrap();
        b.write(f, 0, b"v").unwrap();

        let sa = VfsSnapshot::capture(&a).unwrap();
        let sb = VfsSnapshot::capture(&b).unwrap();
        assert_eq!(sa, sb, "inode numbers must not leak into the snapshot");
    }

    #[test]
    fn content_changes_move_the_hash() {
        let fs = memfs();
        let f = fs.create(fs.root(), "f").unwrap();
        fs.write(f, 0, b"one").unwrap();
        let s1 = VfsSnapshot::capture(&fs).unwrap();
        fs.write(f, 0, b"two").unwrap();
        let s2 = VfsSnapshot::capture(&fs).unwrap();
        assert_ne!(s1, s2);
        assert_ne!(s1.hash(), s2.hash());
        assert_eq!(s2.diff(&s1), vec!["content differs: /f (3 vs 3 bytes)"]);
    }
}
