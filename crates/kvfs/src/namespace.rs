//! The one namespace memfs and kjfs share: the directory tree, each
//! inode's kind, link count, mode, mtime and generation, slot allocation,
//! name validation, and the errno rules of the tree operations (DESIGN.md
//! has the errno table). A file system holds it under its own lock, keeps
//! its per-inode state in [`Node::data`], and turns the [`Effects`] an op
//! returns into its own bookkeeping. An [`Ino`] carries its slot's
//! generation, bumped when the slot is freed, so a handle held across an
//! unlink gets `ENOENT` instead of reaching the slot's next inode.

use std::collections::BTreeMap;

use kfault::FaultPlane;

use crate::error::{VfsError, VfsResult};
use crate::fs::{DirEntry, FileKind, Ino, Stat};

/// The root directory's slot; slot 0 is never issued.
pub const ROOT_SLOT: u64 = 1;
/// The root's handle: the root is never removed, so its generation stays 0.
pub const ROOT: Ino = Ino::new(ROOT_SLOT, 0);
/// Slots fit the low 32 bits of an [`Ino`]; no capacity goes past this.
pub const MAX_SLOTS: u64 = 1 << 32;

/// The rule for a name being created: non-empty, no `/`.
pub(crate) fn check_name(name: &str) -> VfsResult<()> {
    if name.is_empty() || name.contains('/') {
        return Err(VfsError::Invalid("bad file name"));
    }
    Ok(())
}

/// One live inode: the attributes the namespace decides, plus the file
/// system's own `data`.
#[derive(Debug)]
pub struct Node<T> {
    kind: FileKind,
    nlink: u32,
    mode: u32,
    /// Modification time in simulated cycles. Tree operations set their
    /// parents'; a file system sets it on data writes.
    pub mtime: u64,
    /// Name → child slot; empty for a file.
    entries: BTreeMap<String, u64>,
    pub data: T,
}

impl<T> Node<T> {
    /// A node as a file system stored it (mount-time restore).
    pub fn new(kind: FileKind, nlink: u32, mode: u32, mtime: u64, data: T) -> Self {
        Node { kind, nlink, mode, mtime, entries: BTreeMap::new(), data }
    }

    pub fn kind(&self) -> FileKind {
        self.kind
    }

    pub fn nlink(&self) -> u32 {
        self.nlink
    }

    pub fn mode(&self) -> u32 {
        self.mode
    }

    /// A directory's entries, name → child slot, in name order.
    pub fn entries(&self) -> &BTreeMap<String, u64> {
        &self.entries
    }
}

/// The type errno of using a `have` where a `want` is needed.
fn want(have: FileKind, want: FileKind) -> VfsResult<()> {
    match (want, have) {
        (FileKind::File, FileKind::Dir) => Err(VfsError::IsADirectory),
        (FileKind::Dir, FileKind::File) => Err(VfsError::NotADirectory),
        _ => Ok(()),
    }
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    node: Option<Node<T>>,
}

/// What one tree operation changed.
#[derive(Debug)]
#[must_use]
pub struct Effects<T> {
    /// The changed directories' slots: the parent twice, or a rename's
    /// source and target.
    pub dirs: [u64; 2],
    /// The inode created or removed, as the handle it had.
    pub inode: Option<Ino>,
    /// The data of the removed inode, whose slot is now free.
    pub freed: Option<T>,
    /// A never-used slot was taken: [`Namespace::next_slot`] moved.
    pub grew: bool,
}

/// The tree, its slot table and its rules. See the module docs. The
/// default is an empty table, not even a root: a placeholder until a
/// mount fills it with [`Namespace::new`] or [`Namespace::restore`].
#[derive(Debug, Default)]
pub struct Namespace<T> {
    /// Indexed by slot; `slots[0]` is a placeholder that is never issued.
    slots: Vec<Slot<T>>,
    /// Freed slots, reused last-freed first.
    free: Vec<u64>,
    /// Slots are issued below `capacity` only.
    capacity: u64,
}

impl<T: Default> Namespace<T> {
    /// A fresh tree holding only the root directory; slots are issued
    /// below `capacity`.
    pub fn new(capacity: u64) -> Self {
        let mut ns = Namespace { capacity: capacity.min(MAX_SLOTS), ..Namespace::default() };
        ns.put(ROOT_SLOT, Node::new(FileKind::Dir, 2, 0o755, 0, T::default()));
        ns
    }

    /// Create a file or directory `name` in `dir`. With `nospc`, its
    /// `kvfs.nospc` site is consulted once the name is known to be free,
    /// before a slot is taken.
    pub fn create(
        &mut self,
        dir: Ino,
        name: &str,
        kind: FileKind,
        now: u64,
        nospc: Option<&FaultPlane>,
    ) -> VfsResult<(Ino, Effects<T>)> {
        check_name(name)?;
        if self.dir(dir)?.entries.contains_key(name) {
            return Err(VfsError::Exists);
        }
        if nospc.is_some_and(|f| f.should_fail(kfault::sites::KVFS_NOSPC)) {
            return Err(VfsError::NoSpace);
        }
        let (slot, grew) = match self.free.pop() {
            Some(slot) => (slot, false),
            None if self.next_slot() < self.capacity => (self.next_slot(), true),
            None => return Err(VfsError::NoSpace),
        };
        let (nlink, mode) = if kind == FileKind::Dir { (2, 0o755) } else { (1, 0o644) };
        let ino = self.put(slot, Node::new(kind, nlink, mode, now, T::default()));
        self.edit_dir(dir, name, Some(slot), kind, now);
        let d = dir.slot();
        Ok((ino, Effects { dirs: [d, d], inode: Some(ino), freed: None, grew }))
    }

    /// Rebuild a tree from stored nodes (generation 0 each). `next` is the
    /// stored high-water slot: every empty slot below it goes on the free
    /// list, lowest reused first. Entries follow via [`Self::restore_entry`].
    pub fn restore(capacity: u64, next: u64, nodes: Vec<(u64, Node<T>)>) -> Self {
        let mut ns = Namespace { capacity: capacity.min(MAX_SLOTS), ..Namespace::default() };
        for (slot, node) in nodes {
            ns.put(slot, node);
        }
        ns.grow_to(next as usize);
        ns.free = (1..next).rev().filter(|&s| ns.slot(s).is_none()).collect();
        ns
    }
}

impl<T> Namespace<T> {
    /// Link stored entry `name` → `child` into directory slot `dir`;
    /// returns the child's kind.
    pub fn restore_entry(&mut self, dir: u64, name: String, child: u64) -> VfsResult<FileKind> {
        let kind = self.slot(child).ok_or(VfsError::Invalid("entry names a free inode"))?.kind;
        let d = self.slot_mut(dir).filter(|d| d.kind == FileKind::Dir);
        d.ok_or(VfsError::Invalid("entry in a non-directory"))?.entries.insert(name, child);
        Ok(kind)
    }

    fn grow_to(&mut self, len: usize) {
        if self.slots.len() < len {
            self.slots.resize_with(len, || Slot { generation: 0, node: None });
        }
    }

    fn put(&mut self, slot: u64, node: Node<T>) -> Ino {
        self.grow_to(slot as usize + 1);
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.node.is_none(), "slot {slot} already live");
        s.node = Some(node);
        Ino::new(slot, s.generation)
    }

    /// Point `dir`'s `name` at `child`, or drop it; stamp `dir`'s mtime,
    /// and count the `..` link of a `kind` Dir child in or out.
    fn edit_dir(&mut self, dir: Ino, name: &str, child: Option<u64>, kind: FileKind, now: u64) {
        let d = self.node_mut(dir).expect("checked by the caller");
        let linked = match child {
            Some(slot) => d.entries.insert(name.to_string(), slot).is_none(),
            None => d.entries.remove(name).is_some(),
        };
        debug_assert!(linked, "the caller checked {name:?}");
        if kind == FileKind::Dir {
            d.nlink = if child.is_some() { d.nlink + 1 } else { d.nlink - 1 };
        }
        d.mtime = now;
    }

    /// One past the highest slot ever issued.
    pub fn next_slot(&self) -> u64 {
        (self.slots.len() as u64).max(ROOT_SLOT + 1)
    }

    /// The live node in `slot`, whatever its generation (a file system's
    /// own slot-keyed state: its inode table, its page cache).
    pub fn slot(&self, slot: u64) -> Option<&Node<T>> {
        self.slots.get(slot as usize)?.node.as_ref()
    }

    pub fn slot_mut(&mut self, slot: u64) -> Option<&mut Node<T>> {
        self.slots.get_mut(slot as usize)?.node.as_mut()
    }

    /// The current handle of a live slot.
    fn ino_of(&self, slot: u64) -> Ino {
        Ino::new(slot, self.slots[slot as usize].generation)
    }

    /// Every live node with its slot, in slot order.
    pub fn live(&self) -> impl Iterator<Item = (u64, &Node<T>)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| Some((i as u64, s.node.as_ref()?)))
    }

    /// The handle check: the node `ino` names, or `ENOENT` if the handle
    /// is stale or was never issued.
    pub fn node(&self, ino: Ino) -> VfsResult<&Node<T>> {
        let s = self.slots.get(ino.slot() as usize).filter(|s| s.generation == ino.generation());
        s.and_then(|s| s.node.as_ref()).ok_or(VfsError::NotFound)
    }

    pub fn node_mut(&mut self, ino: Ino) -> VfsResult<&mut Node<T>> {
        let s = self.slots.get_mut(ino.slot() as usize);
        let s = s.filter(|s| s.generation == ino.generation());
        s.and_then(|s| s.node.as_mut()).ok_or(VfsError::NotFound)
    }

    /// `ino`'s attributes, size and block count 0: its file system fills
    /// them in from the node it gets back.
    pub fn stat(&self, ino: Ino) -> VfsResult<(Stat, &Node<T>)> {
        let n = self.node(ino)?;
        let (kind, nlink, mode, mtime) = (n.kind, n.nlink, n.mode, n.mtime);
        let st = Stat { ino: ino.0, kind, size: 0, nlink, mode, uid: 0, gid: 0, blocks: 0, mtime };
        Ok((st, n))
    }

    /// The handle check for a data operation: a directory is `EISDIR`.
    pub fn file(&self, ino: Ino) -> VfsResult<&Node<T>> {
        self.node(ino).and_then(|n| want(n.kind, FileKind::File).map(|()| n))
    }

    pub fn file_mut(&mut self, ino: Ino) -> VfsResult<&mut Node<T>> {
        self.node_mut(ino).and_then(|n| want(n.kind, FileKind::File).map(|()| n))
    }

    /// The handle check for a directory argument: a file is `ENOTDIR`.
    fn dir(&self, dir: Ino) -> VfsResult<&Node<T>> {
        self.node(dir).and_then(|n| want(n.kind, FileKind::Dir).map(|()| n))
    }

    /// The slot `name` names in `dir`, and that slot's node.
    fn child(&self, dir: Ino, name: &str) -> VfsResult<(u64, &Node<T>)> {
        let slot = *self.dir(dir)?.entries.get(name).ok_or(VfsError::NotFound)?;
        Ok((slot, self.slot(slot).expect("entries name live slots")))
    }

    pub fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.child(dir, name).map(|(slot, _)| self.ino_of(slot))
    }

    /// List `dir`, in name order.
    pub fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        let entries = &self.dir(dir)?.entries;
        let entry = |(name, &slot): (&String, &u64)| DirEntry {
            name: name.clone(),
            ino: self.ino_of(slot).0,
            kind: self.slot(slot).expect("entries name live slots").kind,
        };
        Ok(entries.iter().map(entry).collect())
    }

    /// Remove `name` from `dir`: a file for `unlink` (`kind` File), an
    /// empty directory for `rmdir` (`kind` Dir). Without hard links that
    /// drops the last link, so the inode's slot is freed.
    pub fn remove(
        &mut self,
        dir: Ino,
        name: &str,
        kind: FileKind,
        now: u64,
    ) -> VfsResult<Effects<T>> {
        let (slot, target) = self.child(dir, name)?;
        want(target.kind, kind)?;
        if !target.entries.is_empty() {
            return Err(VfsError::NotEmpty);
        }
        let ino = self.ino_of(slot);
        self.edit_dir(dir, name, None, kind, now);
        let s = &mut self.slots[slot as usize];
        let node = s.node.take().expect("live");
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        let (d, freed) = (dir.slot(), Some(node.data));
        Ok(Effects { dirs: [d, d], inode: Some(ino), freed, grew: false })
    }

    /// Move `from_dir/from` to `to_dir/to`.
    pub fn rename(
        &mut self,
        from_dir: Ino,
        from: &str,
        to_dir: Ino,
        to: &str,
        now: u64,
    ) -> VfsResult<Effects<T>> {
        check_name(to)?;
        let (slot, node) = self.child(from_dir, from)?;
        let kind = node.kind;
        if self.dir(to_dir)?.entries.contains_key(to) {
            return Err(VfsError::Exists);
        }
        if kind == FileKind::Dir && self.subtree_contains(slot, to_dir.slot()) {
            // It would cut a cycle off the tree.
            return Err(VfsError::Invalid("rename into own subtree"));
        }
        self.edit_dir(from_dir, from, None, kind, now);
        self.edit_dir(to_dir, to, Some(slot), kind, now);
        let dirs = [from_dir.slot(), to_dir.slot()];
        Ok(Effects { dirs, inode: None, freed: None, grew: false })
    }

    /// Whether directory slot `target` is `dir` or lies below it.
    fn subtree_contains(&self, dir: u64, target: u64) -> bool {
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            if d == target {
                return true;
            }
            let subdirs = self.slot(d).expect("live").entries.values();
            stack.extend(subdirs.filter(|&&c| self.slot(c).expect("live").kind == FileKind::Dir));
        }
        false
    }

    /// The tree's structural invariants; an empty vector means all hold:
    ///
    /// * the root is a live directory;
    /// * every entry names a live slot, and every live slot is reached
    ///   from the root exactly once (no orphans, no hard links);
    /// * link counts are exact: files 1, directories 2 + subdirectories;
    /// * the free list holds exactly the empty slots below
    ///   [`Self::next_slot`].
    pub fn check(&self) -> Vec<String> {
        match self.slot(ROOT_SLOT) {
            Some(r) if r.kind == FileKind::Dir => {}
            Some(_) => return vec!["root is not a directory".to_string()],
            None => return vec!["root inode missing".to_string()],
        }
        let mut v = Vec::new();
        let mut reached = vec![false; self.slots.len()];
        let mut subdirs = vec![0u32; self.slots.len()];
        reached[ROOT_SLOT as usize] = true;
        let mut queue = vec![ROOT_SLOT];
        while let Some(d) = queue.pop() {
            for (name, &child) in &self.slot(d).expect("queued slots are live").entries {
                match self.slot(child) {
                    None => v.push(format!("dangling entry {name:?} -> ino {child}")),
                    Some(_) if std::mem::replace(&mut reached[child as usize], true) => {
                        v.push(format!("ino {child} reached twice (hardlinks unsupported)"))
                    }
                    Some(c) if c.kind == FileKind::Dir => {
                        subdirs[d as usize] += 1;
                        queue.push(child);
                    }
                    Some(_) => {}
                }
            }
        }
        for (slot, n) in self.live() {
            let links = if n.kind == FileKind::Dir { 2 + subdirs[slot as usize] } else { 1 };
            if !reached[slot as usize] {
                v.push(format!("orphaned inode {slot} (nlink {})", n.nlink));
            } else if n.nlink != links {
                v.push(format!("ino {slot}: nlink {} != expected {links}", n.nlink));
            }
        }
        let mut free = self.free.clone();
        free.sort_unstable();
        let empty: Vec<u64> =
            (1..self.slots.len() as u64).filter(|&s| self.slot(s).is_none()).collect();
        if free != empty {
            v.push(format!("free list {free:?} != empty slots {empty:?}"));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace<()> {
        Namespace::new(u64::MAX)
    }

    fn mk(ns: &mut Namespace<()>, dir: Ino, name: &str, kind: FileKind) -> Ino {
        let (ino, _) = ns.create(dir, name, kind, 0, None).unwrap();
        ino
    }

    #[test]
    fn reused_slot_gets_a_new_generation() {
        let mut ns = ns();
        let root = ROOT;
        let f = mk(&mut ns, root, "f", FileKind::File);
        assert_eq!((f.slot(), f.generation()), (2, 0), "first use is the bare slot");
        let fx = ns.remove(root, "f", FileKind::File, 0).unwrap();
        assert_eq!((fx.inode, fx.freed), (Some(f), Some(())));
        let g = mk(&mut ns, root, "g", FileKind::File);
        assert_eq!((g.slot(), g.generation()), (2, 1), "LIFO reuse, next generation");
        assert_eq!(ns.node(f).err(), Some(VfsError::NotFound), "the stale handle names nothing");
        assert!(ns.node(g).is_ok());
        assert!(ns.check().is_empty(), "{:?}", ns.check());
    }

    #[test]
    fn errno_rules() {
        let mut ns = ns();
        let root = ROOT;
        let e = mk(&mut ns, root, "e", FileKind::Dir);
        let sub = mk(&mut ns, e, "sub", FileKind::Dir);
        let h = mk(&mut ns, root, "h", FileKind::File);
        let file = FileKind::File;
        let bad_name = Some(VfsError::Invalid("bad file name"));
        assert_eq!(ns.create(root, "", file, 0, None).err(), bad_name);
        assert_eq!(ns.create(root, "h", file, 0, None).err(), Some(VfsError::Exists));
        assert_eq!(ns.create(h, "x", file, 0, None).err(), Some(VfsError::NotADirectory));
        assert_eq!(ns.remove(h, "x", file, 0).err(), Some(VfsError::NotADirectory));
        assert_eq!(ns.remove(root, "e", file, 0).err(), Some(VfsError::IsADirectory));
        assert_eq!(ns.remove(root, "h", FileKind::Dir, 0).err(), Some(VfsError::NotADirectory));
        assert_eq!(ns.remove(root, "e", FileKind::Dir, 0).err(), Some(VfsError::NotEmpty));
        let cycle = Some(VfsError::Invalid("rename into own subtree"));
        assert_eq!(ns.rename(root, "e", sub, "z", 0).err(), cycle);
        assert_eq!(ns.rename(root, "e", e, "z", 0).err(), cycle);
        assert_eq!(ns.rename(root, "h", root, "e", 0).err(), Some(VfsError::Exists));
        assert_eq!(ns.lookup(root, "e"), Ok(e));
        assert!(ns.check().is_empty(), "{:?}", ns.check());
    }

    #[test]
    fn cross_parent_directory_rename_moves_the_link() {
        let mut ns = ns();
        let root = ROOT;
        let p = mk(&mut ns, root, "p", FileKind::Dir);
        let q = mk(&mut ns, root, "q", FileKind::Dir);
        mk(&mut ns, p, "d", FileKind::Dir);
        let fx = ns.rename(p, "d", q, "d", 7).unwrap();
        assert_eq!(fx.dirs, [p.slot(), q.slot()]);
        let nlink = |ino| ns.node(ino).unwrap().nlink();
        assert_eq!((nlink(p), nlink(q)), (2, 3));
        assert_eq!(ns.node(q).unwrap().mtime, 7);
        assert!(ns.check().is_empty(), "{:?}", ns.check());
    }

    #[test]
    fn capacity_bounds_fresh_slots_only() {
        let mut ns: Namespace<()> = Namespace::new(3);
        let root = ROOT;
        let (_, fx) = ns.create(root, "a", FileKind::File, 0, None).unwrap();
        assert!(fx.grew);
        assert_eq!(ns.create(root, "b", FileKind::File, 0, None).err(), Some(VfsError::NoSpace));
        let _ = ns.remove(root, "a", FileKind::File, 0).unwrap();
        let (_, fx) = ns.create(root, "b", FileKind::File, 0, None).unwrap();
        assert!(!fx.grew, "a freed slot is reused without growing");
    }

    #[test]
    fn restore_rebuilds_the_free_list_lowest_first() {
        let nodes = vec![
            (ROOT_SLOT, Node::new(FileKind::Dir, 2, 0o755, 0, ())),
            (3, Node::new(FileKind::File, 1, 0o644, 0, ())),
        ];
        let mut ns = Namespace::restore(64, 6, nodes);
        ns.restore_entry(ROOT_SLOT, "c".to_string(), 3).unwrap();
        assert!(ns.restore_entry(ROOT_SLOT, "x".to_string(), 4).is_err());
        assert!(ns.check().is_empty(), "{:?}", ns.check());
        let root = ROOT;
        let slots: Vec<u64> = (0..3)
            .map(|i| ns.create(root, &format!("n{i}"), FileKind::File, 0, None).unwrap().0.slot())
            .collect();
        assert_eq!(slots, vec![2, 4, 5]);
    }
}
