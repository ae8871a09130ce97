//! Path resolution over a mounted file system, via the dentry cache.

use std::sync::Arc;

use ksim::Machine;

use crate::dcache::DentryCache;
use crate::error::{VfsError, VfsResult};
use crate::fs::{DirEntry, FileSystem, Ino, Stat};
use crate::name::Name;

/// A mounted file system plus the dentry cache in front of it.
pub struct Vfs {
    fs: Arc<dyn FileSystem>,
    dcache: Arc<DentryCache>,
}

impl Vfs {
    pub fn new(machine: Arc<Machine>, fs: Arc<dyn FileSystem>) -> Self {
        Vfs { fs, dcache: Arc::new(DentryCache::new(machine)) }
    }

    pub fn fs(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }

    pub fn dcache(&self) -> &Arc<DentryCache> {
        &self.dcache
    }

    pub fn root(&self) -> Ino {
        self.fs.root()
    }

    fn components(path: &str) -> impl Iterator<Item = &str> {
        path.split('/').filter(|c| !c.is_empty() && *c != ".")
    }

    /// One resolution step: dcache first (on the interned name), file
    /// system on a miss, warming the dcache with the result.
    fn lookup_step(&self, cur: Ino, comp: &str) -> VfsResult<Ino> {
        let name = Name::intern(comp);
        match self.dcache.lookup_name(cur.0, name) {
            Some(ino) => Ok(Ino(ino)),
            None => {
                let ino = self.fs.lookup(cur, comp)?;
                self.dcache.insert_name(cur.0, name, ino.0);
                Ok(ino)
            }
        }
    }

    /// Resolve an absolute path to an inode, walking the dentry cache and
    /// falling back to the file system on misses.
    pub fn resolve(&self, path: &str) -> VfsResult<Ino> {
        let mut cur = self.fs.root();
        for comp in Self::components(path) {
            cur = self.lookup_step(cur, comp)?;
        }
        Ok(cur)
    }

    /// Resolve the parent directory of `path` and return it with the final
    /// component. Walks the components with one slot of lookahead instead
    /// of collecting them — path resolution allocates nothing.
    pub fn resolve_parent<'p>(&self, path: &'p str) -> VfsResult<(Ino, &'p str)> {
        let mut comps = Self::components(path);
        let mut last = comps.next().ok_or(VfsError::Invalid("empty path"))?;
        let mut cur = self.fs.root();
        for comp in comps {
            cur = self.lookup_step(cur, last)?;
            last = comp;
        }
        Ok((cur, last))
    }

    /// Create a regular file at an absolute path.
    pub fn create_path(&self, path: &str) -> VfsResult<Ino> {
        let (dir, name) = self.resolve_parent(path)?;
        let ino = self.fs.create(dir, name)?;
        self.dcache.insert(dir.0, name, ino.0);
        Ok(ino)
    }

    /// Create a directory at an absolute path.
    pub fn mkdir_path(&self, path: &str) -> VfsResult<Ino> {
        let (dir, name) = self.resolve_parent(path)?;
        let ino = self.fs.mkdir(dir, name)?;
        self.dcache.insert(dir.0, name, ino.0);
        Ok(ino)
    }

    /// Unlink the file at an absolute path.
    pub fn unlink_path(&self, path: &str) -> VfsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        self.fs.unlink(dir, name)?;
        self.dcache.remove(dir.0, name);
        Ok(())
    }

    /// Remove the directory at an absolute path.
    pub fn rmdir_path(&self, path: &str) -> VfsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        let ino = self.fs.lookup(dir, name)?;
        self.fs.rmdir(dir, name)?;
        self.dcache.remove(dir.0, name);
        self.dcache.invalidate_dir(ino.0);
        Ok(())
    }

    /// Rename across absolute paths.
    pub fn rename_path(&self, from: &str, to: &str) -> VfsResult<()> {
        let (fdir, fname) = self.resolve_parent(from)?;
        let (tdir, tname) = self.resolve_parent(to)?;
        self.fs.rename(fdir, fname, tdir, tname)?;
        self.dcache.remove(fdir.0, fname);
        self.dcache.remove(tdir.0, tname);
        Ok(())
    }

    /// Stat by path.
    pub fn stat_path(&self, path: &str) -> VfsResult<Stat> {
        let ino = self.resolve(path)?;
        self.fs.stat(ino)
    }

    /// Readdir by path.
    pub fn readdir_path(&self, path: &str) -> VfsResult<Vec<DirEntry>> {
        let ino = self.resolve(path)?;
        self.fs.readdir(ino)
    }
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs").field("fs", &self.fs.fs_name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockdev::BlockDev;
    use crate::memfs::MemFs;
    use ksim::MachineConfig;

    fn vfs() -> Vfs {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Arc::new(MemFs::new(m.clone(), dev));
        Vfs::new(m, fs)
    }

    #[test]
    fn resolve_walks_nested_paths() {
        let v = vfs();
        v.mkdir_path("/a").unwrap();
        v.mkdir_path("/a/b").unwrap();
        let f = v.create_path("/a/b/c.txt").unwrap();
        assert_eq!(v.resolve("/a/b/c.txt").unwrap(), f);
        assert_eq!(v.resolve("//a///b/./c.txt").unwrap(), f, "normalization");
        assert_eq!(v.resolve("/").unwrap(), v.root());
    }

    #[test]
    fn dcache_warms_on_repeat_lookups() {
        let v = vfs();
        v.mkdir_path("/d").unwrap();
        v.create_path("/d/f").unwrap();
        v.resolve("/d/f").unwrap();
        let h0 = v.dcache().stats().hits;
        v.resolve("/d/f").unwrap();
        v.resolve("/d/f").unwrap();
        let h1 = v.dcache().stats().hits;
        assert!(h1 >= h0 + 4, "2 components × 2 lookups should all hit");
    }

    #[test]
    fn unlink_invalidates_dcache() {
        let v = vfs();
        v.create_path("/x").unwrap();
        v.resolve("/x").unwrap();
        v.unlink_path("/x").unwrap();
        assert!(matches!(v.resolve("/x"), Err(VfsError::NotFound)));
    }

    #[test]
    fn rename_path_moves_files() {
        let v = vfs();
        v.mkdir_path("/src").unwrap();
        v.mkdir_path("/dst").unwrap();
        let f = v.create_path("/src/f").unwrap();
        v.resolve("/src/f").unwrap();
        v.rename_path("/src/f", "/dst/g").unwrap();
        assert!(v.resolve("/src/f").is_err());
        assert_eq!(v.resolve("/dst/g").unwrap(), f);
    }

    #[test]
    fn rmdir_invalidates_children() {
        let v = vfs();
        v.mkdir_path("/d").unwrap();
        let f = v.create_path("/d/f").unwrap();
        v.resolve("/d/f").unwrap();
        v.unlink_path("/d/f").unwrap();
        v.rmdir_path("/d").unwrap();
        assert!(v.resolve("/d").is_err());
        let _ = f;
    }

    #[test]
    fn resolve_parent_of_root_is_invalid() {
        let v = vfs();
        assert!(matches!(v.resolve_parent("/"), Err(VfsError::Invalid(_))));
    }

    #[test]
    fn stat_and_readdir_by_path() {
        let v = vfs();
        v.mkdir_path("/dir").unwrap();
        v.create_path("/dir/a").unwrap();
        v.create_path("/dir/b").unwrap();
        let st = v.stat_path("/dir").unwrap();
        assert_eq!(st.kind, crate::fs::FileKind::Dir);
        let names: Vec<String> =
            v.readdir_path("/dir").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
