//! An Ext2/Ext3-flavoured in-memory file system.
//!
//! File data lives in host memory (it is the *costs* that are simulated:
//! CPU cycles for metadata work against the system clock, and disk time via
//! [`BlockDev`]). The block-addressing scheme mirrors how Ext2 places an
//! inode's data: reads touch `(ino, block)` addresses, so sequential file
//! access is cheap and cross-file access seeks, exactly the behaviour the
//! paper's IDE-disk experiments rest on. Metadata updates are journalled:
//! every [`META_JOURNAL_BATCH`]'th update flushes one sequential journal
//! block, approximating Ext3's batched commits.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use parking_lot::RwLock;

use ksim::{Machine, PAGE_SIZE};

use crate::blockdev::{BlockAddr, BlockDev};
use crate::error::{VfsError, VfsResult};
use crate::fs::{DirEntry, FileKind, FileSystem, Ino, Stat};
use crate::namespace::{check_name, Namespace, MAX_SLOTS, ROOT};

/// CPU cost of touching an inode's metadata. kjfs charges the same
/// bookkeeping prices, so kjfs-vs-memfs deltas measure journaling and I/O.
pub const INODE_OP_COST: u64 = 350;
/// CPU cost of one directory-entry search/insert/remove.
pub const DIR_OP_COST: u64 = 420;
/// CPU cost per data block processed by read/write (page-cache management).
pub const BLOCK_CPU_COST: u64 = 150;
/// One journal flush per this many metadata updates.
pub const META_JOURNAL_BATCH: u64 = 64;

/// The in-memory file system: the shared [`Namespace`], with each inode's
/// data a byte body. Block addresses use the full inode handle as their
/// object, so a reused slot never inherits its predecessor's cached blocks.
pub struct MemFs {
    machine: Arc<Machine>,
    dev: Arc<BlockDev>,
    ns: RwLock<Namespace<Vec<u8>>>,
    /// Recycled file bodies: PostMark-style churn creates and unlinks the
    /// same-sized files millions of times; reusing the backing vectors
    /// keeps their capacity warm instead of round-tripping the allocator.
    body_pool: kalloc::ObjPool<Vec<u8>>,
    meta_updates: AtomicU64,
}

impl MemFs {
    pub fn new(machine: Arc<Machine>, dev: Arc<BlockDev>) -> Self {
        MemFs {
            machine,
            dev,
            ns: RwLock::new(Namespace::new(MAX_SLOTS)),
            body_pool: kalloc::ObjPool::new(),
            meta_updates: AtomicU64::new(0),
        }
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn charge_meta_update(&self) {
        self.machine.charge_sys(INODE_OP_COST);
        let n = self.meta_updates.fetch_add(1, Relaxed) + 1;
        if n.is_multiple_of(META_JOURNAL_BATCH) {
            // Sequential journal commit: transfer-only cost. A failed commit
            // is absorbed here — the journal retries on the next batch, so
            // metadata updates themselves stay infallible.
            let _ = self
                .dev
                .write_block(BlockAddr { obj: u64::MAX, index: n / META_JOURNAL_BATCH }, PAGE_SIZE);
        }
    }

    fn now(&self) -> u64 {
        self.machine.clock.elapsed_cycles()
    }

    /// `create` and `mkdir`. A bad name costs nothing; only `create`
    /// consults `kvfs.nospc`.
    fn new_node(&self, dir: Ino, name: &str, kind: FileKind) -> VfsResult<Ino> {
        check_name(name)?;
        self.machine.charge_sys(DIR_OP_COST);
        let mut ns = self.ns.write();
        let nospc = (kind == FileKind::File).then_some(&*self.machine.faults);
        let (ino, _) = ns.create(dir, name, kind, self.now(), nospc)?;
        if kind == FileKind::File {
            let mut body = self.body_pool.take(Vec::new);
            body.clear();
            ns.node_mut(ino).expect("just created").data = body;
        }
        drop(ns);
        // The new inode is in memory: its metadata block is hot.
        self.dev.prime_cache(BlockAddr { obj: ino.0, index: u64::MAX });
        self.charge_meta_update();
        Ok(ino)
    }
}

impl FileSystem for MemFs {
    fn root(&self) -> Ino {
        ROOT
    }

    fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(DIR_OP_COST);
        self.ns.read().lookup(dir, name)
    }

    fn create(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.new_node(dir, name, FileKind::File)
    }

    fn mkdir(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.new_node(dir, name, FileKind::Dir)
    }

    fn unlink(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(DIR_OP_COST);
        let fx = self.ns.write().remove(dir, name, FileKind::File, self.now())?;
        if let Some(body) = fx.freed {
            self.body_pool.put(body);
        }
        self.dev.evict_object(fx.inode.expect("unlink names its inode").0);
        self.charge_meta_update();
        Ok(())
    }

    fn rmdir(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(DIR_OP_COST);
        let _ = self.ns.write().remove(dir, name, FileKind::Dir, self.now())?;
        self.charge_meta_update();
        Ok(())
    }

    fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        let entries = self.ns.read().readdir(dir)?;
        // Directory data occupies blocks; reading it costs CPU per entry
        // batch plus disk for uncached dir blocks (~32 B per entry).
        let nblocks = (entries.len() * 32).div_ceil(PAGE_SIZE).max(1);
        for b in 0..nblocks {
            self.dev.read_block(BlockAddr { obj: dir.0, index: b as u64 }, PAGE_SIZE)?;
        }
        self.machine.charge_sys(DIR_OP_COST + entries.len() as u64 * 25);
        Ok(entries)
    }

    fn stat(&self, ino: Ino) -> VfsResult<Stat> {
        self.machine.charge_sys(INODE_OP_COST);
        // The inode block itself may need reading (one metadata block per
        // inode; cached after first touch).
        self.dev.read_block(BlockAddr { obj: ino.0, index: u64::MAX }, 128)?;
        let ns = self.ns.read();
        let (st, i) = ns.stat(ino)?;
        let size = match st.kind {
            FileKind::Dir => (i.entries().len() * 32).max(PAGE_SIZE),
            FileKind::File => i.data.len(),
        };
        Ok(Stat { size: size as u64, blocks: (i.data.len() as u64).div_ceil(512), ..st })
    }

    fn kind(&self, ino: Ino) -> VfsResult<FileKind> {
        Ok(self.ns.read().node(ino)?.kind())
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let ns = self.ns.read();
        let i = ns.file(ino)?;
        let len = i.data.len() as u64;
        if off >= len {
            return Ok(0);
        }
        let n = buf.len().min((len - off) as usize);
        buf[..n].copy_from_slice(&i.data[off as usize..off as usize + n]);
        drop(ns);

        let first = off / PAGE_SIZE as u64;
        let last = (off + n as u64 - 1) / PAGE_SIZE as u64;
        for b in first..=last {
            self.dev.read_block(BlockAddr { obj: ino.0, index: b }, PAGE_SIZE)?;
            self.machine.charge_sys(BLOCK_CPU_COST);
        }
        Ok(n)
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        if self.machine.faults.should_fail(kfault::sites::KVFS_NOSPC) {
            return Err(VfsError::NoSpace);
        }
        let mut ns = self.ns.write();
        let i = ns.file_mut(ino)?;
        let old_blocks = i.data.len().div_ceil(PAGE_SIZE) as u64;
        let end = off as usize + data.len();
        if i.data.len() < end {
            i.data.resize(end, 0);
        }
        i.data[off as usize..end].copy_from_slice(data);
        i.mtime = self.now();
        drop(ns);

        // Newly allocated blocks hit the disk (write-back coalesced):
        // rewriting already-written blocks stays in the page cache.
        let first = off / PAGE_SIZE as u64;
        let last = (end as u64 - 1) / PAGE_SIZE as u64;
        for b in first..=last {
            self.machine.charge_sys(BLOCK_CPU_COST);
            if b >= old_blocks {
                self.dev.write_block(BlockAddr { obj: ino.0, index: b }, PAGE_SIZE)?;
            }
        }
        self.charge_meta_update(); // size/mtime change
        Ok(data.len())
    }

    fn truncate(&self, ino: Ino, size: u64) -> VfsResult<()> {
        let mut ns = self.ns.write();
        let i = ns.file_mut(ino)?;
        i.data.resize(size as usize, 0);
        i.mtime = self.now();
        drop(ns);
        self.charge_meta_update();
        Ok(())
    }

    fn rename(&self, from_dir: Ino, from: &str, to_dir: Ino, to: &str) -> VfsResult<()> {
        self.machine.charge_sys(2 * DIR_OP_COST);
        let _ = self.ns.write().rename(from_dir, from, to_dir, to, self.now())?;
        self.charge_meta_update();
        Ok(())
    }

    fn fs_name(&self) -> &str {
        "memfs"
    }
}

impl std::fmt::Debug for MemFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemFs").field("inodes", &self.ns.read().live().count()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    pub(crate) fn memfs() -> MemFs {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        MemFs::new(m, dev)
    }

    #[test]
    fn create_lookup_roundtrip() {
        let fs = memfs();
        let root = fs.root();
        let f = fs.create(root, "hello.txt").unwrap();
        assert_eq!(fs.lookup(root, "hello.txt").unwrap(), f);
        assert!(matches!(fs.lookup(root, "nope"), Err(VfsError::NotFound)));
        assert!(matches!(fs.create(root, "hello.txt"), Err(VfsError::Exists)));
    }

    #[test]
    fn bad_names_rejected() {
        let fs = memfs();
        assert!(fs.create(fs.root(), "").is_err());
        assert!(fs.create(fs.root(), "a/b").is_err());
        assert!(fs.mkdir(fs.root(), "x/y").is_err());
    }

    #[test]
    fn write_read_roundtrip_and_sizes() {
        let fs = memfs();
        let f = fs.create(fs.root(), "data").unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(fs.write(f, 0, &payload).unwrap(), payload.len());
        let mut out = vec![0u8; payload.len()];
        assert_eq!(fs.read(f, 0, &mut out).unwrap(), payload.len());
        assert_eq!(out, payload);
        let st = fs.stat(f).unwrap();
        assert_eq!(st.size, payload.len() as u64);
        assert_eq!(st.kind, FileKind::File);
        // Partial read past EOF.
        let mut tail = vec![0u8; 100];
        assert_eq!(fs.read(f, 9_950, &mut tail).unwrap(), 50);
        assert_eq!(fs.read(f, 20_000, &mut tail).unwrap(), 0);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = memfs();
        let f = fs.create(fs.root(), "sparse").unwrap();
        fs.write(f, 100, b"xyz").unwrap();
        let mut out = vec![0xFFu8; 103];
        fs.read(f, 0, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 0));
        assert_eq!(&out[100..], b"xyz");
    }

    #[test]
    fn mkdir_and_nested_files() {
        let fs = memfs();
        let d = fs.mkdir(fs.root(), "sub").unwrap();
        let f = fs.create(d, "inner").unwrap();
        assert_eq!(fs.lookup(d, "inner").unwrap(), f);
        let st = fs.stat(d).unwrap();
        assert_eq!(st.kind, FileKind::Dir);
        // Root's nlink grew with the subdirectory.
        assert_eq!(fs.stat(fs.root()).unwrap().nlink, 3);
    }

    #[test]
    fn readdir_lists_sorted_entries() {
        let fs = memfs();
        for name in ["b", "a", "c"] {
            fs.create(fs.root(), name).unwrap();
        }
        let names: Vec<String> =
            fs.readdir(fs.root()).unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b", "c"], "BTreeMap keeps them sorted");
    }

    /// Leak check for the body pool: PostMark-style create/unlink churn
    /// must recycle one body in steady state, never accumulate them.
    #[test]
    fn body_pool_reaches_equilibrium_under_churn() {
        let fs = memfs();
        let root = fs.root();
        for i in 0..200 {
            let f = fs.create(root, "churn").unwrap();
            fs.write(f, 0, &[0u8; 512]).unwrap();
            fs.unlink(root, "churn").unwrap();
            if i == 0 {
                assert_eq!(fs.body_pool.idle(), 1, "first unlink seeds the pool");
            }
        }
        assert_eq!(fs.body_pool.idle(), 1, "churn must not accumulate bodies");
        let kalloc::PoolStats { hits, misses } = fs.body_pool.stats();
        assert_eq!(misses, 1, "only the first create allocates");
        assert_eq!(hits, 199, "every later create recycles");
    }

    #[test]
    fn unlink_removes_and_frees() {
        let fs = memfs();
        let f = fs.create(fs.root(), "gone").unwrap();
        fs.write(f, 0, b"bits").unwrap();
        fs.unlink(fs.root(), "gone").unwrap();
        assert!(fs.lookup(fs.root(), "gone").is_err());
        assert!(fs.stat(f).is_err(), "inode reclaimed at nlink 0");
        assert!(matches!(fs.unlink(fs.root(), "gone"), Err(VfsError::NotFound)));
    }

    #[test]
    fn rmdir_requires_empty_dir() {
        let fs = memfs();
        let d = fs.mkdir(fs.root(), "d").unwrap();
        fs.create(d, "f").unwrap();
        assert!(matches!(fs.rmdir(fs.root(), "d"), Err(VfsError::NotEmpty)));
        fs.unlink(d, "f").unwrap();
        fs.rmdir(fs.root(), "d").unwrap();
        assert!(fs.lookup(fs.root(), "d").is_err());
    }

    #[test]
    fn unlink_dir_and_rmdir_file_are_type_errors() {
        let fs = memfs();
        fs.mkdir(fs.root(), "d").unwrap();
        let f = fs.create(fs.root(), "f").unwrap();
        assert!(matches!(fs.unlink(fs.root(), "d"), Err(VfsError::IsADirectory)));
        assert!(matches!(fs.rmdir(fs.root(), "f"), Err(VfsError::NotADirectory)));
        assert!(matches!(fs.unlink(f, "x"), Err(VfsError::NotADirectory)), "a file has no entries");
    }

    #[test]
    fn rename_moves_between_directories() {
        let fs = memfs();
        let d1 = fs.mkdir(fs.root(), "d1").unwrap();
        let d2 = fs.mkdir(fs.root(), "d2").unwrap();
        let f = fs.create(d1, "file").unwrap();
        fs.write(f, 0, b"payload").unwrap();
        fs.rename(d1, "file", d2, "renamed").unwrap();
        assert!(fs.lookup(d1, "file").is_err());
        let f2 = fs.lookup(d2, "renamed").unwrap();
        assert_eq!(f, f2, "rename preserves the inode");
        assert!(matches!(fs.rename(d1, "file", d2, "x"), Err(VfsError::NotFound)));
    }

    #[test]
    fn truncate_grows_and_shrinks() {
        let fs = memfs();
        let f = fs.create(fs.root(), "t").unwrap();
        fs.write(f, 0, b"hello world").unwrap();
        fs.truncate(f, 5).unwrap();
        assert_eq!(fs.stat(f).unwrap().size, 5);
        fs.truncate(f, 10).unwrap();
        let mut out = vec![0xAA; 10];
        fs.read(f, 0, &mut out).unwrap();
        assert_eq!(&out[..5], b"hello");
        assert!(out[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn io_time_charged_for_file_data() {
        let fs = memfs();
        let f = fs.create(fs.root(), "big").unwrap();
        let io0 = fs.machine().clock.io_cycles();
        fs.write(f, 0, &vec![0u8; 64 * 1024]).unwrap();
        assert!(fs.machine().clock.io_cycles() > io0, "writes reach the disk");
        let io1 = fs.machine().clock.io_cycles();
        let mut buf = vec![0u8; 64 * 1024];
        fs.read(f, 0, &mut buf).unwrap();
        assert_eq!(fs.machine().clock.io_cycles(), io1, "cached read is free");
    }

    #[test]
    fn metadata_journal_batches_flushes() {
        let fs = memfs();
        let root = fs.root();
        let writes = || fs.machine().stats.disk_writes.load(std::sync::atomic::Ordering::Relaxed);
        let w0 = writes();
        for i in 0..200 {
            fs.create(root, &format!("f{i}")).unwrap();
        }
        let meta_writes = writes() - w0;
        assert!(meta_writes >= 2, "journal must flush periodically");
        assert!(meta_writes <= 5, "but far less than once per create: {meta_writes}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap as Model;

    #[derive(Debug, Clone)]
    enum Op {
        Create(u8),
        Write(u8, u16, Vec<u8>),
        Truncate(u8, u16),
        Unlink(u8),
        Rename(u8, u8),
        ReadAll(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..8).prop_map(Op::Create),
            (0u8..8, 0u16..2048, proptest::collection::vec(any::<u8>(), 0..256))
                .prop_map(|(f, off, data)| Op::Write(f, off, data)),
            (0u8..8, 0u16..4096).prop_map(|(f, sz)| Op::Truncate(f, sz)),
            (0u8..8).prop_map(Op::Unlink),
            (0u8..8, 0u8..8).prop_map(|(a, b)| Op::Rename(a, b)),
            (0u8..8).prop_map(Op::ReadAll),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// MemFs agrees with a trivial name→bytes model under arbitrary
        /// operation sequences over a flat directory of up to 8 names, and
        /// its namespace invariants hold after every op.
        #[test]
        fn matches_flat_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
            let fs = tests::memfs();
            let root = fs.root();
            let mut model: Model<String, Vec<u8>> = Model::new();
            let name = |f: u8| format!("f{f}");

            for op in ops {
                match op {
                    Op::Create(f) => {
                        let r = fs.create(root, &name(f));
                        if let std::collections::hash_map::Entry::Vacant(e) = model.entry(name(f)) {
                            prop_assert!(r.is_ok());
                            e.insert(Vec::new());
                        } else {
                            prop_assert_eq!(r.unwrap_err(), VfsError::Exists);
                        }
                    }
                    Op::Write(f, off, data) => {
                        match (fs.lookup(root, &name(f)), model.get_mut(&name(f))) {
                            (Ok(ino), Some(m)) => {
                                let n = fs.write(ino, off as u64, &data).unwrap();
                                prop_assert_eq!(n, data.len());
                                let end = off as usize + data.len();
                                if m.len() < end {
                                    m.resize(end, 0);
                                }
                                m[off as usize..end].copy_from_slice(&data);
                            }
                            (Err(e), None) => prop_assert_eq!(e, VfsError::NotFound),
                            (a, b) => prop_assert!(false, "divergence: {a:?} vs {b:?}"),
                        }
                    }
                    Op::Truncate(f, sz) => {
                        match (fs.lookup(root, &name(f)), model.get_mut(&name(f))) {
                            (Ok(ino), Some(m)) => {
                                fs.truncate(ino, sz as u64).unwrap();
                                m.resize(sz as usize, 0);
                            }
                            (Err(e), None) => prop_assert_eq!(e, VfsError::NotFound),
                            (a, b) => prop_assert!(false, "divergence: {a:?} vs {b:?}"),
                        }
                    }
                    Op::Unlink(f) => {
                        let r = fs.unlink(root, &name(f));
                        if model.remove(&name(f)).is_some() {
                            prop_assert!(r.is_ok());
                        } else {
                            prop_assert_eq!(r.unwrap_err(), VfsError::NotFound);
                        }
                    }
                    Op::Rename(a, b) => {
                        let r = fs.rename(root, &name(a), root, &name(b));
                        let src = model.contains_key(&name(a));
                        let dst = model.contains_key(&name(b));
                        if src && !dst && a != b {
                            prop_assert!(r.is_ok(), "{r:?}");
                            let v = model.remove(&name(a)).expect("checked");
                            model.insert(name(b), v);
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                    Op::ReadAll(f) => {
                        match (fs.lookup(root, &name(f)), model.get(&name(f))) {
                            (Ok(ino), Some(m)) => {
                                let st = fs.stat(ino).unwrap();
                                prop_assert_eq!(st.size as usize, m.len());
                                let mut buf = vec![0u8; m.len() + 16];
                                let n = fs.read(ino, 0, &mut buf).unwrap();
                                prop_assert_eq!(n, m.len());
                                prop_assert_eq!(&buf[..n], &m[..]);
                            }
                            (Err(e), None) => prop_assert_eq!(e, VfsError::NotFound),
                            (a, b) => prop_assert!(false, "divergence: {a:?} vs {b:?}"),
                        }
                    }
                }
                // Directory listing always matches the model's key set.
                let mut listed: Vec<String> =
                    fs.readdir(root).unwrap().into_iter().map(|e| e.name).collect();
                listed.sort();
                let mut expect: Vec<String> = model.keys().cloned().collect();
                expect.sort();
                prop_assert_eq!(listed, expect);
                prop_assert_eq!(fs.ns.read().check(), Vec::<String>::new());
            }
        }

        /// Recycled file bodies are observationally identical to fresh
        /// allocations. One randomized op sequence runs twice against the
        /// same fs: the first pass allocates every body fresh (cold pool),
        /// an unlink sweep between passes returns the bodies, and the
        /// second pass re-runs the sequence on recycled vectors. Result
        /// traces (errnos, byte counts, read contents) and simulated cycle
        /// totals — under the free cost model, so host-side cache warmth
        /// cannot leak into charges — must match exactly.
        #[test]
        fn pooled_bodies_match_fresh_allocation(
            ops in proptest::collection::vec(arb_op(), 1..60)
        ) {
            let m = Arc::new(Machine::new(ksim::MachineConfig::small_free()));
            let dev = Arc::new(BlockDev::new(m.clone()));
            let fs = MemFs::new(m.clone(), dev);
            let root = fs.root();
            let name = |f: u8| format!("f{f}");
            let cycles = |m: &Machine| {
                m.clock.user_cycles() + m.clock.sys_cycles() + m.clock.io_cycles()
            };
            // Inode generations differ between passes; record
            // only whether each op succeeded, its errno, and read bytes.
            let run_pass = |trace: &mut Vec<String>| {
                for op in &ops {
                    match op {
                        Op::Create(f) => {
                            trace.push(format!("create {:?}", fs.create(root, &name(*f)).map(|_| ())));
                        }
                        Op::Write(f, off, data) => {
                            let r = fs
                                .lookup(root, &name(*f))
                                .and_then(|ino| fs.write(ino, *off as u64, data));
                            trace.push(format!("write {r:?}"));
                        }
                        Op::Truncate(f, sz) => {
                            let r = fs
                                .lookup(root, &name(*f))
                                .and_then(|ino| fs.truncate(ino, *sz as u64));
                            trace.push(format!("truncate {r:?}"));
                        }
                        Op::Unlink(f) => {
                            trace.push(format!("unlink {:?}", fs.unlink(root, &name(*f))));
                        }
                        Op::Rename(a, b) => {
                            let r = fs.rename(root, &name(*a), root, &name(*b));
                            trace.push(format!("rename {r:?}"));
                        }
                        Op::ReadAll(f) => {
                            let r = fs.lookup(root, &name(*f)).and_then(|ino| {
                                let size = fs.stat(ino)?.size as usize;
                                let mut buf = vec![0u8; size];
                                let n = fs.read(ino, 0, &mut buf)?;
                                buf.truncate(n);
                                Ok(buf)
                            });
                            trace.push(format!("read {r:?}"));
                        }
                    }
                }
            };
            let sweep = |fs: &MemFs| {
                for e in fs.readdir(root).unwrap() {
                    fs.unlink(root, &e.name).unwrap();
                }
            };

            let c0 = cycles(&m);
            let mut cold = Vec::new();
            run_pass(&mut cold);
            let c1 = cycles(&m);
            sweep(&fs); // every surviving body returns to the pool
            let hits_before = fs.body_pool.stats().hits;
            let c2 = cycles(&m);
            let mut warm = Vec::new();
            run_pass(&mut warm);
            let c3 = cycles(&m);

            prop_assert_eq!(&cold, &warm, "recycled bodies changed observable behavior");
            prop_assert_eq!(c1 - c0, c3 - c2, "recycled bodies changed cycle charges");
            // The comparison is only meaningful if the warm pass really
            // exercised the recycle path: every create ever done put one
            // body in the pool (create→take, unlink→put), so each warm
            // create must be a pool hit.
            let warm_creates =
                warm.iter().filter(|t| t.as_str() == "create Ok(())").count() as u64;
            let hits_after = fs.body_pool.stats().hits;
            prop_assert_eq!(hits_after - hits_before, warm_creates);
        }
    }
}
