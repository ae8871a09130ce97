//! The journaled file system proper.
//!
//! ## Durability model (ext3 ordered mode, plus overwrite images)
//!
//! Mutating operations update in-memory state and accumulate in one open
//! *running transaction* (like jbd2). The transaction commits on `fsync`,
//! `sync`, every [`KjfsConfig::commit_interval_ops`] operations, or under
//! page-cache pressure. The pipeline has three stages:
//!
//! 1. **Ordered data**: dirty pages of *newly allocated* blocks are written
//!    in place. Committed metadata does not reference these blocks yet, so
//!    a crash here leaves them invisible.
//! 2. **Journal commit**: images of every dirty metadata block (inode
//!    table, bitmap, directory blocks, fs header) *and of every overwritten
//!    data page* are written to the journal, sealed by a checksummed commit
//!    block. The transaction is durable from here.
//! 3. **Checkpoint**: the images are written to their home locations and
//!    the commit block is zeroed to retire the transaction — but under
//!    group commit this stage is *decoupled* from commit latency: up to
//!    [`KjfsConfig::max_live_txns`] committed transactions queue behind the
//!    running one and drain in one batch, writing only the **newest** image
//!    of every home block (hot metadata blocks journaled by several
//!    transactions checkpoint once) in coalesced extent-sized runs.
//!
//! [`JournalMode::GroupCommit`] also drops the fs lock during the
//! journal I/O of stage 2: concurrent `fsync` callers sleep on a condvar
//! and, once the in-flight commit lands, the first waiter with new dirt
//! captures *everyone's* accumulated state into one merged commit record —
//! jbd2's group commit.
//!
//! Journaling overwrite images (rather than ext3's write-in-place) is what
//! makes the crash harness's strongest invariant hold: the recovered tree
//! is always *exactly* the tree as of some committed transaction — a legal
//! prefix of the operation log — never a mix of old metadata and new data.
//!
//! Three allocator/cache rules keep physical redo sound with a pipeline:
//! * blocks freed by a transaction are **quarantined keyed by that txid** —
//!   not reallocatable until the freeing transaction *checkpoints* (not
//!   merely commits), so an ordered in-place write can never clobber a
//!   block that any committed-but-undrained transaction's images or extent
//!   trees still reference;
//! * pages are classified *new* vs *overwrite* against the last captured
//!   allocation, so pre-commit in-place writes only ever touch blocks no
//!   committed tree can see;
//! * pages whose images live only in the journal (committed, not yet
//!   checkpointed) are **pinned** in the page cache — eviction may not drop
//!   them, because their home blocks still hold stale bytes.
//!
//! Any write failure inside the journal/writeback path — injected or torn —
//! marks the file system **crashed**: every subsequent operation returns
//! `EIO`, exactly like a journal abort forcing a remount. Recovery is
//! `Kjfs::mount` on the same device: mount-time scan collects *every*
//! committed-but-unretired transaction and replays them in txid order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use kvfs::memfs::{BLOCK_CPU_COST, DIR_OP_COST, INODE_OP_COST};
use kvfs::{BlockAddr, BlockDev, DirEntry, FileKind, FileSystem, Ino, Stat, VfsError, VfsResult};
use ksim::{fnv1a, FxHashMap, FxHashSet, Machine, PAGE_SIZE};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::journal::{self, Tag, TAGS_PER_DESC};
use crate::layout::{
    dir_from_bytes, dir_to_bytes, Extent, Header, InodeRec, Superblock, BITMAP_OBJ,
    BITS_PER_BITMAP_BLOCK, DATA_OBJ, INODES_PER_BLOCK, ITABLE_OBJ, JOURNAL_OBJ, MAX_EXTENTS,
    ROOT_INO, SUPER_OBJ,
};

/// Per journal block: serialize + checksum.
pub const JOURNAL_CPU_COST: u64 = 200;
/// Entering `fsync`/`sync`: flush setup before any block I/O.
pub const FSYNC_CPU_COST: u64 = 500;
/// Blocks prefetched on detected sequential reads.
const READAHEAD: u64 = 4;

/// How the journal pipelines transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// PR 7 behavior: every commit checkpoints synchronously before it
    /// returns — at most one live transaction, ever. The baseline for the
    /// A15 bench and the equivalence proptests.
    SingleTxn,
    /// Commit writes the journal only; up to `max_live_txns` committed
    /// transactions queue and drain in one deduplicated batch. The fs lock
    /// is dropped during journal I/O so concurrent fsync waiters merge
    /// into one commit record.
    GroupCommit,
}

impl JournalMode {
    /// The name benches print for the mode.
    pub fn label(self) -> &'static str {
        match self {
            JournalMode::SingleTxn => "single-txn",
            JournalMode::GroupCommit => "group-commit",
        }
    }
}

/// Mount-time geometry and runtime policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KjfsConfig {
    /// Data-area size in blocks (bitmap bits).
    pub data_blocks: u64,
    /// Journal slots; one transaction must fit (images + descriptors + 1).
    pub journal_slots: u64,
    /// Inode table capacity.
    pub inode_capacity: u64,
    /// Auto-commit the open transaction every N mutating ops.
    pub commit_interval_ops: u64,
    /// Dirty-page ceiling before background writeback kicks in.
    pub writeback_threshold: usize,
    /// Transaction pipelining policy (geometry-independent: the same
    /// device can be remounted under any mode).
    pub journal_mode: JournalMode,
    /// Committed-but-uncheckpointed transactions allowed to queue before
    /// the next operation drains them (ignored under `SingleTxn`).
    pub max_live_txns: usize,
    /// Page-cache capacity in pages; 0 = unbounded. Only clean, unpinned
    /// pages are evicted.
    pub page_cache_capacity: usize,
}

impl Default for KjfsConfig {
    fn default() -> Self {
        KjfsConfig {
            data_blocks: 1 << 16,
            journal_slots: 256,
            inode_capacity: 8192,
            commit_interval_ops: 16,
            writeback_threshold: 64,
            journal_mode: JournalMode::GroupCommit,
            max_live_txns: 12,
            page_cache_capacity: 4096,
        }
    }
}

impl KjfsConfig {
    /// A small geometry for tests: faster journal scans at mount.
    pub fn small() -> Self {
        KjfsConfig {
            data_blocks: 4096,
            journal_slots: 64,
            inode_capacity: 512,
            commit_interval_ops: 8,
            writeback_threshold: 16,
            journal_mode: JournalMode::GroupCommit,
            max_live_txns: 3,
            page_cache_capacity: 1024,
        }
    }

    /// The same geometry under a different journal mode.
    pub fn with_mode(mut self, mode: JournalMode) -> Self {
        self.journal_mode = mode;
        self
    }
}

#[derive(Debug, Clone)]
struct Inode {
    kind: FileKind,
    nlink: u32,
    mode: u32,
    size: u64,
    mtime: u64,
    extents: Vec<Extent>,
    /// Mapped-block count as of the last committed transaction; the
    /// new-vs-overwrite boundary for the ordered-data rule.
    committed_blocks: u64,
    committed_size: u64,
}

impl Inode {
    fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len as u64).sum()
    }

    /// The inode-table record of this inode.
    fn to_rec(&self) -> InodeRec {
        InodeRec {
            kind: Some(self.kind),
            nlink: self.nlink,
            mode: self.mode,
            size: self.size,
            mtime: self.mtime,
            extents: self.extents.clone(),
        }
    }

    /// The inode a table record holds as of its last commit; `None` for a
    /// free slot.
    fn from_rec(rec: InodeRec) -> Option<Inode> {
        Some(Inode {
            kind: rec.kind?,
            nlink: rec.nlink,
            mode: rec.mode,
            size: rec.size,
            mtime: rec.mtime,
            committed_blocks: rec.extents.iter().map(|e| e.len as u64).sum(),
            committed_size: rec.size,
            extents: rec.extents,
        })
    }
}

#[derive(Debug)]
struct Page {
    bytes: Vec<u8>,
    dirty: bool,
    /// Block was not part of the committed allocation when dirtied:
    /// eligible for pre-commit ordered (in-place) writeback.
    new_alloc: bool,
    /// Txid whose journal record holds this page's newest image. Until
    /// that transaction checkpoints, the home block is stale and the page
    /// is pinned against eviction.
    committed_in: Option<u64>,
    /// Installed by readahead and not yet referenced — a later hit counts
    /// toward readahead effectiveness.
    from_readahead: bool,
}

/// A committed-but-uncheckpointed transaction queued behind the running
/// one: its images are durable in the journal but not yet at home.
struct LiveTxn {
    txid: u64,
    /// First journal seq of the record (the tail pointer for circular
    /// space accounting is the oldest live txn's `start_seq`).
    start_seq: u64,
    commit_slot: u64,
    images: Vec<(BlockAddr, Vec<u8>)>,
}

ksim::counters! {
    /// Counters surfaced for benches and tests, kept under the fs lock.
    pub struct KjfsStats {
        commits,
        journal_blocks,
        checkpoint_blocks,
        ordered_flushes,
        readahead_issued,
        /// Checkpoint drains (each retires every queued live transaction).
        checkpoints,
        /// Home writes skipped because a newer image of the same block was
        /// checkpointed in the same drain — the pipelining win.
        checkpoint_dedup_saved,
        /// Device I/Os issued by the checkpoint stage (coalesced runs).
        checkpoint_runs,
        /// Device I/Os issued by ordered writeback (coalesced runs).
        writeback_runs,
        /// fsyncs that returned durable without issuing a commit because an
        /// in-flight or completed group commit already captured their dirt.
        group_merges,
        cache_hits,
        cache_misses,
        /// Readahead-installed pages later referenced by a real read.
        readahead_hits,
        /// Clean pages dropped by page-cache capacity pressure.
        evictions,
    }
}

impl KjfsStats {
    /// Fraction of page lookups served from cache, in percent.
    pub fn hit_pct(&self) -> f64 {
        100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    /// Fraction of prefetched pages a real read later touched, in percent.
    pub fn readahead_pct(&self) -> f64 {
        100.0 * self.readahead_hits as f64 / self.readahead_issued.max(1) as f64
    }
}

#[derive(Default)]
struct Inner {
    inodes: FxHashMap<u64, Inode>,
    dirs: FxHashMap<u64, BTreeMap<String, u64>>,
    free_inos: Vec<u64>,
    next_ino: u64,
    /// One bit per data block; set = allocated.
    bitmap: Vec<u64>,
    alloc_hint: u64,
    /// Blocks freed by a transaction, keyed by the freeing txid:
    /// unallocatable until that transaction checkpoints.
    quarantine: FxHashMap<u32, u64>,

    next_txid: u64,
    next_seq: u64,
    /// Committed transactions whose images have not reached home yet.
    live_txns: VecDeque<LiveTxn>,
    /// Highest txid whose checkpoint completed (images home, retired).
    checkpointed_txid: u64,
    /// A group commit's journal I/O is in flight with the lock dropped;
    /// other committers wait on the condvar.
    committing: bool,

    pages: FxHashMap<(u64, u64), Page>,
    dirty_order: Vec<(u64, u64)>,
    dirty_count: usize,
    /// FIFO of page keys for clean-page eviction under capacity pressure.
    cache_order: VecDeque<(u64, u64)>,
    last_read: FxHashMap<u64, u64>,

    header_dirty: bool,
    dirty_itable: FxHashSet<u64>,
    dirty_bitmap: FxHashSet<u64>,
    dirty_dirs: FxHashSet<u64>,
    ops_since_commit: u64,

    crashed: bool,
    stats: KjfsStats,
}

/// Longest run of consecutive blocks merged into one device I/O by the
/// writeback, journal and checkpoint stages (one BIO's worth).
const MAX_RUN_BLOCKS: usize = 64;

/// The run rule, in one place. `blocks` are address-sorted; the run that
/// starts at `blocks[0]` is the longest prefix of blocks of one object with
/// consecutive indexes, at most [`MAX_RUN_BLOCKS`] of them. Returns the
/// run's first address, its length in blocks and its payload: the blocks'
/// images in order, each padded to one block.
fn next_run<'a, T>(
    blocks: &'a [T],
    addr: impl Fn(&T) -> BlockAddr,
    image: impl Fn(&'a T) -> &'a [u8],
) -> (BlockAddr, usize, Vec<u8>) {
    let first = addr(&blocks[0]);
    let n = blocks
        .iter()
        .take(MAX_RUN_BLOCKS)
        .zip(first.index..)
        .take_while(|&(b, index)| addr(b) == BlockAddr { obj: first.obj, index })
        .count();
    let mut data = Vec::with_capacity(n * PAGE_SIZE);
    for b in &blocks[..n] {
        let at = data.len();
        data.extend_from_slice(image(b));
        data.resize(at + PAGE_SIZE, 0);
    }
    (first, n, data)
}

/// The journaled file system. Mount with [`Kjfs::mount`]; all state shares
/// one lock (coarse, like a single-threaded jbd2 handle), so the type is
/// freely `Send + Sync`. Under [`JournalMode::GroupCommit`] the lock is
/// dropped during journal I/O and `commit_cv` serializes committers.
pub struct Kjfs {
    machine: Arc<Machine>,
    dev: Arc<BlockDev>,
    cfg: KjfsConfig,
    inner: Mutex<Inner>,
    commit_cv: Condvar,
}

fn data_addr(phys: u32) -> BlockAddr {
    BlockAddr { obj: DATA_OBJ, index: phys as u64 }
}

fn journal_addr(slot: u64) -> BlockAddr {
    BlockAddr { obj: JOURNAL_OBJ, index: slot }
}

impl Kjfs {
    /// Mount the device: mkfs on a blank device, otherwise scan the journal,
    /// replay the newest committed transaction (if any), and load the tree.
    pub fn mount(machine: Arc<Machine>, dev: Arc<BlockDev>, cfg: KjfsConfig) -> VfsResult<Kjfs> {
        let mut buf = vec![0u8; PAGE_SIZE];
        dev.read_block_bytes(BlockAddr { obj: SUPER_OBJ, index: 0 }, &mut buf)?;
        let fresh = match Superblock::from_block(&buf) {
            Some(sb) => {
                let want = Superblock {
                    data_blocks: cfg.data_blocks,
                    journal_slots: cfg.journal_slots,
                    inode_capacity: cfg.inode_capacity,
                };
                if sb != want {
                    return Err(VfsError::Invalid("kjfs geometry mismatch"));
                }
                false
            }
            None => true,
        };

        let fs = Kjfs { machine, dev, cfg, inner: Mutex::new(Inner::default()), commit_cv: Condvar::new() };
        {
            let mut g = fs.inner.lock();
            g.bitmap = vec![0u64; (fs.cfg.data_blocks as usize).div_ceil(64)];
            g.next_ino = ROOT_INO + 1;
            g.next_txid = 1;
        }

        if fresh {
            let sb = Superblock {
                data_blocks: fs.cfg.data_blocks,
                journal_slots: fs.cfg.journal_slots,
                inode_capacity: fs.cfg.inode_capacity,
            };
            fs.dev.write_run_bytes(BlockAddr { obj: SUPER_OBJ, index: 0 }, &sb.to_block())?;
            let mut g = fs.inner.lock();
            g.inodes.insert(
                ROOT_INO,
                Inode {
                    kind: FileKind::Dir,
                    nlink: 2,
                    mode: 0o755,
                    size: 0,
                    mtime: 0,
                    extents: Vec::new(),
                    committed_blocks: 0,
                    committed_size: 0,
                },
            );
            g.dirs.insert(ROOT_INO, BTreeMap::new());
            g.header_dirty = true;
            g.dirty_dirs.insert(ROOT_INO);
            let blk = ROOT_INO / INODES_PER_BLOCK;
            g.dirty_itable.insert(blk);
            // Make the empty tree itself durable: recovery from a crash
            // before the first user commit must find a valid (empty) root.
            fs.commit(&mut g)?;
        } else {
            fs.replay_and_load()?;
        }
        Ok(fs)
    }

    pub fn config(&self) -> &KjfsConfig {
        &self.cfg
    }

    pub fn stats(&self) -> KjfsStats {
        self.inner.lock().stats
    }

    /// Committed-but-uncheckpointed transactions currently queued.
    pub fn live_txns(&self) -> usize {
        self.inner.lock().live_txns.len()
    }

    /// True once a journal/writeback failure has aborted the file system;
    /// every operation returns `EIO` until a fresh [`Kjfs::mount`].
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Crash-harness hook: run a commit up to and including the journal's
    /// commit block, then power-cut *before* checkpointing. The journal
    /// holds a committed transaction that only mount-time replay can
    /// finish — the precise state `kjfs.journal.replay` faults exercise.
    pub fn commit_without_checkpoint(&self) -> VfsResult<()> {
        let mut g = self.inner.lock();
        self.commit_txn(&mut g)?;
        g.crashed = true;
        Ok(())
    }

    /// Crash-harness hook: an instant power cut — no I/O, the running
    /// transaction is simply lost. Committed-but-uncheckpointed
    /// transactions stay in the journal for mount-time replay.
    pub fn power_cut(&self) {
        self.inner.lock().crashed = true;
    }

    /// Force a full commit + checkpoint drain (bench/test hook): after
    /// this returns, the journal is empty and every image is home.
    pub fn checkpoint_now(&self) -> VfsResult<()> {
        let mut g = self.inner.lock();
        self.wait_commit(&mut g)?;
        self.commit_txn(&mut g)?;
        self.checkpoint_drain(&mut g)
    }

    fn now(&self) -> u64 {
        self.machine.clock.elapsed_cycles()
    }

    /// The one guarded block write: every journal, writeback, checkpoint
    /// and replay write is a run of consecutive blocks submitted here. First
    /// the kill site (a clean power cut — nothing lands), then one device
    /// submission, which `kvfs.blockdev.torn` can tear mid-run. Either
    /// failure aborts the file system, like a jbd2 journal abort: callers
    /// holding the fs lock go through [`Self::write_run_locked`], and the
    /// commit path, which writes with the lock dropped, marks the file
    /// system crashed once it relocks.
    fn write_run(&self, site: &'static str, addr: BlockAddr, data: &[u8]) -> VfsResult<()> {
        if self.machine.faults.should_fail(site) {
            return Err(VfsError::Io);
        }
        self.dev.write_run_bytes(addr, data)
    }

    /// [`Self::write_run`] under the fs lock: a crashed file system writes
    /// nothing, and a failed write crashes it.
    fn write_run_locked(
        &self,
        g: &mut Inner,
        site: &'static str,
        addr: BlockAddr,
        data: &[u8],
    ) -> VfsResult<()> {
        if g.crashed {
            return Err(VfsError::Io);
        }
        let res = self.write_run(site, addr, data);
        g.crashed |= res.is_err();
        res
    }

    // ---- allocator ----------------------------------------------------

    fn bit(g: &Inner, b: u64) -> bool {
        g.bitmap[(b / 64) as usize] >> (b % 64) & 1 == 1
    }

    fn set_bit(&self, g: &mut Inner, b: u64) {
        g.bitmap[(b / 64) as usize] |= 1 << (b % 64);
        g.dirty_bitmap.insert(b / BITS_PER_BITMAP_BLOCK);
    }

    fn clear_bit(&self, g: &mut Inner, b: u64) {
        g.bitmap[(b / 64) as usize] &= !(1 << (b % 64));
        g.dirty_bitmap.insert(b / BITS_PER_BITMAP_BLOCK);
    }

    fn allocatable(g: &Inner, b: u64) -> bool {
        !Self::bit(g, b) && !g.quarantine.contains_key(&(b as u32))
    }

    /// First-fit a contiguous run of up to `want` blocks (at least one).
    fn alloc_extent(&self, g: &mut Inner, want: u64) -> VfsResult<Extent> {
        let total = self.cfg.data_blocks;
        let mut b = g.alloc_hint % total;
        for _ in 0..total {
            if Self::allocatable(g, b) {
                let mut len = 1u64;
                while len < want && b + len < total && Self::allocatable(g, b + len) {
                    len += 1;
                }
                for i in b..b + len {
                    self.set_bit(g, i);
                }
                g.alloc_hint = b + len;
                return Ok(Extent { start: b as u32, len: len as u32 });
            }
            b = (b + 1) % total;
        }
        Err(VfsError::NoSpace)
    }

    fn free_extent(&self, g: &mut Inner, e: Extent) {
        // Quarantine under the *running* transaction's txid: the blocks
        // become reallocatable only when that transaction checkpoints.
        let txid = g.next_txid;
        for b in e.start as u64..e.start as u64 + e.len as u64 {
            self.clear_bit(g, b);
            g.quarantine.insert(b as u32, txid);
        }
    }

    fn phys_of(g: &Inner, ino: u64, lblock: u64) -> Option<u32> {
        let i = g.inodes.get(&ino)?;
        let mut cum = 0u64;
        for e in &i.extents {
            if lblock < cum + e.len as u64 {
                return Some(e.start + (lblock - cum) as u32);
            }
            cum += e.len as u64;
        }
        None
    }

    /// Grow `ino`'s mapping to `needed` blocks. With `materialize`, install
    /// zeroed dirty pages for every new block so reused physical blocks
    /// never leak stale bytes through a hole. Rolls back on failure.
    fn ensure_blocks(&self, g: &mut Inner, ino: u64, needed: u64, materialize: bool) -> VfsResult<()> {
        let mut mapped = g.inodes[&ino].mapped_blocks();
        if mapped >= needed {
            return Ok(());
        }
        if self.machine.faults.should_fail(kfault::sites::KVFS_NOSPC) {
            return Err(VfsError::NoSpace);
        }
        let first_new = mapped;
        let mut added: Vec<Extent> = Vec::new();
        while mapped < needed {
            match self.alloc_extent(g, needed - mapped) {
                Ok(e) => {
                    added.push(e);
                    mapped += e.len as u64;
                }
                Err(err) => {
                    for e in added {
                        for b in e.start as u64..e.start as u64 + e.len as u64 {
                            self.clear_bit(g, b);
                        }
                    }
                    return Err(err);
                }
            }
        }
        // Merge into the inode's extent list.
        let too_fragmented = {
            let i = g.inodes.get_mut(&ino).expect("inode exists");
            for e in added {
                match i.extents.last_mut() {
                    Some(last) if last.start as u64 + last.len as u64 == e.start as u64 => {
                        last.len += e.len
                    }
                    _ => i.extents.push(e),
                }
            }
            i.extents.len() > MAX_EXTENTS
        };
        if too_fragmented {
            // Undo: too fragmented for the on-disk record.
            let mut freed = Vec::new();
            {
                let i = g.inodes.get_mut(&ino).expect("inode exists");
                while i.mapped_blocks() > first_new {
                    let last = i.extents.last_mut().expect("non-empty");
                    last.len -= 1;
                    freed.push(last.start as u64 + last.len as u64);
                    if last.len == 0 {
                        i.extents.pop();
                    }
                }
            }
            for b in freed {
                g.bitmap[(b / 64) as usize] &= !(1 << (b % 64));
            }
            return Err(VfsError::NoSpace);
        }
        self.mark_inode_dirty(g, ino);
        if materialize {
            for lb in first_new..needed {
                self.install_page(g, ino, lb, vec![0u8; PAGE_SIZE], true);
            }
        }
        Ok(())
    }

    // ---- page cache ---------------------------------------------------

    /// Evict clean, unpinned pages (FIFO with a second chance for pages
    /// that cannot go) until the cache fits the configured capacity. A
    /// page is pinned while dirty, and while its newest image lives only
    /// in the journal (`committed_in` > last checkpointed txid) — its home
    /// block is stale, so dropping it would resurrect old bytes.
    fn maybe_evict(&self, g: &mut Inner) {
        let cap = self.cfg.page_cache_capacity;
        if cap == 0 || g.pages.len() < cap {
            return;
        }
        let mut attempts = g.cache_order.len();
        while g.pages.len() >= cap && attempts > 0 {
            attempts -= 1;
            let Some(key) = g.cache_order.pop_front() else { break };
            let evictable = match g.pages.get(&key) {
                None => continue, // invalidated or already evicted: stale entry
                Some(p) => {
                    !p.dirty && p.committed_in.is_none_or(|t| t <= g.checkpointed_txid)
                }
            };
            if evictable {
                g.pages.remove(&key);
                g.stats.evictions += 1;
            } else {
                g.cache_order.push_back(key);
            }
        }
    }

    fn install_page(&self, g: &mut Inner, ino: u64, lblock: u64, bytes: Vec<u8>, dirty: bool) {
        self.maybe_evict(g);
        let new_alloc = lblock >= g.inodes[&ino].committed_blocks;
        if dirty {
            g.dirty_count += 1;
            g.dirty_order.push((ino, lblock));
        }
        g.cache_order.push_back((ino, lblock));
        g.pages.insert(
            (ino, lblock),
            Page { bytes, dirty, new_alloc, committed_in: None, from_readahead: false },
        );
    }

    fn mark_page_dirty(&self, g: &mut Inner, ino: u64, lblock: u64) {
        let committed = g.inodes[&ino].committed_blocks;
        let p = g.pages.get_mut(&(ino, lblock)).expect("page present");
        if !p.dirty {
            p.dirty = true;
            p.new_alloc = lblock >= committed;
            g.dirty_count += 1;
            g.dirty_order.push((ino, lblock));
        }
    }

    /// Fault the page in from disk (clean) if it is mapped; `false` = hole.
    /// `readahead` marks the installed page as prefetched (a later real
    /// reference counts toward readahead effectiveness).
    fn page_in(&self, g: &mut Inner, ino: u64, lblock: u64, readahead: bool) -> VfsResult<bool> {
        if let Some(p) = g.pages.get_mut(&(ino, lblock)) {
            if !readahead {
                g.stats.cache_hits += 1;
                if p.from_readahead {
                    p.from_readahead = false;
                    g.stats.readahead_hits += 1;
                }
            }
            return Ok(true);
        }
        match Self::phys_of(g, ino, lblock) {
            Some(phys) => {
                if !readahead {
                    g.stats.cache_misses += 1;
                }
                let mut bytes = vec![0u8; PAGE_SIZE];
                self.dev.read_block_bytes(data_addr(phys), &mut bytes)?;
                self.install_page(g, ino, lblock, bytes, false);
                if readahead {
                    g.pages.get_mut(&(ino, lblock)).expect("page").from_readahead = true;
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Drop every cached page of `ino` at or past `from` (truncate/unlink
    /// invalidation).
    fn invalidate_pages(&self, g: &mut Inner, ino: u64, from: u64) {
        let doomed: Vec<(u64, u64)> = g
            .pages
            .keys()
            .filter(|(i, lb)| *i == ino && *lb >= from)
            .copied()
            .collect();
        for key in doomed {
            if let Some(p) = g.pages.remove(&key) {
                if p.dirty {
                    g.dirty_count -= 1;
                }
            }
        }
        if from == 0 {
            g.last_read.remove(&ino);
        }
    }

    /// Ordered writeback: flush dirty *new-allocation* pages in place.
    /// Overwrite pages stay dirty — they may only reach disk through the
    /// journal (see module docs), so pressure from them forces a commit
    /// in `op_epilogue` instead.
    ///
    /// Adjacent dirty pages (consecutive physical blocks) coalesce into
    /// one extent-sized device write per run — [`KjfsStats::writeback_runs`]
    /// counts submissions, [`KjfsStats::ordered_flushes`] counts pages.
    fn writeback_new_pages(&self, g: &mut Inner) -> VfsResult<()> {
        let order = std::mem::take(&mut g.dirty_order);
        let mut keep = Vec::new();
        let mut flush: Vec<(u32, u64, u64)> = Vec::new(); // (phys, ino, lblock)
        for (ino, lblock) in order {
            match g.pages.get(&(ino, lblock)) {
                Some(p) if p.dirty && p.new_alloc => {
                    let phys = Self::phys_of(g, ino, lblock).expect("dirty page is mapped");
                    flush.push((phys, ino, lblock));
                }
                Some(p) if p.dirty => keep.push((ino, lblock)),
                _ => {} // invalidated or already clean: stale entry
            }
        }
        g.dirty_order = keep;
        flush.sort_unstable();
        let mut rest = &flush[..];
        while !rest.is_empty() {
            let (addr, n, data) =
                next_run(rest, |f| data_addr(f.0), |f| &g.pages[&(f.1, f.2)].bytes);
            self.write_run_locked(g, kfault::sites::KJFS_WRITEBACK, addr, &data)?;
            for &(_, ino, lblock) in &rest[..n] {
                let p = g.pages.get_mut(&(ino, lblock)).expect("page");
                p.dirty = false;
                g.dirty_count -= 1;
                g.stats.ordered_flushes += 1;
            }
            g.stats.writeback_runs += 1;
            rest = &rest[n..];
        }
        Ok(())
    }

    // ---- transaction commit -------------------------------------------

    fn mark_inode_dirty(&self, g: &mut Inner, ino: u64) {
        g.dirty_itable.insert(ino / INODES_PER_BLOCK);
    }

    fn anything_dirty(g: &Inner) -> bool {
        g.header_dirty
            || !g.dirty_itable.is_empty()
            || !g.dirty_bitmap.is_empty()
            || !g.dirty_dirs.is_empty()
            || g.dirty_count > 0
    }

    /// Commit the running transaction; under `SingleTxn` also checkpoint
    /// synchronously (the original one-live-transaction discipline). Group
    /// commit leaves the committed transaction queued for a background
    /// drain.
    fn commit(&self, g: &mut MutexGuard<'_, Inner>) -> VfsResult<()> {
        self.commit_txn(g)?;
        if self.cfg.journal_mode == JournalMode::SingleTxn {
            self.checkpoint_drain(g)?;
        }
        Ok(())
    }

    /// Serialize a directory's entry table to its data-block byte image.
    fn serialize_dir(g: &Inner, ino: u64) -> Vec<u8> {
        let entries = g.dirs.get(&ino).expect("dir table entry");
        dir_to_bytes(entries.iter().map(|(name, &child)| {
            let kind = g.inodes.get(&child).map_or(FileKind::File, |i| i.kind);
            (name.as_str(), child, kind)
        }))
    }

    /// Journal slots not occupied by committed-but-unretired transactions
    /// (the circular log's tail is the oldest live txn's first seq).
    fn free_journal_slots(&self, g: &Inner) -> u64 {
        let tail = g.live_txns.front().map(|t| t.start_seq).unwrap_or(g.next_seq);
        self.cfg.journal_slots - (g.next_seq - tail)
    }

    /// Stages 1–2 of the pipeline: ordered-data writeback, then close the
    /// running transaction — capture every dirty image under the lock —
    /// and write the journal record. Under [`JournalMode::GroupCommit`]
    /// the lock is dropped for the journal I/O; callers that arrive
    /// meanwhile either skip (interval triggers) or wait on the condvar
    /// and merge into the next record (`fsync`).
    fn commit_txn(&self, g: &mut MutexGuard<'_, Inner>) -> VfsResult<()> {
        if g.crashed {
            return Err(VfsError::Io);
        }
        if g.committing {
            // A group commit is already in flight; background triggers can
            // skip. fsync never reaches here while committing — it waits
            // on the condvar first.
            return Ok(());
        }
        if !Self::anything_dirty(g) {
            g.ops_since_commit = 0;
            return Ok(());
        }

        // (a) Re-serialize dirty directories into their data blocks; this
        // may grow/shrink their allocations, dirtying bitmap and itable.
        let mut dir_images: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
        let mut dirty_dirs: Vec<u64> = g.dirty_dirs.iter().copied().collect();
        dirty_dirs.sort_unstable();
        for ino in dirty_dirs {
            if !g.inodes.contains_key(&ino) {
                continue; // removed later in the same transaction
            }
            let bytes = Self::serialize_dir(g, ino);
            let needed = (bytes.len() as u64).div_ceil(PAGE_SIZE as u64);
            let mapped = g.inodes[&ino].mapped_blocks();
            if mapped > needed {
                self.shrink_mapping(g, ino, needed);
            } else if mapped < needed {
                self.ensure_blocks(g, ino, needed, false)?;
            }
            {
                let i = g.inodes.get_mut(&ino).expect("dir inode");
                i.size = bytes.len() as u64;
            }
            self.mark_inode_dirty(g, ino);
            for lb in 0..needed {
                let phys = Self::phys_of(g, ino, lb).expect("dir block mapped");
                let mut img = vec![0u8; PAGE_SIZE];
                let lo = (lb as usize) * PAGE_SIZE;
                let hi = bytes.len().min(lo + PAGE_SIZE);
                img[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                dir_images.push((data_addr(phys), img));
            }
        }

        // (b) Ordered data: new-allocation pages reach their home blocks
        // before any metadata referencing them can commit.
        self.writeback_new_pages(g)?;

        // (c) Overwrite data images: journaled, checkpointed after commit.
        let mut overwrite_pages: Vec<(u64, u64)> = g
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(&k, _)| k)
            .collect();
        overwrite_pages.sort_unstable();
        let mut images: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
        for &(ino, lblock) in &overwrite_pages {
            let phys = Self::phys_of(g, ino, lblock).expect("dirty page is mapped");
            images.push((data_addr(phys), g.pages[&(ino, lblock)].bytes.clone()));
        }

        // (d) Metadata images.
        images.extend(dir_images);
        let mut itable: Vec<u64> = g.dirty_itable.iter().copied().collect();
        itable.sort_unstable();
        for blk in itable {
            let mut img = vec![0u8; PAGE_SIZE];
            for slot in 0..INODES_PER_BLOCK {
                let ino = blk * INODES_PER_BLOCK + slot;
                if let Some(i) = g.inodes.get(&ino) {
                    let at = slot as usize * crate::layout::INODE_WIRE;
                    img[at..at + crate::layout::INODE_WIRE].copy_from_slice(&i.to_rec().to_wire());
                }
            }
            images.push((BlockAddr { obj: ITABLE_OBJ, index: blk }, img));
        }
        let mut bmap: Vec<u64> = g.dirty_bitmap.iter().copied().collect();
        bmap.sort_unstable();
        for blk in bmap {
            let mut img = vec![0u8; PAGE_SIZE];
            let first_word = (blk * BITS_PER_BITMAP_BLOCK / 64) as usize;
            for w in 0..PAGE_SIZE / 8 {
                let word = g.bitmap.get(first_word + w).copied().unwrap_or(0);
                img[w * 8..w * 8 + 8].copy_from_slice(&word.to_le_bytes());
            }
            images.push((BlockAddr { obj: BITMAP_OBJ, index: blk }, img));
        }

        // (e) Header image, with post-transaction counters baked in so a
        // replayed header is already correct.
        let txid = g.next_txid;
        let nimages = images.len() as u64 + 1; // + header
        let ndesc = nimages.div_ceil(TAGS_PER_DESC as u64);
        let span = nimages + ndesc + 1;
        if span >= self.cfg.journal_slots {
            return Err(VfsError::NoSpace); // transaction larger than journal
        }
        // The circular log may not overwrite a committed-but-unretired
        // transaction: drain the checkpoint queue if the record won't fit
        // in the free region (tail..head).
        if span >= self.free_journal_slots(g) {
            self.checkpoint_drain(g)?;
        }
        let seq0 = g.next_seq;
        let header = Header { next_ino: g.next_ino, next_txid: txid + 1, next_seq: seq0 + span };
        images.push((BlockAddr { obj: SUPER_OBJ, index: 1 }, header.to_block()));

        // (f) Capture: the running transaction closes NOW, under the lock.
        // Clearing dirty state before the journal I/O lands is safe
        // because any write failure below marks the fs crashed — every
        // later operation returns EIO, so the optimistic state is never
        // observable. Pages whose newest image now lives only in the
        // journal are pinned against eviction via `committed_in`.
        for &(ino, lblock) in &overwrite_pages {
            if let Some(p) = g.pages.get_mut(&(ino, lblock)) {
                p.dirty = false;
                p.committed_in = Some(txid);
            }
        }
        g.dirty_count = 0;
        g.dirty_order.clear();
        for i in g.inodes.values_mut() {
            i.committed_blocks = i.mapped_blocks();
            i.committed_size = i.size;
        }
        g.header_dirty = false;
        g.dirty_itable.clear();
        g.dirty_bitmap.clear();
        g.dirty_dirs.clear();
        g.ops_since_commit = 0;
        g.next_txid = txid + 1;
        g.next_seq = seq0 + span;
        g.stats.commits += 1;

        // (g) Journal record: descriptors + images + commit block.
        let slots = self.cfg.journal_slots;
        let mut jblocks: Vec<(u64, Vec<u8>)> = Vec::with_capacity(span as usize);
        let mut seq = seq0;
        let mut checksums = Vec::with_capacity(images.len());
        for chunk in images.chunks(TAGS_PER_DESC) {
            let tags: Vec<Tag> = chunk
                .iter()
                .map(|(a, img)| Tag { obj: a.obj, index: a.index, checksum: fnv1a(img) })
                .collect();
            jblocks.push((seq % slots, journal::desc_block(txid, seq, &tags)));
            seq += 1;
            for (_, img) in chunk {
                jblocks.push((seq % slots, img.clone()));
                seq += 1;
            }
            checksums.extend(tags.iter().map(|t| t.checksum));
        }
        let commit =
            journal::commit_block(txid, seq, images.len() as u32, journal::txn_checksum(&checksums));
        let commit_slot = seq % slots;
        jblocks.push((commit_slot, commit));
        seq += 1;
        debug_assert_eq!(seq, seq0 + span);

        let (commit_entry, body) = jblocks.split_last().expect("commit block present");
        let write_all = || -> VfsResult<()> {
            // The log is sequential: descriptor + image blocks occupy
            // consecutive slots, so they coalesce into runs — one
            // submission, one kill-site consult, one elevator entry each
            // (the reason a journal beats in-place writes). The commit
            // block rides alone, after the body: the write barrier that
            // makes the record atomic.
            let site = kfault::sites::KJFS_JOURNAL_COMMIT;
            let mut rest = body;
            while !rest.is_empty() {
                let (addr, n, payload) = next_run(rest, |b| journal_addr(b.0), |b| &b.1);
                self.machine.charge_sys(JOURNAL_CPU_COST);
                self.write_run(site, addr, &payload)?;
                rest = &rest[n..];
            }
            self.machine.charge_sys(JOURNAL_CPU_COST);
            self.write_run(site, journal_addr(commit_entry.0), &commit_entry.1)
        };
        let res = if self.cfg.journal_mode == JournalMode::GroupCommit {
            // Drop the lock for the journal I/O so concurrent ops make
            // progress and concurrent fsyncs queue up on the condvar to
            // merge into the *next* record.
            g.committing = true;
            let r = MutexGuard::unlocked(g, write_all);
            g.committing = false;
            r
        } else {
            write_all()
        };
        if let Err(e) = res {
            g.crashed = true;
            self.commit_cv.notify_all();
            return Err(e);
        }
        g.stats.journal_blocks += jblocks.len() as u64;

        // The transaction is durable; queue it for a background drain.
        g.live_txns.push_back(LiveTxn { txid, start_seq: seq0, commit_slot, images });
        self.commit_cv.notify_all();
        Ok(())
    }

    /// Stage 3 of the pipeline: drain every queued transaction — write the
    /// newest image of each distinct home block (deduped across the whole
    /// queue, coalesced into consecutive-block runs), retire the drained
    /// commit records oldest-first, then release quarantined blocks and
    /// eviction pins up to the drained txid.
    fn checkpoint_drain(&self, g: &mut Inner) -> VfsResult<()> {
        if g.crashed {
            return Err(VfsError::Io);
        }
        if g.committing || g.live_txns.is_empty() {
            // Never drain under an in-flight group commit: its record has
            // not landed, so its images must stay journal-only.
            return Ok(());
        }
        let txns: Vec<LiveTxn> = g.live_txns.drain(..).collect();
        let max_txid = txns.last().expect("non-empty drain").txid;
        let retire: Vec<u64> = txns.iter().map(|t| t.commit_slot).collect();

        // Newest image per home block wins; the BTreeMap iterates in
        // (obj, index) order, which both makes the drain deterministic and
        // lines consecutive blocks up for run coalescing.
        let mut total = 0u64;
        let mut newest: BTreeMap<(u64, u64), Vec<u8>> = BTreeMap::new();
        for t in txns {
            for (addr, img) in t.images {
                total += 1;
                newest.insert((addr.obj, addr.index), img);
            }
        }
        let entries: Vec<((u64, u64), Vec<u8>)> = newest.into_iter().collect();
        g.stats.checkpoint_dedup_saved += total - entries.len() as u64;
        g.stats.checkpoint_blocks += entries.len() as u64;

        let site = kfault::sites::KJFS_CHECKPOINT;
        let mut rest = &entries[..];
        while !rest.is_empty() {
            let (addr, n, data) =
                next_run(rest, |&((obj, index), _)| BlockAddr { obj, index }, |e| &e.1);
            self.write_run_locked(g, site, addr, &data)?;
            g.stats.checkpoint_runs += 1;
            rest = &rest[n..];
        }

        // Retire oldest-first so a crash mid-retirement leaves a
        // replayable suffix, never a gap.
        for slot in retire {
            self.write_run_locked(g, site, journal_addr(slot), &[0u8; PAGE_SIZE])?;
        }
        g.checkpointed_txid = max_txid;
        g.quarantine.retain(|_, freed_by| *freed_by > max_txid);
        g.stats.checkpoints += 1;
        Ok(())
    }

    /// End-of-operation policy: checkpoint-lag drain, pressure writeback,
    /// periodic commit.
    fn op_epilogue(&self, g: &mut MutexGuard<'_, Inner>) -> VfsResult<()> {
        g.ops_since_commit += 1;
        // Drain a lagging checkpoint queue *before* any commit this op
        // might trigger: the drain then overlaps a non-empty running
        // transaction — exactly the stale-running-txn window the crash
        // harness must be able to kill inside.
        if self.cfg.journal_mode != JournalMode::SingleTxn
            && g.live_txns.len() > self.cfg.max_live_txns
        {
            self.checkpoint_drain(g)?;
        }
        if g.dirty_count > self.cfg.writeback_threshold {
            self.writeback_new_pages(g)?;
            if g.dirty_count > self.cfg.writeback_threshold {
                // Overwrite pages dominate; only a commit can clean them.
                return self.commit(g);
            }
        }
        if g.ops_since_commit >= self.cfg.commit_interval_ops {
            return self.commit(g);
        }
        Ok(())
    }

    /// Cut `ino`'s mapping down to `keep` blocks, quarantining the rest.
    fn shrink_mapping(&self, g: &mut Inner, ino: u64, keep: u64) {
        let mut extents = std::mem::take(&mut g.inodes.get_mut(&ino).expect("inode").extents);
        let mut cum = 0u64;
        let mut kept = Vec::new();
        for e in extents.drain(..) {
            let len = e.len as u64;
            if cum + len <= keep {
                kept.push(e);
            } else if cum < keep {
                let keep_len = (keep - cum) as u32;
                kept.push(Extent { start: e.start, len: keep_len });
                self.free_extent(
                    g,
                    Extent { start: e.start + keep_len, len: e.len - keep_len },
                );
            } else {
                self.free_extent(g, e);
            }
            cum += len;
        }
        g.inodes.get_mut(&ino).expect("inode").extents = kept;
        self.mark_inode_dirty(g, ino);
    }

    // ---- mount-time recovery ------------------------------------------

    fn replay_and_load(&self) -> VfsResult<()> {
        let slots = self.cfg.journal_slots;
        let mut scanned: Vec<Vec<u8>> = Vec::with_capacity(slots as usize);
        for slot in 0..slots {
            let mut b = vec![0u8; PAGE_SIZE];
            self.dev.read_block_bytes(journal_addr(slot), &mut b)?;
            scanned.push(b);
        }
        // Replay every committed transaction in txid order: within a
        // block, the newest image is applied last, so a multi-txn tail
        // converges to the newest committed state. Each txn's commit
        // record is retired as soon as its images land, so a crash during
        // replay leaves a strictly smaller (still replayable) tail —
        // replay is idempotent until new transactions run.
        let txns = journal::scan_all(slots, |s| scanned[s as usize].clone());
        if !txns.is_empty() {
            let mut g = self.inner.lock();
            let site = kfault::sites::KJFS_JOURNAL_REPLAY;
            for txn in &txns {
                for (addr, img) in &txn.images {
                    self.machine.charge_sys(JOURNAL_CPU_COST);
                    self.write_run_locked(&mut g, site, *addr, img)?;
                }
                let retire = journal_addr(txn.commit_slot);
                self.write_run_locked(&mut g, site, retire, &[0u8; PAGE_SIZE])?;
            }
        }

        let mut g = self.inner.lock();
        let mut buf = vec![0u8; PAGE_SIZE];
        self.dev.read_block_bytes(BlockAddr { obj: SUPER_OBJ, index: 1 }, &mut buf)?;
        let header = Header::from_block(&buf);
        if header.next_ino < ROOT_INO + 1 {
            return Err(VfsError::Invalid("kjfs header corrupt"));
        }
        g.next_ino = header.next_ino;
        g.next_txid = header.next_txid.max(1);
        g.next_seq = header.next_seq;
        // Replay wrote every surviving image home: the whole history up to
        // and excluding the next txid is checkpointed.
        g.checkpointed_txid = g.next_txid - 1;

        for blk in 0..(self.cfg.data_blocks).div_ceil(BITS_PER_BITMAP_BLOCK) {
            self.dev.read_block_bytes(BlockAddr { obj: BITMAP_OBJ, index: blk }, &mut buf)?;
            let first_word = (blk * BITS_PER_BITMAP_BLOCK / 64) as usize;
            for w in 0..PAGE_SIZE / 8 {
                if first_word + w < g.bitmap.len() {
                    g.bitmap[first_word + w] =
                        u64::from_le_bytes(buf[w * 8..w * 8 + 8].try_into().unwrap());
                }
            }
        }

        for blk in 0..g.next_ino.div_ceil(INODES_PER_BLOCK) {
            self.dev.read_block_bytes(BlockAddr { obj: ITABLE_OBJ, index: blk }, &mut buf)?;
            for slot in 0..INODES_PER_BLOCK {
                let ino = blk * INODES_PER_BLOCK + slot;
                if ino == 0 || ino >= g.next_ino {
                    continue;
                }
                let at = slot as usize * crate::layout::INODE_WIRE;
                let rec = InodeRec::from_wire(&buf[at..at + crate::layout::INODE_WIRE]);
                let Some(inode) = Inode::from_rec(rec) else {
                    g.free_inos.push(ino);
                    continue;
                };
                g.inodes.insert(ino, inode);
            }
        }
        // Recycle in ascending order, matching the order frees happened.
        g.free_inos.sort_unstable_by(|a, b| b.cmp(a));

        if g.inodes.get(&ROOT_INO).map(|i| i.kind) != Some(FileKind::Dir) {
            return Err(VfsError::Invalid("kjfs root missing"));
        }
        let mut queue = vec![ROOT_INO];
        while let Some(dino) = queue.pop() {
            let raw = self.read_raw_locked(&g, dino)?;
            let mut entries = BTreeMap::new();
            for (name, child, kind) in dir_from_bytes(&raw) {
                if kind == FileKind::Dir {
                    queue.push(child);
                }
                entries.insert(name, child);
            }
            g.dirs.insert(dino, entries);
        }
        Ok(())
    }

    /// Read an inode's full mapped content straight from the device
    /// (mount-time only: the page cache is empty and stays empty).
    fn read_raw_locked(&self, g: &Inner, ino: u64) -> VfsResult<Vec<u8>> {
        let i = g.inodes.get(&ino).ok_or(VfsError::NotFound)?;
        let mut out = vec![0u8; i.size as usize];
        let mut page = vec![0u8; PAGE_SIZE];
        for lb in 0..i.size.div_ceil(PAGE_SIZE as u64) {
            if let Some(phys) = Self::phys_of(g, ino, lb) {
                self.dev.read_block_bytes(data_addr(phys), &mut page)?;
                let lo = (lb as usize) * PAGE_SIZE;
                let hi = out.len().min(lo + PAGE_SIZE);
                out[lo..hi].copy_from_slice(&page[..hi - lo]);
            }
        }
        Ok(out)
    }

    // ---- shared op helpers --------------------------------------------

    fn check_alive(g: &Inner) -> VfsResult<()> {
        if g.crashed {
            Err(VfsError::Io)
        } else {
            Ok(())
        }
    }

    /// Sleep on the commit condvar until no group commit is in flight.
    /// Returns whether this caller actually waited — i.e. merged behind an
    /// in-flight commit. Errors out if the fs crashed meanwhile.
    fn wait_commit(&self, g: &mut MutexGuard<'_, Inner>) -> VfsResult<bool> {
        let mut waited = false;
        loop {
            Self::check_alive(g)?;
            if !g.committing {
                return Ok(waited);
            }
            waited = true;
            self.commit_cv.wait(g);
        }
    }

    fn dir_of(g: &Inner, dir: Ino) -> VfsResult<&BTreeMap<String, u64>> {
        match g.inodes.get(&dir.0) {
            None => Err(VfsError::NotFound),
            Some(i) if i.kind != FileKind::Dir => Err(VfsError::NotADirectory),
            Some(_) => Ok(g.dirs.get(&dir.0).expect("dir table entry")),
        }
    }

    fn alloc_ino(&self, g: &mut Inner) -> VfsResult<u64> {
        if let Some(ino) = g.free_inos.pop() {
            return Ok(ino);
        }
        if g.next_ino >= self.cfg.inode_capacity {
            return Err(VfsError::NoSpace);
        }
        let ino = g.next_ino;
        g.next_ino += 1;
        g.header_dirty = true;
        Ok(ino)
    }

    fn new_entry(
        &self,
        g: &mut MutexGuard<'_, Inner>,
        dir: Ino,
        name: &str,
        kind: FileKind,
    ) -> VfsResult<Ino> {
        Self::check_alive(g)?;
        if Self::dir_of(g, dir)?.contains_key(name) {
            return Err(VfsError::Exists);
        }
        if self.machine.faults.should_fail(kfault::sites::KVFS_NOSPC) {
            return Err(VfsError::NoSpace);
        }
        let ino = self.alloc_ino(g)?;
        let now = self.now();
        g.inodes.insert(
            ino,
            Inode {
                kind,
                nlink: if kind == FileKind::Dir { 2 } else { 1 },
                mode: if kind == FileKind::Dir { 0o755 } else { 0o644 },
                size: 0,
                mtime: now,
                extents: Vec::new(),
                committed_blocks: 0,
                committed_size: 0,
            },
        );
        if kind == FileKind::Dir {
            g.dirs.insert(ino, BTreeMap::new());
            let parent = g.inodes.get_mut(&dir.0).expect("parent");
            parent.nlink += 1;
        }
        g.dirs.get_mut(&dir.0).expect("parent dir").insert(name.to_string(), ino);
        g.dirty_dirs.insert(dir.0);
        {
            let parent = g.inodes.get_mut(&dir.0).expect("parent");
            parent.mtime = now;
        }
        self.mark_inode_dirty(g, dir.0);
        self.mark_inode_dirty(g, ino);
        self.op_epilogue(g)?;
        Ok(Ino(ino))
    }

    /// Full structural check of the mounted tree — the crash harness's
    /// invariant oracle. Returns human-readable violations; an empty vector
    /// means every invariant holds:
    ///
    /// * the root exists and is a directory;
    /// * every directory entry points at a live inode of matching kind,
    ///   and every live inode is reachable from the root (no orphans);
    /// * link counts are exact (files 1, directories 2 + subdirectories);
    /// * extents stay inside the data area, never overlap, and agree
    ///   bit-for-bit with the allocation bitmap (no dangling extents, no
    ///   leaked blocks);
    /// * no file maps more blocks than its size needs.
    pub fn fsck(&self) -> Vec<String> {
        let g = self.inner.lock();
        let mut v = Vec::new();
        match g.inodes.get(&ROOT_INO) {
            None => {
                v.push("root inode missing".to_string());
                return v;
            }
            Some(i) if i.kind != FileKind::Dir => {
                v.push("root is not a directory".to_string());
                return v;
            }
            Some(_) => {}
        }

        let mut reachable: FxHashSet<u64> = FxHashSet::default();
        let mut subdirs: FxHashMap<u64, u32> = FxHashMap::default();
        reachable.insert(ROOT_INO);
        let mut queue = vec![ROOT_INO];
        while let Some(dino) = queue.pop() {
            let Some(entries) = g.dirs.get(&dino) else {
                v.push(format!("dir ino {dino} has no entry table"));
                continue;
            };
            for (name, &child) in entries {
                match g.inodes.get(&child) {
                    None => v.push(format!("dangling entry {name:?} -> ino {child}")),
                    Some(ci) => {
                        if !reachable.insert(child) {
                            v.push(format!("ino {child} reached twice (hardlinks unsupported)"));
                            continue;
                        }
                        if ci.kind == FileKind::Dir {
                            *subdirs.entry(dino).or_default() += 1;
                            queue.push(child);
                        }
                    }
                }
            }
        }
        for (&ino, i) in &g.inodes {
            if !reachable.contains(&ino) {
                v.push(format!("orphaned inode {ino} (nlink {})", i.nlink));
            }
            let want_nlink = match i.kind {
                FileKind::File => 1,
                FileKind::Dir => 2 + subdirs.get(&ino).copied().unwrap_or(0),
            };
            if reachable.contains(&ino) && i.nlink != want_nlink {
                v.push(format!("ino {ino}: nlink {} != expected {want_nlink}", i.nlink));
            }
            let mapped = i.mapped_blocks();
            if mapped > i.size.div_ceil(PAGE_SIZE as u64) {
                v.push(format!("ino {ino}: {mapped} blocks mapped for size {}", i.size));
            }
            // Directory extents: a committed directory's on-disk size must
            // equal its serialized entry table exactly, and its mapping
            // must cover it block-for-block — directories grow by extent
            // like files but never have holes or slack blocks.
            if i.kind == FileKind::Dir
                && reachable.contains(&ino)
                && !g.dirty_dirs.contains(&ino)
                && g.dirs.contains_key(&ino)
            {
                let bytes = Self::serialize_dir(&g, ino);
                if i.size != bytes.len() as u64 {
                    v.push(format!(
                        "dir ino {ino}: size {} != serialized entry table {}",
                        i.size,
                        bytes.len()
                    ));
                }
                let needed = (bytes.len() as u64).div_ceil(PAGE_SIZE as u64);
                if mapped != needed {
                    v.push(format!(
                        "dir ino {ino}: {mapped} blocks mapped, entry table needs {needed}"
                    ));
                }
            }
        }

        let mut owner: FxHashMap<u32, u64> = FxHashMap::default();
        for (&ino, i) in &g.inodes {
            for e in &i.extents {
                if e.len == 0 {
                    v.push(format!("ino {ino}: zero-length extent"));
                }
                if e.start as u64 + e.len as u64 > self.cfg.data_blocks {
                    v.push(format!("ino {ino}: extent past data area"));
                    continue;
                }
                for b in e.start..e.start + e.len {
                    if let Some(prev) = owner.insert(b, ino) {
                        v.push(format!("block {b} claimed by inos {prev} and {ino}"));
                    }
                    if !Self::bit(&g, b as u64) {
                        v.push(format!("ino {ino}: block {b} mapped but free in bitmap"));
                    }
                }
            }
        }
        for b in 0..self.cfg.data_blocks {
            if Self::bit(&g, b) && !owner.contains_key(&(b as u32)) {
                v.push(format!("block {b} allocated but unreferenced"));
            }
        }
        v
    }

    fn drop_inode(&self, g: &mut Inner, ino: u64) {
        self.invalidate_pages(g, ino, 0);
        let extents = g.inodes.get_mut(&ino).map(|i| std::mem::take(&mut i.extents)).unwrap_or_default();
        for e in extents {
            self.free_extent(g, e);
        }
        g.inodes.remove(&ino);
        g.dirs.remove(&ino);
        g.dirty_dirs.remove(&ino);
        g.free_inos.push(ino);
        self.mark_inode_dirty(g, ino);
    }
}

impl FileSystem for Kjfs {
    fn root(&self) -> Ino {
        Ino(ROOT_INO)
    }

    fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(DIR_OP_COST);
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        Self::dir_of(&g, dir)?.get(name).copied().map(Ino).ok_or(VfsError::NotFound)
    }

    fn create(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let mut g = self.inner.lock();
        self.new_entry(&mut g, dir, name, FileKind::File)
    }

    fn mkdir(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let mut g = self.inner.lock();
        self.new_entry(&mut g, dir, name, FileKind::Dir)
    }

    fn unlink(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let &ino = Self::dir_of(&g, dir)?.get(name).ok_or(VfsError::NotFound)?;
        if g.inodes[&ino].kind == FileKind::Dir {
            return Err(VfsError::IsADirectory);
        }
        g.dirs.get_mut(&dir.0).expect("dir").remove(name);
        g.dirty_dirs.insert(dir.0);
        let now = self.now();
        g.inodes.get_mut(&dir.0).expect("dir inode").mtime = now;
        self.mark_inode_dirty(&mut g, dir.0);
        let nlink = {
            let i = g.inodes.get_mut(&ino).expect("target");
            i.nlink -= 1;
            i.nlink
        };
        if nlink == 0 {
            self.drop_inode(&mut g, ino);
        }
        self.op_epilogue(&mut g)
    }

    fn rmdir(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let &ino = Self::dir_of(&g, dir)?.get(name).ok_or(VfsError::NotFound)?;
        if g.inodes[&ino].kind != FileKind::Dir {
            return Err(VfsError::NotADirectory);
        }
        if !g.dirs.get(&ino).map(|d| d.is_empty()).unwrap_or(true) {
            return Err(VfsError::NotEmpty);
        }
        g.dirs.get_mut(&dir.0).expect("dir").remove(name);
        g.dirty_dirs.insert(dir.0);
        let now = self.now();
        {
            let parent = g.inodes.get_mut(&dir.0).expect("dir inode");
            parent.nlink -= 1;
            parent.mtime = now;
        }
        self.mark_inode_dirty(&mut g, dir.0);
        self.drop_inode(&mut g, ino);
        self.op_epilogue(&mut g)
    }

    fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        let entries = Self::dir_of(&g, dir)?;
        self.machine.charge_sys(DIR_OP_COST + entries.len() as u64 * 25);
        Ok(entries
            .iter()
            .map(|(name, &ino)| DirEntry {
                name: name.clone(),
                ino,
                kind: g.inodes.get(&ino).map(|i| i.kind).unwrap_or(FileKind::File),
            })
            .collect())
    }

    fn stat(&self, ino: Ino) -> VfsResult<Stat> {
        self.machine.charge_sys(INODE_OP_COST);
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        let i = g.inodes.get(&ino.0).ok_or(VfsError::NotFound)?;
        Ok(Stat {
            ino: ino.0,
            kind: i.kind,
            size: i.size,
            nlink: i.nlink,
            mode: i.mode,
            uid: 0,
            gid: 0,
            blocks: i.mapped_blocks() * (PAGE_SIZE as u64 / 512),
            mtime: i.mtime,
        })
    }

    fn read(&self, ino: Ino, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let (size, kind) = {
            let i = g.inodes.get(&ino.0).ok_or(VfsError::NotFound)?;
            (i.size, i.kind)
        };
        if kind != FileKind::File {
            return Err(VfsError::IsADirectory);
        }
        if off >= size || buf.is_empty() {
            return Ok(0);
        }
        let n = buf.len().min((size - off) as usize);
        let first_lb = off / PAGE_SIZE as u64;
        let last_lb = (off + n as u64 - 1) / PAGE_SIZE as u64;

        let mut done = 0usize;
        while done < n {
            let pos = off as usize + done;
            let lb = (pos / PAGE_SIZE) as u64;
            let in_off = pos % PAGE_SIZE;
            let take = (PAGE_SIZE - in_off).min(n - done);
            self.machine.charge_sys(BLOCK_CPU_COST);
            if self.page_in(&mut g, ino.0, lb, false)? {
                let p = &g.pages[&(ino.0, lb)];
                buf[done..done + take].copy_from_slice(&p.bytes[in_off..in_off + take]);
            } else {
                buf[done..done + take].fill(0); // hole
            }
            done += take;
        }

        // Readahead: a read continuing where the last one stopped prefetches
        // the next few mapped blocks into clean pages.
        let sequential = first_lb == 0 || g.last_read.get(&ino.0) == Some(&(first_lb - 1));
        if sequential {
            let file_blocks = size.div_ceil(PAGE_SIZE as u64);
            for lb in last_lb + 1..(last_lb + 1 + READAHEAD).min(file_blocks) {
                if !g.pages.contains_key(&(ino.0, lb)) && Self::phys_of(&g, ino.0, lb).is_some() {
                    self.page_in(&mut g, ino.0, lb, true)?;
                    g.stats.readahead_issued += 1;
                }
            }
        }
        g.last_read.insert(ino.0, last_lb);
        Ok(n)
    }

    fn write(&self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        {
            let i = g.inodes.get(&ino.0).ok_or(VfsError::NotFound)?;
            if i.kind != FileKind::File {
                return Err(VfsError::IsADirectory);
            }
        }
        if data.is_empty() {
            return Ok(0);
        }
        let end = off + data.len() as u64;
        self.ensure_blocks(&mut g, ino.0, end.div_ceil(PAGE_SIZE as u64), true)?;

        let mut done = 0usize;
        while done < data.len() {
            let pos = off as usize + done;
            let lb = (pos / PAGE_SIZE) as u64;
            let in_off = pos % PAGE_SIZE;
            let take = (PAGE_SIZE - in_off).min(data.len() - done);
            self.machine.charge_sys(BLOCK_CPU_COST);
            if !self.page_in(&mut g, ino.0, lb, false)? {
                unreachable!("write target mapped by ensure_blocks");
            }
            {
                let p = g.pages.get_mut(&(ino.0, lb)).expect("page");
                p.bytes[in_off..in_off + take].copy_from_slice(&data[done..done + take]);
            }
            self.mark_page_dirty(&mut g, ino.0, lb);
            done += take;
        }
        let now = self.now();
        {
            let i = g.inodes.get_mut(&ino.0).expect("inode");
            if end > i.size {
                i.size = end;
            }
            i.mtime = now;
        }
        self.mark_inode_dirty(&mut g, ino.0);
        self.op_epilogue(&mut g)?;
        Ok(data.len())
    }

    fn truncate(&self, ino: Ino, size: u64) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let (old, kind) = {
            let i = g.inodes.get(&ino.0).ok_or(VfsError::NotFound)?;
            (i.size, i.kind)
        };
        if kind != FileKind::File {
            return Err(VfsError::IsADirectory);
        }
        if size < old {
            let keep = size.div_ceil(PAGE_SIZE as u64);
            if g.inodes[&ino.0].mapped_blocks() > keep {
                self.shrink_mapping(&mut g, ino.0, keep);
            }
            self.invalidate_pages(&mut g, ino.0, keep);
            // Zero the cut tail of the last kept block so a later
            // re-extension reads zeros, not stale bytes.
            if !size.is_multiple_of(PAGE_SIZE as u64)
                && keep > 0
                && self.page_in(&mut g, ino.0, keep - 1, false)?
            {
                let at = (size % PAGE_SIZE as u64) as usize;
                g.pages.get_mut(&(ino.0, keep - 1)).expect("page").bytes[at..].fill(0);
                self.mark_page_dirty(&mut g, ino.0, keep - 1);
            }
        }
        let now = self.now();
        {
            let i = g.inodes.get_mut(&ino.0).expect("inode");
            i.size = size;
            i.mtime = now;
        }
        self.mark_inode_dirty(&mut g, ino.0);
        self.op_epilogue(&mut g)
    }

    fn rename(&self, from_dir: Ino, from: &str, to_dir: Ino, to: &str) -> VfsResult<()> {
        self.machine.charge_sys(2 * DIR_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let &ino = Self::dir_of(&g, from_dir)?.get(from).ok_or(VfsError::NotFound)?;
        if Self::dir_of(&g, to_dir)?.contains_key(to) {
            return Err(VfsError::Exists);
        }
        if g.inodes[&ino].kind == FileKind::Dir {
            // EINVAL, like rename(2): a directory cannot move into its own
            // subtree (it would detach a cycle from the root).
            let mut stack = vec![ino];
            while let Some(d) = stack.pop() {
                if d == to_dir.0 {
                    return Err(VfsError::Invalid("rename into own subtree"));
                }
                if let Some(entries) = g.dirs.get(&d) {
                    stack.extend(entries.values().copied().filter(|c| {
                        g.inodes.get(c).map(|i| i.kind) == Some(FileKind::Dir)
                    }));
                }
            }
        }
        g.dirs.get_mut(&from_dir.0).expect("from dir").remove(from);
        g.dirs.get_mut(&to_dir.0).expect("to dir").insert(to.to_string(), ino);
        g.dirty_dirs.insert(from_dir.0);
        g.dirty_dirs.insert(to_dir.0);
        let now = self.now();
        if g.inodes[&ino].kind == FileKind::Dir && from_dir != to_dir {
            g.inodes.get_mut(&from_dir.0).expect("from").nlink -= 1;
            g.inodes.get_mut(&to_dir.0).expect("to").nlink += 1;
        }
        g.inodes.get_mut(&from_dir.0).expect("from").mtime = now;
        g.inodes.get_mut(&to_dir.0).expect("to").mtime = now;
        self.mark_inode_dirty(&mut g, from_dir.0);
        self.mark_inode_dirty(&mut g, to_dir.0);
        self.op_epilogue(&mut g)
    }

    fn fsync(&self, ino: Ino, data_only: bool) -> VfsResult<()> {
        self.machine.charge_sys(FSYNC_CPU_COST);
        let mut g = self.inner.lock();
        // Group-commit merge: wait out any in-flight commit first. Dirt
        // this fsync cares about was either captured by that commit (we
        // come back to a clean fs and return without I/O — a merged
        // waiter) or arrived after the capture and commits below.
        let waited = self.wait_commit(&mut g)?;
        let i = g.inodes.get(&ino.0).ok_or(VfsError::NotFound)?;
        if data_only {
            // fdatasync: skip the commit when the inode has no dirty pages
            // and no size change — pure-metadata dirt (mtime) can wait.
            let essential = i.size != i.committed_size
                || g.pages.iter().any(|((pi, _), p)| *pi == ino.0 && p.dirty);
            if !essential {
                return Ok(());
            }
        }
        if !Self::anything_dirty(&g) {
            if waited {
                g.stats.group_merges += 1;
            }
            return Ok(());
        }
        self.commit(&mut g)
    }

    fn sync(&self) -> VfsResult<()> {
        self.machine.charge_sys(FSYNC_CPU_COST);
        let mut g = self.inner.lock();
        self.wait_commit(&mut g)?;
        self.commit(&mut g)
    }

    fn fs_name(&self) -> &str {
        "kjfs"
    }
}

impl std::fmt::Debug for Kjfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Kjfs")
            .field("inodes", &g.inodes.len())
            .field("crashed", &g.crashed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;
    use kvfs::VfsSnapshot;

    fn rig() -> (Arc<Machine>, Arc<BlockDev>, Kjfs) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Kjfs::mount(m.clone(), dev.clone(), KjfsConfig::small()).unwrap();
        (m, dev, fs)
    }

    fn remount(dev: &Arc<BlockDev>, m: &Arc<Machine>, fs: Kjfs) -> Kjfs {
        drop(fs);
        dev.drop_caches();
        Kjfs::mount(m.clone(), dev.clone(), KjfsConfig::small()).unwrap()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let (_m, _dev, fs) = rig();
        let f = fs.create(fs.root(), "hello").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        assert_eq!(fs.write(f, 0, &data).unwrap(), data.len());
        let mut back = vec![0u8; data.len()];
        assert_eq!(fs.read(f, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
    }

    #[test]
    fn synced_tree_survives_remount() {
        let (m, dev, fs) = rig();
        let d = fs.mkdir(fs.root(), "dir").unwrap();
        let f = fs.create(d, "file").unwrap();
        fs.write(f, 0, b"persistent payload").unwrap();
        fs.write(f, 9000, b"far block").unwrap();
        let before = VfsSnapshot::capture(&fs).unwrap();
        fs.sync().unwrap();

        let fs2 = remount(&dev, &m, fs);
        let after = VfsSnapshot::capture(&fs2).unwrap();
        assert_eq!(before.diff(&after), Vec::<String>::new());
        assert!(fs2.fsck().is_empty(), "{:?}", fs2.fsck());
    }

    #[test]
    fn unsynced_work_after_last_commit_is_lost_cleanly() {
        let (m, dev, fs) = rig();
        let f = fs.create(fs.root(), "durable").unwrap();
        fs.write(f, 0, b"committed").unwrap();
        fs.fsync(f, false).unwrap();
        let committed = VfsSnapshot::capture(&fs).unwrap();
        // Not synced: must vanish on a hard remount (commit interval is 8,
        // so two ops stay in the open transaction).
        let g = fs.create(fs.root(), "volatile").unwrap();
        fs.write(g, 0, b"gone").unwrap();

        let fs2 = remount(&dev, &m, fs);
        let after = VfsSnapshot::capture(&fs2).unwrap();
        assert_eq!(committed.diff(&after), Vec::<String>::new());
        assert!(fs2.fsck().is_empty());
    }

    #[test]
    fn committed_but_uncheckpointed_txn_replays_on_mount() {
        let (m, dev, fs) = rig();
        let f = fs.create(fs.root(), "f").unwrap();
        fs.write(f, 0, &[0xAB; 5000]).unwrap();
        fs.commit_without_checkpoint().unwrap();
        assert!(fs.is_crashed());

        let fs2 = remount(&dev, &m, fs);
        let mut back = vec![0u8; 5000];
        let ino = fs2.lookup(fs2.root(), "f").unwrap();
        assert_eq!(fs2.read(ino, 0, &mut back).unwrap(), 5000);
        assert_eq!(back, vec![0xAB; 5000]);
        assert!(fs2.fsck().is_empty(), "{:?}", fs2.fsck());
    }

    #[test]
    fn truncate_shrink_then_extend_reads_zeros() {
        let (_m, _dev, fs) = rig();
        let f = fs.create(fs.root(), "t").unwrap();
        fs.write(f, 0, &[0xFF; 8192]).unwrap();
        fs.truncate(f, 100).unwrap();
        fs.truncate(f, 6000).unwrap();
        let mut back = vec![1u8; 6000];
        assert_eq!(fs.read(f, 0, &mut back).unwrap(), 6000);
        assert_eq!(&back[..100], &[0xFF; 100][..]);
        assert!(back[100..].iter().all(|&b| b == 0), "cut tail must read zeros");
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
    }

    #[test]
    fn readahead_prefetches_sequential_reads() {
        let (m, dev, fs) = rig();
        let f = fs.create(fs.root(), "seq").unwrap();
        fs.write(f, 0, &vec![7u8; 16 * PAGE_SIZE]).unwrap();
        fs.sync().unwrap();
        // Remount so the page cache is cold and the read must hit the device.
        let fs = remount(&dev, &m, fs);
        let f = fs.lookup(fs.root(), "seq").unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        fs.read(f, 0, &mut buf).unwrap();
        let ra = fs.stats().readahead_issued;
        assert!(ra >= 4, "sequential read should prefetch, got {ra}");
    }

    #[test]
    fn unlink_frees_blocks_and_recycles_inode() {
        let (_m, _dev, fs) = rig();
        let f = fs.create(fs.root(), "victim").unwrap();
        fs.write(f, 0, &[1u8; 20000]).unwrap();
        fs.sync().unwrap();
        fs.unlink(fs.root(), "victim").unwrap();
        fs.sync().unwrap();
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
        let f2 = fs.create(fs.root(), "reborn").unwrap();
        assert_eq!(f2, f, "freed inode number is recycled");
    }

    #[test]
    fn crashed_fs_returns_eio_everywhere() {
        let (_m, _dev, fs) = rig();
        let f = fs.create(fs.root(), "f").unwrap();
        fs.commit_without_checkpoint().unwrap();
        assert_eq!(fs.write(f, 0, b"x"), Err(VfsError::Io));
        assert_eq!(fs.create(fs.root(), "g").err(), Some(VfsError::Io));
        assert_eq!(fs.sync(), Err(VfsError::Io));
    }

    fn rig_with(cfg: KjfsConfig) -> (Arc<Machine>, Arc<BlockDev>, Kjfs) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let dev = Arc::new(BlockDev::new(m.clone()));
        let fs = Kjfs::mount(m.clone(), dev.clone(), cfg).unwrap();
        (m, dev, fs)
    }

    #[test]
    fn pipelined_commits_queue_then_drain_deduped() {
        let (_m, _dev, fs) = rig_with(KjfsConfig::small().with_mode(JournalMode::GroupCommit));
        let f = fs.create(fs.root(), "hot").unwrap();
        fs.write(f, 0, &[1u8; 2 * PAGE_SIZE]).unwrap();
        fs.fsync(f, false).unwrap();
        // Overwrite the same blocks across several fsync'd transactions:
        // each journals fresh images, none checkpoints yet.
        for round in 2..=3u8 {
            fs.write(f, 0, &vec![round; 2 * PAGE_SIZE]).unwrap();
            fs.fsync(f, false).unwrap();
        }
        let live = fs.live_txns();
        assert!(live >= 3, "txns queue without draining, got {live}");
        assert_eq!(fs.stats().checkpoints, 0);

        fs.checkpoint_now().unwrap();
        let s = fs.stats();
        assert_eq!(fs.live_txns(), 0);
        assert_eq!(s.checkpoints, 1);
        // Hot blocks (data pages, itable, header…) journaled per-txn but
        // written home once: the drain must have deduped.
        assert!(s.checkpoint_dedup_saved > 0, "expected dedup, stats {s:?}");
        let mut back = vec![0u8; 2 * PAGE_SIZE];
        fs.read(f, 0, &mut back).unwrap();
        assert_eq!(back, vec![3u8; 2 * PAGE_SIZE], "newest image wins");
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
    }

    #[test]
    fn checkpoint_lag_drains_on_next_op() {
        let cfg = KjfsConfig::small().with_mode(JournalMode::GroupCommit);
        let max = cfg.max_live_txns;
        let (_m, _dev, fs) = rig_with(cfg);
        let f = fs.create(fs.root(), "f").unwrap();
        let mut peak = 0;
        for i in 0..=max {
            fs.write(f, (i * PAGE_SIZE) as u64, &[9u8; 64]).unwrap();
            fs.fsync(f, false).unwrap();
            peak = peak.max(fs.live_txns());
        }
        // The queue crossed the lag bound, and the first op to observe
        // that (a plain write, with a non-empty running txn) drained it.
        assert!(peak > max, "queue never exceeded the bound (peak {peak})");
        let s = fs.stats();
        assert!(s.checkpoints >= 1, "lagging queue drained, stats {s:?}");
        assert!(fs.live_txns() <= max + 1);
    }

    #[test]
    fn stats_delta_across_draining_fsync_does_not_underflow() {
        // The dirty set shrinks across an fsync; a delta over the stats
        // must still be well-defined (debug builds panic on underflow).
        let (_m, _dev, fs) = rig_with(KjfsConfig::small().with_mode(JournalMode::GroupCommit));
        let f = fs.create(fs.root(), "d").unwrap();
        fs.write(f, 0, &[3u8; 4 * PAGE_SIZE]).unwrap();
        let before = fs.stats();
        fs.fsync(f, false).unwrap();
        let d = fs.stats().delta(&before);
        assert_eq!(d.commits, 1);
        assert!(d.journal_blocks >= 4, "{d:?}");
    }

    #[test]
    fn quarantined_blocks_stay_unallocatable_until_drain() {
        let (_m, _dev, fs) = rig_with(KjfsConfig::small().with_mode(JournalMode::GroupCommit));
        let f = fs.create(fs.root(), "victim").unwrap();
        fs.write(f, 0, &[5u8; 4 * PAGE_SIZE]).unwrap();
        fs.fsync(f, false).unwrap();
        // Freeing under a live (uncheckpointed) txn quarantines the blocks.
        fs.unlink(fs.root(), "victim").unwrap();
        fs.fsync(fs.root(), false).unwrap();
        {
            let g = fs.inner.lock();
            assert!(!g.live_txns.is_empty());
            assert!(!g.quarantine.is_empty(), "freed blocks are quarantined");
            for &b in g.quarantine.keys() {
                assert!(!Kjfs::allocatable(&g, b as u64), "block {b} reallocatable too early");
            }
        }
        fs.checkpoint_now().unwrap();
        let g = fs.inner.lock();
        assert!(g.quarantine.is_empty(), "drain releases the quarantine");
    }

    #[test]
    fn eviction_never_resurrects_stale_home_blocks() {
        // Tiny cache, journal-only images: pages committed but not yet
        // checkpointed may NOT be evicted — their home blocks are stale.
        let mut cfg = KjfsConfig::small().with_mode(JournalMode::GroupCommit);
        cfg.page_cache_capacity = 8;
        let (_m, _dev, fs) = rig_with(cfg);
        let a = fs.create(fs.root(), "pinned").unwrap();
        fs.write(a, 0, &[1u8; 4 * PAGE_SIZE]).unwrap();
        fs.sync().unwrap();
        fs.write(a, 0, &[2u8; 4 * PAGE_SIZE]).unwrap(); // overwrite: journaled
        fs.fsync(a, false).unwrap(); // committed, NOT checkpointed
        // Pressure the cache well past capacity: several churn files, so
        // installs keep happening while earlier files' pages sit clean
        // (written back) and evictable.
        for c in 0..3 {
            let b = fs.create(fs.root(), &format!("churn{c}")).unwrap();
            fs.write(b, 0, &vec![7u8; 16 * PAGE_SIZE]).unwrap();
        }
        assert!(fs.stats().evictions > 0, "cache pressure must evict");
        // The overwrite must still read back new, not the stale home image.
        let mut back = vec![0u8; 4 * PAGE_SIZE];
        fs.read(a, 0, &mut back).unwrap();
        assert_eq!(back, vec![2u8; 4 * PAGE_SIZE], "stale bytes resurrected by eviction");
        fs.checkpoint_now().unwrap();
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
    }

    #[test]
    fn writeback_coalesces_consecutive_pages_into_runs() {
        let (m, _dev, fs) = rig();
        let f = fs.create(fs.root(), "seq").unwrap();
        let disk_before = m.stats.disk_writes.load(std::sync::atomic::Ordering::Relaxed);
        fs.write(f, 0, &vec![3u8; 24 * PAGE_SIZE]).unwrap();
        fs.fsync(f, false).unwrap();
        let s = fs.stats();
        assert!(s.ordered_flushes >= 24, "all new pages flushed in place");
        assert!(
            s.writeback_runs * 4 <= s.ordered_flushes,
            "fresh sequential pages should coalesce ≥4x: {} runs for {} pages",
            s.writeback_runs,
            s.ordered_flushes
        );
        assert!(m.stats.disk_writes.load(std::sync::atomic::Ordering::Relaxed) > disk_before);
        let mut back = vec![0u8; 24 * PAGE_SIZE];
        fs.read(f, 0, &mut back).unwrap();
        assert_eq!(back, vec![3u8; 24 * PAGE_SIZE]);
    }

    #[test]
    fn concurrent_fsyncs_group_commit_safely() {
        let (_m, dev, fs) = rig_with(KjfsConfig::small());
        let fs = Arc::new(fs);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let fs = fs.clone();
            handles.push(std::thread::spawn(move || {
                let f = fs.create(fs.root(), &format!("t{t}")).unwrap();
                for i in 0..8u64 {
                    fs.write(f, i * 100, &[t + 1; 100]).unwrap();
                    fs.fsync(f, false).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = fs.stats();
        assert!(s.commits > 0);
        // Durability: a hard remount sees all four files in full.
        let m2 = fs.machine.clone();
        drop(fs);
        dev.drop_caches();
        let fs2 = Kjfs::mount(m2, dev, KjfsConfig::small()).unwrap();
        for t in 0..4u8 {
            let f = fs2.lookup(fs2.root(), &format!("t{t}")).unwrap();
            let mut back = vec![0u8; 800];
            assert_eq!(fs2.read(f, 0, &mut back).unwrap(), 800);
            assert_eq!(back, vec![t + 1; 800]);
        }
        assert!(fs2.fsck().is_empty(), "{:?}", fs2.fsck());
    }

    #[test]
    fn multi_block_directory_survives_remount() {
        let (m, dev, fs) = rig();
        let d = fs.mkdir(fs.root(), "big").unwrap();
        let name = |i: usize| format!("{:02}-{}", i, "x".repeat(45));
        for i in 0..80 {
            fs.create(d, &name(i)).unwrap();
        }
        fs.sync().unwrap();
        {
            let g = fs.inner.lock();
            let i = &g.inodes[&d.0];
            assert!(i.size > PAGE_SIZE as u64, "entry table crossed the block boundary");
            assert!(i.mapped_blocks() >= 2);
        }
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());

        let fs = remount(&dev, &m, fs);
        let d = fs.lookup(fs.root(), "big").unwrap();
        for i in 0..80 {
            fs.lookup(d, &name(i)).unwrap();
        }
        // Shrink back under one block and recheck the invariant.
        for i in 10..80 {
            fs.unlink(d, &name(i)).unwrap();
        }
        fs.sync().unwrap();
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
        let fs = remount(&dev, &m, fs);
        let d = fs.lookup(fs.root(), "big").unwrap();
        assert_eq!(fs.readdir(d).unwrap().len(), 10);
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
    }

    #[test]
    fn modes_agree_on_post_fsync_state() {
        let payloads: [&[u8]; 3] = [b"alpha", &[7u8; 9000], &[1u8; 300]];
        let mut hashes = Vec::new();
        for mode in [JournalMode::SingleTxn, JournalMode::GroupCommit] {
            let (_m, _dev, fs) = rig_with(KjfsConfig::small().with_mode(mode));
            let d = fs.mkdir(fs.root(), "d").unwrap();
            for (i, p) in payloads.iter().enumerate() {
                let f = fs.create(d, &format!("f{i}")).unwrap();
                fs.write(f, 0, p).unwrap();
                fs.fsync(f, false).unwrap();
            }
            fs.truncate(fs.lookup(d, "f1").unwrap(), 500).unwrap();
            fs.fsync(fs.lookup(d, "f1").unwrap(), false).unwrap();
            hashes.push(VfsSnapshot::capture(&fs).unwrap().hash());
        }
        assert_eq!(hashes[0], hashes[1], "group-commit diverges from single-txn");
    }
}
