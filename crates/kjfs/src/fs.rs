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
use kvfs::namespace::ROOT_SLOT;
use kvfs::{
    BlockAddr, BlockDev, DirEntry, Effects, FileKind, FileSystem, Ino, Namespace, Node, Stat,
    VfsError, VfsResult, ROOT,
};
use ksim::{FxHashMap, FxHashSet, Machine, PAGE_SIZE};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::journal::{self, Tag, TAGS_PER_DESC};
use crate::layout::{
    dir_from_bytes, dir_to_bytes, Extent, Header, InodeRec, Superblock, BITMAP_OBJ,
    BITS_PER_BITMAP_BLOCK, DATA_OBJ, INODES_PER_BLOCK, ITABLE_OBJ, JOURNAL_OBJ, MAX_EXTENTS,
    SUPER_OBJ,
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

/// kjfs's own part of an inode; the namespace keeps the rest.
#[derive(Debug, Clone, Default)]
struct Body {
    size: u64,
    extents: Vec<Extent>,
    /// Mapped-block count as of the last committed transaction; the
    /// new-vs-overwrite boundary for the ordered-data rule.
    committed_blocks: u64,
    committed_size: u64,
}

impl Body {
    fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len as u64).sum()
    }
}

/// The inode-table record of an inode.
fn to_rec(n: &Node<Body>) -> InodeRec {
    InodeRec {
        kind: Some(n.kind()),
        nlink: n.nlink(),
        mode: n.mode(),
        size: n.data.size,
        mtime: n.mtime,
        extents: n.data.extents.clone(),
    }
}

/// The inode a table record holds as of its last commit; `None` for a
/// free slot.
fn from_rec(rec: InodeRec) -> Option<Node<Body>> {
    let body = Body {
        size: rec.size,
        committed_blocks: rec.extents.iter().map(|e| e.len as u64).sum(),
        committed_size: rec.size,
        extents: rec.extents,
    };
    Some(Node::new(rec.kind?, rec.nlink, rec.mode, rec.mtime, body))
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

impl Inner {
    /// kjfs's part of live inode `ino` (a slot).
    fn body(&self, ino: u64) -> &Body {
        &self.ns.slot(ino).expect("live inode").data
    }

    fn body_mut(&mut self, ino: u64) -> &mut Body {
        &mut self.ns.slot_mut(ino).expect("live inode").data
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
    /// The tree; kjfs's slot-keyed state (pages, dirty sets, the inode
    /// table on disk) uses the bare slot of each handle.
    ns: Namespace<Body>,
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
        let sb = Superblock {
            data_blocks: cfg.data_blocks,
            journal_slots: cfg.journal_slots,
            inode_capacity: cfg.inode_capacity,
        };
        let fresh = match Superblock::from_block(&buf) {
            Some(found) if found != sb => return Err(VfsError::Invalid("kjfs geometry mismatch")),
            found => found.is_none(),
        };

        let fs = Kjfs { machine, dev, cfg, inner: Mutex::new(Inner::default()), commit_cv: Condvar::new() };
        {
            let mut g = fs.inner.lock();
            g.bitmap = vec![0u64; (fs.cfg.data_blocks as usize).div_ceil(64)];
            g.next_txid = 1;
        }

        if fresh {
            fs.dev.write_run_bytes(BlockAddr { obj: SUPER_OBJ, index: 0 }, &sb.to_block())?;
            let mut g = fs.inner.lock();
            g.ns = Namespace::new(fs.cfg.inode_capacity);
            g.header_dirty = true;
            g.dirty_dirs.insert(ROOT_SLOT);
            g.dirty_itable.insert(ROOT_SLOT / INODES_PER_BLOCK);
            // Make the empty tree itself durable: recovery from a crash
            // before the first user commit must find a valid (empty) root.
            fs.commit(&mut g)?;
        } else {
            fs.replay_and_load()?;
        }
        Ok(fs)
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
        let i = &g.ns.slot(ino)?.data;
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
        let mut mapped = g.body(ino).mapped_blocks();
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
            let i = g.body_mut(ino);
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
                let i = g.body_mut(ino);
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
        let new_alloc = lblock >= g.body(ino).committed_blocks;
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
        let committed = g.body(ino).committed_blocks;
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

    /// Drop `ino`'s cached pages `from..mapped` (truncate/unlink
    /// invalidation), where `mapped` is its mapped-block count before the
    /// cut: no page is ever cached at or past an inode's mapping (fsck
    /// checks this), so the walk is per inode, not over the whole cache.
    fn invalidate_pages(g: &mut Inner, ino: u64, from: u64, mapped: u64) {
        for lb in from..mapped {
            if g.pages.remove(&(ino, lb)).is_some_and(|p| p.dirty) {
                g.dirty_count -= 1;
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
        // An invalidated page dirtied again is listed twice; flush it once.
        flush.sort_unstable();
        flush.dedup();
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

    /// Serialize a directory's entry table to its data-block byte image;
    /// entries store the bare slot.
    fn serialize_dir(g: &Inner, ino: u64) -> Vec<u8> {
        let ns = &g.ns;
        let entries = ns.slot(ino).expect("live directory").entries();
        dir_to_bytes(entries.iter().map(|(name, &child)| {
            (name.as_str(), child, ns.slot(child).expect("entries name live slots").kind())
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
            if g.ns.slot(ino).is_none() {
                continue; // removed later in the same transaction
            }
            let bytes = Self::serialize_dir(g, ino);
            let needed = (bytes.len() as u64).div_ceil(PAGE_SIZE as u64);
            let mapped = g.body(ino).mapped_blocks();
            if mapped > needed {
                self.shrink_mapping(g, ino, needed);
            } else if mapped < needed {
                self.ensure_blocks(g, ino, needed, false)?;
            }
            g.body_mut(ino).size = bytes.len() as u64;
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
        // After (b) `dirty_order` lists exactly the dirty pages, all of
        // them overwrites, so the commit never scans the whole cache. A
        // page invalidated and dirtied again is listed twice: dedup.
        g.dirty_order.sort_unstable();
        g.dirty_order.dedup();
        let mut images: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
        for &(ino, lblock) in &g.dirty_order {
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
                if let Some(i) = g.ns.slot(ino) {
                    let at = slot as usize * crate::layout::INODE_WIRE;
                    img[at..at + crate::layout::INODE_WIRE].copy_from_slice(&to_rec(i).to_wire());
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
        let header =
            Header { next_ino: g.ns.next_slot(), next_txid: txid + 1, next_seq: seq0 + span };
        images.push((BlockAddr { obj: SUPER_OBJ, index: 1 }, header.to_block()));

        // (f) Capture: the running transaction closes NOW, under the lock.
        // Clearing dirty state before the journal I/O lands is safe
        // because any write failure below marks the fs crashed — every
        // later operation returns EIO, so the optimistic state is never
        // observable. Pages whose newest image now lives only in the
        // journal are pinned against eviction via `committed_in`. Only
        // inodes in dirty itable blocks can have changed size or mapping
        // since the last capture, so only they are refreshed.
        let Inner { pages, dirty_order, ns, dirty_itable, .. } = &mut **g;
        for key in dirty_order.drain(..) {
            let p = pages.get_mut(&key).expect("dirty page present");
            p.dirty = false;
            p.committed_in = Some(txid);
        }
        for &blk in dirty_itable.iter() {
            for ino in blk * INODES_PER_BLOCK..(blk + 1) * INODES_PER_BLOCK {
                if let Some(n) = ns.slot_mut(ino) {
                    let i = &mut n.data;
                    i.committed_blocks = i.mapped_blocks();
                    i.committed_size = i.size;
                }
            }
        }
        g.dirty_count = 0;
        g.header_dirty = false;
        g.dirty_itable.clear();
        g.dirty_bitmap.clear();
        g.dirty_dirs.clear();
        g.ops_since_commit = 0;
        g.next_txid = txid + 1;
        g.next_seq = seq0 + span;
        g.stats.commits += 1;

        // (g) Journal record: descriptors + images + commit block. The
        // images are written from `images` itself, which the live
        // transaction keeps for its checkpoint, not from copies.
        let slots = self.cfg.journal_slots;
        let mut descs: Vec<Vec<u8>> = Vec::with_capacity(ndesc as usize);
        let mut checksums = Vec::with_capacity(images.len());
        for (d, chunk) in images.chunks(TAGS_PER_DESC).enumerate() {
            let tags: Vec<Tag> = chunk
                .iter()
                .map(|(a, img)| Tag {
                    obj: a.obj,
                    index: a.index,
                    checksum: journal::image_checksum(img),
                })
                .collect();
            let seq = seq0 + (d * (TAGS_PER_DESC + 1)) as u64;
            descs.push(journal::desc_block(txid, seq, &tags));
            checksums.extend(tags.iter().map(|t| t.checksum));
        }
        let mut jblocks: Vec<(u64, &[u8])> = Vec::with_capacity(span as usize);
        let mut seq = seq0;
        for (desc, chunk) in descs.iter().zip(images.chunks(TAGS_PER_DESC)) {
            for block in std::iter::once(&desc[..]).chain(chunk.iter().map(|(_, img)| &img[..])) {
                jblocks.push((seq % slots, block));
                seq += 1;
            }
        }
        let commit =
            journal::commit_block(txid, seq, images.len() as u32, journal::txn_checksum(&checksums));
        let commit_slot = seq % slots;
        jblocks.push((commit_slot, &commit));
        debug_assert_eq!(seq + 1, seq0 + span);

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
                let (addr, n, payload) = next_run(rest, |b| journal_addr(b.0), |b| b.1);
                self.machine.charge_sys(JOURNAL_CPU_COST);
                self.write_run(site, addr, &payload)?;
                rest = &rest[n..];
            }
            self.machine.charge_sys(JOURNAL_CPU_COST);
            self.write_run(site, journal_addr(commit_entry.0), commit_entry.1)
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
        g.stats.journal_blocks += span;

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
        let mut extents = std::mem::take(&mut g.body_mut(ino).extents);
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
        g.body_mut(ino).extents = kept;
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
        if header.next_ino < ROOT_SLOT + 1 || header.next_ino > self.cfg.inode_capacity {
            return Err(VfsError::Invalid("kjfs header corrupt"));
        }
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

        let mut nodes = Vec::new();
        for blk in 0..header.next_ino.div_ceil(INODES_PER_BLOCK) {
            self.dev.read_block_bytes(BlockAddr { obj: ITABLE_OBJ, index: blk }, &mut buf)?;
            for slot in 0..INODES_PER_BLOCK {
                let ino = blk * INODES_PER_BLOCK + slot;
                if ino == 0 || ino >= header.next_ino {
                    continue;
                }
                let at = slot as usize * crate::layout::INODE_WIRE;
                let rec = InodeRec::from_wire(&buf[at..at + crate::layout::INODE_WIRE]);
                nodes.extend(from_rec(rec).map(|n| (ino, n)));
            }
        }
        g.ns = Namespace::restore(self.cfg.inode_capacity, header.next_ino, nodes);

        if g.ns.slot(ROOT_SLOT).map(|i| i.kind()) != Some(FileKind::Dir) {
            return Err(VfsError::Invalid("kjfs root missing"));
        }
        let mut queue = vec![ROOT_SLOT];
        while let Some(dino) = queue.pop() {
            let raw = self.read_raw_locked(&g, dino)?;
            for (name, child, _) in dir_from_bytes(&raw) {
                if g.ns.restore_entry(dino, name, child)? == FileKind::Dir {
                    queue.push(child);
                }
            }
        }
        Ok(())
    }

    /// Read an inode's full mapped content straight from the device
    /// (mount-time only: the page cache is empty and stays empty).
    fn read_raw_locked(&self, g: &Inner, ino: u64) -> VfsResult<Vec<u8>> {
        let i = g.body(ino);
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

    /// Turn what a namespace op changed into kjfs's bookkeeping: dirty
    /// directory images and inode-table blocks, a dirty header when the
    /// slot high-water mark moved, and a removed inode's pages and blocks.
    fn apply(&self, g: &mut Inner, fx: Effects<Body>) {
        for dir in fx.dirs {
            g.dirty_dirs.insert(dir);
            self.mark_inode_dirty(g, dir);
        }
        g.header_dirty |= fx.grew;
        let Some(ino) = fx.inode.map(Ino::slot) else { return };
        self.mark_inode_dirty(g, ino);
        if let Some(body) = fx.freed {
            Self::invalidate_pages(g, ino, 0, body.mapped_blocks());
            for e in body.extents {
                self.free_extent(g, e);
            }
            g.dirty_dirs.remove(&ino);
        }
    }

    /// One tree op under the lock: the namespace decides and reports what
    /// changed, kjfs records it and runs the end-of-op policy.
    fn tree_op<R>(
        &self,
        op: impl FnOnce(&mut Namespace<Body>, u64) -> VfsResult<(R, Effects<Body>)>,
    ) -> VfsResult<R> {
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let (r, fx) = op(&mut g.ns, self.now())?;
        self.apply(&mut g, fx);
        self.op_epilogue(&mut g)?;
        Ok(r)
    }

    /// Full structural check of the mounted tree — the crash harness's
    /// invariant oracle. Returns human-readable violations; an empty vector
    /// means every invariant holds:
    ///
    /// * the tree's ([`Namespace::check`]);
    /// * extents stay inside the data area, never overlap, and agree
    ///   bit-for-bit with the allocation bitmap;
    /// * no file maps more blocks than its size needs, and a clean
    ///   directory's size and mapping match its serialized entry table;
    /// * every cached page belongs to a live inode and sits below its
    ///   mapped blocks (what per-inode invalidation relies on);
    /// * every dirty page is listed in `dirty_order`, and `dirty_count`
    ///   counts them;
    /// * with nothing dirty and no commit in flight, every inode's
    ///   `committed_blocks`/`committed_size` equal its mapping and size.
    pub fn fsck(&self) -> Vec<String> {
        let g = self.inner.lock();
        let mut v = g.ns.check();
        for (ino, n) in g.ns.live() {
            let i = &n.data;
            let mapped = i.mapped_blocks();
            if mapped > i.size.div_ceil(PAGE_SIZE as u64) {
                v.push(format!("ino {ino}: {mapped} blocks mapped for size {}", i.size));
            }
            // Directory extents: a committed directory's on-disk size must
            // equal its serialized entry table exactly, and its mapping
            // must cover it block-for-block — directories grow by extent
            // like files but never have holes or slack blocks.
            if n.kind() == FileKind::Dir && !g.dirty_dirs.contains(&ino) {
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
        for (ino, n) in g.ns.live() {
            for e in &n.data.extents {
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

        let listed: FxHashSet<(u64, u64)> = g.dirty_order.iter().copied().collect();
        let mut dirty = 0usize;
        for (key, p) in &g.pages {
            let mapped = g.ns.slot(key.0).map(|n| n.data.mapped_blocks());
            if mapped.is_none_or(|m| key.1 >= m) {
                v.push(format!("cached page {key:?} at or past its inode's mapped blocks"));
            }
            if p.dirty {
                dirty += 1;
                if !listed.contains(key) {
                    v.push(format!("dirty page {key:?} missing from dirty_order"));
                }
            }
        }
        if dirty != g.dirty_count {
            v.push(format!("dirty_count {} != {dirty} dirty pages", g.dirty_count));
        }
        if !g.committing && !Self::anything_dirty(&g) {
            for (ino, n) in g.ns.live() {
                let i = &n.data;
                let (blocks, size) = (i.mapped_blocks(), i.size);
                if (i.committed_blocks, i.committed_size) != (blocks, size) {
                    v.push(format!(
                        "ino {ino}: committed {} blocks/{} bytes on a clean fs, has {blocks}/{size}",
                        i.committed_blocks, i.committed_size
                    ));
                }
            }
        }
        v
    }

}

impl FileSystem for Kjfs {
    fn root(&self) -> Ino {
        ROOT
    }

    fn lookup(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(DIR_OP_COST);
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        g.ns.lookup(dir, name)
    }

    fn create(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let nospc = Some(&*self.machine.faults);
        self.tree_op(|ns, now| ns.create(dir, name, FileKind::File, now, nospc))
    }

    fn mkdir(&self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        let nospc = Some(&*self.machine.faults);
        self.tree_op(|ns, now| ns.create(dir, name, FileKind::Dir, now, nospc))
    }

    fn unlink(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        self.tree_op(|ns, now| Ok(((), ns.remove(dir, name, FileKind::File, now)?)))
    }

    fn rmdir(&self, dir: Ino, name: &str) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST + DIR_OP_COST);
        self.tree_op(|ns, now| Ok(((), ns.remove(dir, name, FileKind::Dir, now)?)))
    }

    fn readdir(&self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        let entries = g.ns.readdir(dir)?;
        self.machine.charge_sys(DIR_OP_COST + entries.len() as u64 * 25);
        Ok(entries)
    }

    fn stat(&self, ino: Ino) -> VfsResult<Stat> {
        self.machine.charge_sys(INODE_OP_COST);
        let g = self.inner.lock();
        Self::check_alive(&g)?;
        let (st, n) = g.ns.stat(ino)?;
        let blocks = n.data.mapped_blocks() * (PAGE_SIZE as u64 / 512);
        Ok(Stat { size: n.data.size, blocks, ..st })
    }

    /// A pure in-memory peek: no I/O, so it answers even after a crash.
    fn kind(&self, ino: Ino) -> VfsResult<FileKind> {
        Ok(self.inner.lock().ns.node(ino)?.kind())
    }

    fn read(&self, handle: Ino, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let size = g.ns.file(handle)?.data.size;
        if off >= size || buf.is_empty() {
            return Ok(0);
        }
        let ino = handle.slot();
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
            if self.page_in(&mut g, ino, lb, false)? {
                let p = &g.pages[&(ino, lb)];
                buf[done..done + take].copy_from_slice(&p.bytes[in_off..in_off + take]);
            } else {
                buf[done..done + take].fill(0); // hole
            }
            done += take;
        }

        // Readahead: a read continuing where the last one stopped prefetches
        // the next few mapped blocks into clean pages.
        let sequential = first_lb == 0 || g.last_read.get(&ino) == Some(&(first_lb - 1));
        if sequential {
            let file_blocks = size.div_ceil(PAGE_SIZE as u64);
            for lb in last_lb + 1..(last_lb + 1 + READAHEAD).min(file_blocks) {
                if !g.pages.contains_key(&(ino, lb)) && Self::phys_of(&g, ino, lb).is_some() {
                    self.page_in(&mut g, ino, lb, true)?;
                    g.stats.readahead_issued += 1;
                }
            }
        }
        g.last_read.insert(ino, last_lb);
        Ok(n)
    }

    fn write(&self, handle: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        g.ns.file(handle)?;
        if data.is_empty() {
            return Ok(0);
        }
        let ino = handle.slot();
        let end = off + data.len() as u64;
        self.ensure_blocks(&mut g, ino, end.div_ceil(PAGE_SIZE as u64), true)?;

        let mut done = 0usize;
        while done < data.len() {
            let pos = off as usize + done;
            let lb = (pos / PAGE_SIZE) as u64;
            let in_off = pos % PAGE_SIZE;
            let take = (PAGE_SIZE - in_off).min(data.len() - done);
            self.machine.charge_sys(BLOCK_CPU_COST);
            if !self.page_in(&mut g, ino, lb, false)? {
                unreachable!("write target mapped by ensure_blocks");
            }
            {
                let p = g.pages.get_mut(&(ino, lb)).expect("page");
                p.bytes[in_off..in_off + take].copy_from_slice(&data[done..done + take]);
            }
            self.mark_page_dirty(&mut g, ino, lb);
            done += take;
        }
        let now = self.now();
        {
            let n = g.ns.slot_mut(ino).expect("live inode");
            n.data.size = n.data.size.max(end);
            n.mtime = now;
        }
        self.mark_inode_dirty(&mut g, ino);
        self.op_epilogue(&mut g)?;
        Ok(data.len())
    }

    fn truncate(&self, handle: Ino, size: u64) -> VfsResult<()> {
        self.machine.charge_sys(INODE_OP_COST);
        let mut g = self.inner.lock();
        Self::check_alive(&g)?;
        let old = g.ns.file(handle)?.data.size;
        let ino = handle.slot();
        if size < old {
            let keep = size.div_ceil(PAGE_SIZE as u64);
            let mapped = g.body(ino).mapped_blocks();
            if mapped > keep {
                self.shrink_mapping(&mut g, ino, keep);
            }
            Self::invalidate_pages(&mut g, ino, keep, mapped);
            // Zero the cut tail of the last kept block so a later
            // re-extension reads zeros, not stale bytes.
            if !size.is_multiple_of(PAGE_SIZE as u64)
                && keep > 0
                && self.page_in(&mut g, ino, keep - 1, false)?
            {
                let at = (size % PAGE_SIZE as u64) as usize;
                g.pages.get_mut(&(ino, keep - 1)).expect("page").bytes[at..].fill(0);
                self.mark_page_dirty(&mut g, ino, keep - 1);
            }
        }
        let now = self.now();
        {
            let n = g.ns.slot_mut(ino).expect("live inode");
            n.data.size = size;
            n.mtime = now;
        }
        self.mark_inode_dirty(&mut g, ino);
        self.op_epilogue(&mut g)
    }

    fn rename(&self, from_dir: Ino, from: &str, to_dir: Ino, to: &str) -> VfsResult<()> {
        self.machine.charge_sys(2 * DIR_OP_COST);
        self.tree_op(|ns, now| Ok(((), ns.rename(from_dir, from, to_dir, to, now)?)))
    }

    fn fsync(&self, handle: Ino, data_only: bool) -> VfsResult<()> {
        self.machine.charge_sys(FSYNC_CPU_COST);
        let mut g = self.inner.lock();
        // Group-commit merge: wait out any in-flight commit first. Dirt
        // this fsync cares about was either captured by that commit (we
        // come back to a clean fs and return without I/O — a merged
        // waiter) or arrived after the capture and commits below.
        let waited = self.wait_commit(&mut g)?;
        let i = &g.ns.node(handle)?.data;
        if data_only {
            // fdatasync: skip the commit when the inode has no dirty pages
            // and no size change — pure-metadata dirt (mtime) can wait.
            let essential = i.size != i.committed_size
                || g.dirty_order.iter().any(|key| {
                    key.0 == handle.slot() && g.pages.get(key).is_some_and(|p| p.dirty)
                });
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
            .field("inodes", &g.ns.live().count())
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
        // Block 1's page was dirty when the truncate dropped it; dirtying
        // it again lists it twice in `dirty_order`. The commit must still
        // write it once and count it once.
        fs.write(f, 5000, &[9; 100]).unwrap();
        fs.fsync(f, false).unwrap();
        assert!(fs.fsck().is_empty(), "{:?}", fs.fsck());
        fs.read(f, 0, &mut back).unwrap();
        assert_eq!(&back[5000..5100], &[9; 100][..]);
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
        assert_eq!(f2.slot(), f.slot(), "freed inode slot is recycled");
        assert_ne!(f2, f, "under a new generation");
        assert_eq!(fs.write(f, 0, b"stale"), Err(VfsError::NotFound), "the old handle is stale");
        assert_eq!(fs.stat(f2).unwrap().size, 0);
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
            let i = &g.ns.node(d).unwrap().data;
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
