//! Disk cost model with a page cache.
//!
//! Charges the simulated clock's I/O bucket using the cost model's
//! seek/rotation/transfer prices, with sequential-access detection: a block
//! adjacent to the previously accessed one pays transfer cost only, anything
//! else pays a full seek + rotational delay first — the behaviour that makes
//! PostMark's small random transactions expensive and Am-utils' sequential
//! reads cheap, as on the paper's IDE disk.
//!
//! A simple unbounded page cache sits in front: re-reads of cached blocks
//! are free (the 884 MB testbed cached every working set the paper used).
//! Writes are charged with a write-back/elevator model: every dirty block
//! pays its transfer, and one seek + rotational delay is charged per
//! [`ELEVATOR_BATCH`] writes — pdflush batched dirty pages and the elevator
//! sorted them, so 2.6-era small-file writes did not seek per block.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use ksim::SpinMutex;

use ksim::{FxHashMap, FxHashSet, Machine, PAGE_SIZE};

use crate::error::{VfsError, VfsResult};

/// Dirty blocks flushed per elevator pass: one seek is charged per batch.
pub const ELEVATOR_BATCH: u64 = 32;

/// Identifies a cached/addressed disk block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Owning object (inode number); distinct inodes live in distinct
    /// block-group regions, so switching inodes implies a seek.
    pub obj: u64,
    /// Block index within the object.
    pub index: u64,
}

/// The simulated disk + page cache.
/// The page cache's presence set plus its hit counter — counted under
/// the same lock so a cached read is one lock round-trip, not a lock
/// plus an atomic.
#[derive(Default)]
struct BlockCache {
    set: FxHashSet<BlockAddr>,
    hits: u64,
}

pub struct BlockDev {
    machine: Arc<Machine>,
    cache: SpinMutex<BlockCache>,
    last: SpinMutex<Option<BlockAddr>>,
    seeks: AtomicU64,
    dirty: AtomicU64,
    /// The platter: per-block byte images written through
    /// [`Self::write_run_bytes`]. Unlike the page cache this is stable
    /// storage — it survives an unmount (dropping the file system) for as
    /// long as the `Arc<BlockDev>` lives, which is exactly what the crash
    /// harness needs to model a power cut + remount.
    store: SpinMutex<FxHashMap<BlockAddr, Vec<u8>>>,
}

impl BlockDev {
    pub fn new(machine: Arc<Machine>) -> Self {
        BlockDev {
            machine,
            cache: SpinMutex::new(BlockCache::default()),
            last: SpinMutex::new(None),
            seeks: AtomicU64::new(0),
            dirty: AtomicU64::new(0),
            store: SpinMutex::new(FxHashMap::default()),
        }
    }

    /// Block size in bytes (one page, as Ext2/3 commonly configure).
    pub const fn block_size() -> usize {
        PAGE_SIZE
    }

    fn is_sequential(&self, addr: BlockAddr) -> bool {
        let mut last = self.last.lock();
        let seq = matches!(
            *last,
            Some(prev) if prev.obj == addr.obj && addr.index == prev.index.wrapping_add(1)
        );
        *last = Some(addr);
        seq
    }

    fn charge_access(&self, addr: BlockAddr, bytes: usize) {
        let m = &self.machine;
        if self.is_sequential(addr) {
            m.charge_io(m.cost.disk_transfer(bytes));
        } else {
            self.seeks.fetch_add(1, Relaxed);
            m.charge_io(m.cost.disk_random(bytes));
        }
    }

    /// Read one block (or a `bytes`-sized prefix of it). Cached blocks are
    /// free; misses charge the disk and populate the cache. A media error
    /// (injected at `kvfs.blockdev.read`) surfaces as EIO and leaves the
    /// block uncached, exactly like a failed BIO.
    pub fn read_block(&self, addr: BlockAddr, bytes: usize) -> VfsResult<()> {
        {
            let mut cache = self.cache.lock();
            if cache.set.contains(&addr) {
                cache.hits += 1;
                return Ok(());
            }
        }
        if self.machine.faults.should_fail(kfault::sites::KVFS_BLOCKDEV_READ) {
            return Err(VfsError::Io);
        }
        self.machine.stats.disk_reads.fetch_add(1, Relaxed);
        self.charge_access(addr, bytes.min(PAGE_SIZE));
        self.cache.lock().set.insert(addr);
        Ok(())
    }

    /// Write one block (write-back + elevator): the transfer is charged per
    /// block, a seek + rotational delay once per [`ELEVATOR_BATCH`] dirty
    /// blocks. The block becomes cached for subsequent reads.
    pub fn write_block(&self, addr: BlockAddr, bytes: usize) -> VfsResult<()> {
        if self.machine.faults.should_fail(kfault::sites::KVFS_BLOCKDEV_WRITE) {
            return Err(VfsError::Io);
        }
        self.charge_write(1, bytes.min(PAGE_SIZE), addr);
        self.cache.lock().set.insert(addr);
        Ok(())
    }

    /// Count and charge one write submission of `nblocks` blocks ending at
    /// `last`: the transfer of `bytes`, plus a seek + rotational delay once
    /// per [`ELEVATOR_BATCH`] submissions.
    fn charge_write(&self, nblocks: u64, bytes: usize, last: BlockAddr) {
        let m = &self.machine;
        m.stats.disk_writes.fetch_add(nblocks, Relaxed);
        m.charge_io(m.cost.disk_transfer(bytes));
        let n = self.dirty.fetch_add(1, Relaxed) + 1;
        if n.is_multiple_of(ELEVATOR_BATCH) {
            self.seeks.fetch_add(1, Relaxed);
            m.charge_io(m.cost.disk_seek + m.cost.disk_rotate);
        }
        *self.last.lock() = Some(last);
    }

    /// Write a run of consecutive blocks (`addr`, `addr+1`, …) in one I/O:
    /// `data` spans `ceil(len / PAGE_SIZE)` block images, the last possibly
    /// short (its missing tail reads back as zeroes). One submission
    /// consults the fault sites once, charges one transfer for the whole
    /// payload, and advances the elevator by a single dirty entry —
    /// extent-sized writeback costs one BIO, not one per page. A one-block
    /// run is an ordinary block write: one counted write, one transfer,
    /// one elevator step, and the block lands and becomes cached.
    ///
    /// Failure fidelity: an injected `kvfs.blockdev.write` EIO is
    /// all-or-nothing — no bytes land. An injected `kvfs.blockdev.torn`
    /// models a power cut mid-write: the first half of the whole payload
    /// lands (a prefix of blocks, the boundary block partially, over
    /// whatever it held before — its old tail survives), then the device
    /// reports EIO. Both leave the page cache unpopulated, like a failed
    /// BIO.
    pub fn write_run_bytes(&self, addr: BlockAddr, data: &[u8]) -> VfsResult<()> {
        let nblocks = data.len().div_ceil(PAGE_SIZE).max(1) as u64;
        if self.machine.faults.should_fail(kfault::sites::KVFS_BLOCKDEV_WRITE) {
            return Err(VfsError::Io);
        }
        let torn = self
            .machine
            .faults
            .should_fail(kfault::sites::KVFS_BLOCKDEV_TORN);
        let last = BlockAddr { obj: addr.obj, index: addr.index + nblocks - 1 };
        self.charge_write(nblocks, data.len(), last);
        let landed = if torn { data.len() / 2 } else { data.len() };
        {
            let mut store = self.store.lock();
            let mut at = 0usize;
            for i in 0..nblocks {
                let blk_addr = BlockAddr { obj: addr.obj, index: addr.index + i };
                let want = PAGE_SIZE.min(data.len() - at);
                let take = landed.saturating_sub(at).min(want);
                if take == want {
                    store.insert(blk_addr, data[at..at + want].to_vec());
                } else if take > 0 {
                    let blk = store.entry(blk_addr).or_default();
                    if blk.len() < want {
                        blk.resize(want, 0);
                    }
                    blk[..take].copy_from_slice(&data[at..at + take]);
                }
                at += want;
            }
        }
        if torn {
            return Err(VfsError::Io);
        }
        let mut cache = self.cache.lock();
        for i in 0..nblocks {
            cache.set.insert(BlockAddr { obj: addr.obj, index: addr.index + i });
        }
        Ok(())
    }

    /// Read one block's bytes from stable storage into `buf`, charging
    /// exactly like [`Self::read_block`] (cached blocks are free). Blocks
    /// never written read as zeroes. Returns how many stored bytes were
    /// copied; the rest of `buf` is zero-filled.
    pub fn read_block_bytes(&self, addr: BlockAddr, buf: &mut [u8]) -> VfsResult<usize> {
        self.read_block(addr, buf.len())?;
        let store = self.store.lock();
        let n = match store.get(&addr) {
            Some(blk) => {
                let n = blk.len().min(buf.len());
                buf[..n].copy_from_slice(&blk[..n]);
                n
            }
            None => 0,
        };
        drop(store);
        for b in &mut buf[n..] {
            *b = 0;
        }
        Ok(n)
    }

    /// Drop the volatile page cache wholesale — what a power cut does. The
    /// persistent byte store (the platter) is untouched; the next reads
    /// charge real disk time again.
    pub fn drop_caches(&self) {
        self.cache.lock().set.clear();
        *self.last.lock() = None;
    }

    /// Mark a block as cached without charging (e.g. the inode block of a
    /// freshly created file already lives in memory).
    pub fn prime_cache(&self, addr: BlockAddr) {
        self.cache.lock().set.insert(addr);
    }

    /// Drop an object's blocks from the cache (file deletion).
    pub fn evict_object(&self, obj: u64) {
        self.cache.lock().set.retain(|b| b.obj != obj);
    }

    /// Reads served by the page cache. Disk reads and writes are counted
    /// once, in the machine's `disk_reads`/`disk_writes`.
    pub fn cache_hits(&self) -> u64 {
        self.cache.lock().hits
    }

    /// Seek + rotational delays charged: random reads plus one per
    /// [`ELEVATOR_BATCH`] dirty writes.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Relaxed)
    }
}

impl std::fmt::Debug for BlockDev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockDev")
            .field("cache_hits", &self.cache_hits())
            .field("seeks", &self.seeks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::MachineConfig;

    fn dev() -> BlockDev {
        BlockDev::new(Arc::new(Machine::new(MachineConfig::default())))
    }

    fn addr(obj: u64, index: u64) -> BlockAddr {
        BlockAddr { obj, index }
    }

    #[test]
    fn first_read_charges_random_access() {
        let d = dev();
        let io0 = d.machine.clock.io_cycles();
        d.read_block(addr(1, 0), PAGE_SIZE).unwrap();
        let spent = d.machine.clock.io_cycles() - io0;
        assert_eq!(spent, d.machine.cost.disk_random(PAGE_SIZE));
    }

    #[test]
    fn sequential_reads_skip_the_seek() {
        let d = dev();
        d.read_block(addr(1, 0), PAGE_SIZE).unwrap();
        let io0 = d.machine.clock.io_cycles();
        d.read_block(addr(1, 1), PAGE_SIZE).unwrap();
        let spent = d.machine.clock.io_cycles() - io0;
        assert_eq!(spent, d.machine.cost.disk_transfer(PAGE_SIZE));
        assert_eq!(d.seeks(), 1, "only the first access seeks");
    }

    #[test]
    fn switching_objects_seeks_again() {
        let d = dev();
        d.read_block(addr(1, 0), PAGE_SIZE).unwrap();
        d.read_block(addr(2, 1), PAGE_SIZE).unwrap(); // different inode: seek
        assert_eq!(d.seeks(), 2);
    }

    #[test]
    fn cached_reads_are_free() {
        let d = dev();
        d.read_block(addr(1, 0), PAGE_SIZE).unwrap();
        let io0 = d.machine.clock.io_cycles();
        d.read_block(addr(1, 0), PAGE_SIZE).unwrap();
        assert_eq!(d.machine.clock.io_cycles(), io0);
        let reads = d.machine.stats.disk_reads.load(Relaxed);
        assert_eq!((reads, d.cache_hits()), (1, 1));
    }

    #[test]
    fn writes_charge_transfer_and_populate_cache() {
        let d = dev();
        let io0 = d.machine.clock.io_cycles();
        d.write_block(addr(3, 0), PAGE_SIZE).unwrap();
        d.write_block(addr(3, 0), PAGE_SIZE).unwrap();
        let stats = &d.machine.stats;
        let (reads, writes) = (stats.disk_reads.load(Relaxed), stats.disk_writes.load(Relaxed));
        assert_eq!((reads, writes), (0, 2));
        assert_eq!(
            d.machine.clock.io_cycles() - io0,
            2 * d.machine.cost.disk_transfer(PAGE_SIZE),
            "write-back: transfer only, no per-write seek"
        );
        // A read after the write is served from cache.
        let io1 = d.machine.clock.io_cycles();
        d.read_block(addr(3, 0), PAGE_SIZE).unwrap();
        assert_eq!(d.machine.clock.io_cycles(), io1);
    }

    #[test]
    fn elevator_charges_one_seek_per_batch() {
        let d = dev();
        for i in 0..(2 * ELEVATOR_BATCH) {
            d.write_block(addr(i, 0), PAGE_SIZE).unwrap();
        }
        assert_eq!(d.seeks(), 2, "one seek per {ELEVATOR_BATCH} dirty blocks");
    }

    #[test]
    fn byte_store_roundtrips_and_survives_cache_drop() {
        let d = dev();
        let payload: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        d.write_run_bytes(addr(7, 0), &payload).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        assert_eq!(d.read_block_bytes(addr(7, 0), &mut out).unwrap(), PAGE_SIZE);
        assert_eq!(out, payload);
        // A power cut empties the page cache but not the platter.
        d.drop_caches();
        let io0 = d.machine.clock.io_cycles();
        let mut out2 = vec![0u8; PAGE_SIZE];
        assert_eq!(d.read_block_bytes(addr(7, 0), &mut out2).unwrap(), PAGE_SIZE);
        assert_eq!(out2, payload);
        assert!(d.machine.clock.io_cycles() > io0, "cold read pays the disk");
        // Never-written blocks read as zeroes.
        let mut z = vec![0xAAu8; 64];
        assert_eq!(d.read_block_bytes(addr(7, 9), &mut z).unwrap(), 0);
        assert!(z.iter().all(|&b| b == 0));
    }

    #[test]
    fn injected_write_eio_is_all_or_nothing() {
        let d = dev();
        d.write_run_bytes(addr(8, 0), &[0x11; 128]).unwrap();
        d.machine.faults.arm(1);
        d.machine
            .faults
            .add_policy(Some(kfault::sites::KVFS_BLOCKDEV_WRITE), kfault::Policy::FailNth(1));
        assert_eq!(d.write_run_bytes(addr(8, 0), &[0x22; 128]), Err(VfsError::Io));
        d.machine.faults.disarm();
        let mut out = vec![0u8; 128];
        d.read_block_bytes(addr(8, 0), &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0x11), "no new bytes landed");
    }

    #[test]
    fn torn_write_lands_first_half_over_old_content() {
        let d = dev();
        d.write_run_bytes(addr(9, 0), &[0x11; 128]).unwrap();
        d.machine.faults.arm(1);
        d.machine
            .faults
            .add_policy(Some(kfault::sites::KVFS_BLOCKDEV_TORN), kfault::Policy::FailNth(1));
        assert_eq!(d.write_run_bytes(addr(9, 0), &[0x22; 128]), Err(VfsError::Io));
        d.machine.faults.disarm();
        let mut out = vec![0u8; 128];
        d.read_block_bytes(addr(9, 0), &mut out).unwrap();
        assert!(out[..64].iter().all(|&b| b == 0x22), "first half is new");
        assert!(out[64..].iter().all(|&b| b == 0x11), "old tail survives");
    }

    #[test]
    fn evict_object_forces_rereads() {
        let d = dev();
        d.read_block(addr(4, 0), PAGE_SIZE).unwrap();
        d.evict_object(4);
        let io0 = d.machine.clock.io_cycles();
        d.read_block(addr(4, 0), PAGE_SIZE).unwrap();
        assert!(d.machine.clock.io_cycles() > io0);
    }
}
