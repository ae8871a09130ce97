//! The write-ahead journal: physical redo records, jbd2-style.
//!
//! A transaction occupies a contiguous run of journal sequence numbers
//! (slot = `seq % slots`, circular):
//!
//! ```text
//! [descriptor] [image] [image] ... [descriptor] [image] ... [commit]
//! ```
//!
//! * A **descriptor** lists up to [`TAGS_PER_DESC`] tags, each naming the
//!   home address `(obj, index)` and FNV checksum of one following raw
//!   image block.
//! * **Image** blocks are verbatim copies of the metadata (or journaled
//!   data) block to be written home — *physical redo*. Replay writes the
//!   same bytes no matter how many times it runs, which is the whole
//!   idempotence argument: re-applying a committed transaction is a
//!   byte-identical overwrite.
//! * The **commit** block seals the transaction with the image count and a
//!   checksum over all image checksums. A transaction with no valid commit
//!   block — including a torn one, caught by the block checksum — never
//!   happened.
//!
//! Scan-time validation is positional: from a commit block at `seq c` with
//! `n` images, the transaction *must* occupy seqs `[c - span, c]`, and every
//! descriptor must carry the expected txid and seq. Stale blocks from
//! earlier transactions that happen to survive in other slots can never be
//! spliced in, and image blocks that coincidentally parse as descriptors
//! (user data is not escaped) are never even looked at.

use kvfs::BlockAddr;
use ksim::{fnv1a, fnv1a_continue, PAGE_SIZE};

use crate::layout::JOURNAL_MAGIC;

/// Tags per descriptor block: `(4096 - 48) / 24` rounded down to a round
/// number. A transaction needing more tags chains descriptors.
pub const TAGS_PER_DESC: usize = 128;

const KIND_DESC: u8 = 1;
const KIND_COMMIT: u8 = 2;

/// One descriptor tag: where the following image block lives at home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tag {
    pub obj: u64,
    pub index: u64,
    /// FNV-1a of the full image block.
    pub checksum: u64,
}

/// A parsed journal control block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JBlock {
    Desc { txid: u64, seq: u64, tags: Vec<Tag> },
    Commit { txid: u64, seq: u64, nimages: u32, txn_checksum: u64 },
}

/// Checksum over a control block, excluding the checksum field itself.
fn block_checksum(b: &[u8]) -> u64 {
    fnv1a_continue(fnv1a(&b[0..32]), &b[40..])
}

fn header(b: &mut [u8], kind: u8, count: u32, txid: u64, seq: u64) {
    b[0..8].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
    b[8] = kind;
    b[12..16].copy_from_slice(&count.to_le_bytes());
    b[16..24].copy_from_slice(&txid.to_le_bytes());
    b[24..32].copy_from_slice(&seq.to_le_bytes());
}

fn seal(b: &mut [u8]) {
    let ck = block_checksum(b);
    b[32..40].copy_from_slice(&ck.to_le_bytes());
}

/// Build a descriptor block.
pub fn desc_block(txid: u64, seq: u64, tags: &[Tag]) -> Vec<u8> {
    assert!(tags.len() <= TAGS_PER_DESC);
    let mut b = vec![0u8; PAGE_SIZE];
    header(&mut b, KIND_DESC, tags.len() as u32, txid, seq);
    for (i, t) in tags.iter().enumerate() {
        let at = 48 + i * 24;
        b[at..at + 8].copy_from_slice(&t.obj.to_le_bytes());
        b[at + 8..at + 16].copy_from_slice(&t.index.to_le_bytes());
        b[at + 16..at + 24].copy_from_slice(&t.checksum.to_le_bytes());
    }
    seal(&mut b);
    b
}

/// Build a commit block.
pub fn commit_block(txid: u64, seq: u64, nimages: u32, txn_checksum: u64) -> Vec<u8> {
    let mut b = vec![0u8; PAGE_SIZE];
    header(&mut b, KIND_COMMIT, nimages, txid, seq);
    b[40..48].copy_from_slice(&txn_checksum.to_le_bytes());
    seal(&mut b);
    b
}

/// Checksum sealing a whole transaction: FNV over the per-image checksums
/// in journal order.
pub fn txn_checksum(image_checksums: &[u64]) -> u64 {
    image_checksums.iter().fold(fnv1a(&[]), |h, ck| fnv1a_continue(h, &ck.to_le_bytes()))
}

/// Parse a journal control block; `None` for raw images, torn blocks, or
/// anything else that fails magic/checksum validation.
pub fn parse_block(b: &[u8]) -> Option<JBlock> {
    if b.len() < PAGE_SIZE || u64::from_le_bytes(b[0..8].try_into().unwrap()) != JOURNAL_MAGIC {
        return None;
    }
    if u64::from_le_bytes(b[32..40].try_into().unwrap()) != block_checksum(b) {
        return None;
    }
    let count = u32::from_le_bytes(b[12..16].try_into().unwrap());
    let txid = u64::from_le_bytes(b[16..24].try_into().unwrap());
    let seq = u64::from_le_bytes(b[24..32].try_into().unwrap());
    match b[8] {
        KIND_DESC => {
            let n = (count as usize).min(TAGS_PER_DESC);
            let mut tags = Vec::with_capacity(n);
            for i in 0..n {
                let at = 48 + i * 24;
                tags.push(Tag {
                    obj: u64::from_le_bytes(b[at..at + 8].try_into().unwrap()),
                    index: u64::from_le_bytes(b[at + 8..at + 16].try_into().unwrap()),
                    checksum: u64::from_le_bytes(b[at + 16..at + 24].try_into().unwrap()),
                });
            }
            Some(JBlock::Desc { txid, seq, tags })
        }
        KIND_COMMIT => Some(JBlock::Commit {
            txid,
            seq,
            nimages: count,
            txn_checksum: u64::from_le_bytes(b[40..48].try_into().unwrap()),
        }),
        _ => None,
    }
}

/// A fully validated committed transaction, ready to redo.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    pub txid: u64,
    /// `(home address, image bytes)` in journal order.
    pub images: Vec<(BlockAddr, Vec<u8>)>,
    /// Slot of the commit block (zeroed after checkpoint to retire the txn).
    pub commit_slot: u64,
}

/// Validate the positional chain ending at a commit block, returning the
/// redo record if every descriptor, image checksum, and the transaction
/// checksum line up.
fn validate_chain(
    slots: u64,
    read: &mut impl FnMut(u64) -> Vec<u8>,
    txid: u64,
    commit_seq: u64,
    nimages: u32,
    want_txn_ck: u64,
) -> Option<CommittedTxn> {
    let ndesc = (nimages as u64).div_ceil(TAGS_PER_DESC as u64);
    let span = nimages as u64 + ndesc;
    if span == 0 || span >= slots {
        return None;
    }
    let start = commit_seq.checked_sub(span)?;

    let mut images = Vec::with_capacity(nimages as usize);
    let mut checksums = Vec::with_capacity(nimages as usize);
    let mut seq = start;
    let mut remaining = nimages as usize;
    while remaining > 0 {
        let want = remaining.min(TAGS_PER_DESC);
        match parse_block(&read(seq % slots)) {
            Some(JBlock::Desc { txid: t, seq: s, tags })
                if t == txid && s == seq && tags.len() == want =>
            {
                seq += 1;
                for tag in tags {
                    let img = read(seq % slots);
                    if fnv1a(&img) != tag.checksum {
                        return None; // torn or overwritten image
                    }
                    images.push((BlockAddr { obj: tag.obj, index: tag.index }, img));
                    checksums.push(tag.checksum);
                    seq += 1;
                }
                remaining -= want;
            }
            _ => return None,
        }
    }
    if seq != commit_seq || txn_checksum(&checksums) != want_txn_ck {
        return None;
    }
    Some(CommittedTxn { txid, images, commit_slot: commit_seq % slots })
}

/// Scan the journal for **every** committed-but-unretired transaction,
/// ordered by ascending txid — the pipelined journal can leave up to K of
/// them behind a crash. Replaying them in txid order makes the newest
/// image of every home block land last, so recovery converges no matter
/// where in the commit/checkpoint pipeline the power cut hit.
///
/// `read(slot)` returns the raw bytes of a journal slot. Each commit-block
/// candidate is validated positionally (descriptor txid/seq chain, image
/// checksums, transaction checksum); candidates that fail — torn records,
/// stale blocks from overwritten transactions, raw data images that
/// happen to parse as commit blocks — are skipped individually rather
/// than aborting the scan, so one corrupt candidate can never mask the
/// valid transactions around it.
pub fn scan_all(slots: u64, mut read: impl FnMut(u64) -> Vec<u8>) -> Vec<CommittedTxn> {
    let mut candidates: Vec<(u64, u64, u32, u64)> = Vec::new();
    for slot in 0..slots {
        if let Some(JBlock::Commit { txid, seq, nimages, txn_checksum }) = parse_block(&read(slot))
        {
            if seq % slots != slot {
                continue; // stale block from before a geometry change
            }
            candidates.push((txid, seq, nimages, txn_checksum));
        }
    }
    let mut txns: Vec<CommittedTxn> = Vec::new();
    for (txid, commit_seq, nimages, ck) in candidates {
        if let Some(txn) = validate_chain(slots, &mut read, txid, commit_seq, nimages, ck) {
            if !txns.iter().any(|t| t.txid == txn.txid) {
                txns.push(txn);
            }
        }
    }
    txns.sort_by_key(|t| t.txid);
    txns
}

/// Scan for the newest committed transaction (single-txn journals).
pub fn scan(slots: u64, read: impl FnMut(u64) -> Vec<u8>) -> Option<CommittedTxn> {
    scan_all(slots, read).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Build a committed txn into a slot map, returning the next free seq.
    fn write_txn(
        slots: &mut HashMap<u64, Vec<u8>>,
        nslots: u64,
        txid: u64,
        mut seq: u64,
        images: &[(BlockAddr, Vec<u8>)],
    ) -> u64 {
        let mut cks = Vec::new();
        for chunk in images.chunks(TAGS_PER_DESC) {
            let tags: Vec<Tag> = chunk
                .iter()
                .map(|(a, img)| Tag { obj: a.obj, index: a.index, checksum: fnv1a(img) })
                .collect();
            slots.insert(seq % nslots, desc_block(txid, seq, &tags));
            seq += 1;
            for (_, img) in chunk {
                cks.push(fnv1a(img));
                slots.insert(seq % nslots, img.clone());
                seq += 1;
            }
        }
        slots.insert(seq % nslots, commit_block(txid, seq, images.len() as u32, txn_checksum(&cks)));
        seq + 1
    }

    fn img(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    fn reader(slots: HashMap<u64, Vec<u8>>) -> impl FnMut(u64) -> Vec<u8> {
        move |s| slots.get(&s).cloned().unwrap_or_else(|| vec![0u8; PAGE_SIZE])
    }

    #[test]
    fn scan_finds_committed_txn() {
        let mut slots = HashMap::new();
        let images = vec![
            (BlockAddr { obj: 2, index: 0 }, img(0xAA)),
            (BlockAddr { obj: 4, index: 17 }, img(0xBB)),
        ];
        write_txn(&mut slots, 64, 7, 10, &images);
        let txn = scan(64, reader(slots)).expect("committed txn found");
        assert_eq!(txn.txid, 7);
        assert_eq!(txn.images, images);
        assert_eq!(txn.commit_slot, 13);
    }

    #[test]
    fn torn_commit_block_means_no_txn() {
        let mut slots = HashMap::new();
        let end = write_txn(&mut slots, 64, 7, 0, &[(BlockAddr { obj: 2, index: 0 }, img(1))]);
        // Tear the commit block: the first half of the write landed, the
        // second half still holds stale bytes from an earlier slot occupant.
        // The block checksum covers the tail, so it must reject it. (A torn
        // commit over an all-zero tail is byte-identical to the full commit
        // block and validates — harmless, since the record is then intact.)
        let commit_slot = (end - 1) % 64;
        let blk = slots.get_mut(&commit_slot).unwrap();
        for b in blk[PAGE_SIZE / 2..].iter_mut() {
            *b = 0x5A;
        }
        assert!(scan(64, reader(slots)).is_none());
    }

    #[test]
    fn torn_image_invalidates_whole_txn() {
        let mut slots = HashMap::new();
        write_txn(&mut slots, 64, 3, 5, &[(BlockAddr { obj: 4, index: 9 }, img(0xCC))]);
        let blk = slots.get_mut(&6).unwrap(); // the image slot
        blk[0] ^= 0xFF;
        assert!(scan(64, reader(slots)).is_none());
    }

    #[test]
    fn newest_txid_wins_and_stale_blocks_cannot_splice() {
        let mut slots = HashMap::new();
        let seq = write_txn(&mut slots, 64, 1, 0, &[(BlockAddr { obj: 2, index: 0 }, img(1))]);
        write_txn(&mut slots, 64, 2, seq, &[(BlockAddr { obj: 2, index: 1 }, img(2))]);
        let txn = scan(64, reader(slots)).unwrap();
        assert_eq!(txn.txid, 2);
        assert_eq!(txn.images[0].0, BlockAddr { obj: 2, index: 1 });
    }

    #[test]
    fn image_spoofing_a_descriptor_is_ignored() {
        // A committed txn whose *image payload* is a bit-perfect descriptor
        // block for a bogus txid: positional validation never looks at it.
        let mut slots = HashMap::new();
        let evil = desc_block(999, 40, &[Tag { obj: 0, index: 0, checksum: 0 }]);
        write_txn(&mut slots, 64, 5, 20, &[(BlockAddr { obj: 4, index: 1 }, evil)]);
        let txn = scan(64, reader(slots)).unwrap();
        assert_eq!(txn.txid, 5, "spoofed descriptor must not win");
    }

    #[test]
    fn scan_all_returns_every_committed_txn_in_txid_order() {
        let mut slots = HashMap::new();
        let a = vec![(BlockAddr { obj: 2, index: 0 }, img(1))];
        let b = vec![(BlockAddr { obj: 2, index: 0 }, img(2)), (BlockAddr { obj: 4, index: 5 }, img(3))];
        let c = vec![(BlockAddr { obj: 4, index: 6 }, img(4))];
        let seq = write_txn(&mut slots, 64, 3, 0, &a);
        let seq = write_txn(&mut slots, 64, 4, seq, &b);
        write_txn(&mut slots, 64, 5, seq, &c);
        let txns = scan_all(64, reader(slots));
        assert_eq!(txns.iter().map(|t| t.txid).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(txns[0].images, a);
        assert_eq!(txns[1].images, b);
        assert_eq!(txns[2].images, c);
    }

    #[test]
    fn corrupt_txn_in_tail_does_not_mask_valid_ones() {
        let mut slots = HashMap::new();
        let a = vec![(BlockAddr { obj: 2, index: 0 }, img(1))];
        let b = vec![(BlockAddr { obj: 2, index: 1 }, img(2))];
        let c = vec![(BlockAddr { obj: 2, index: 2 }, img(3))];
        let seq = write_txn(&mut slots, 64, 3, 0, &a);
        let mid_image_slot = seq + 1; // txn 4's image block
        let seq = write_txn(&mut slots, 64, 4, seq, &b);
        write_txn(&mut slots, 64, 5, seq, &c);
        slots.get_mut(&(mid_image_slot % 64)).unwrap()[0] ^= 0xFF;
        let txns = scan_all(64, reader(slots));
        assert_eq!(
            txns.iter().map(|t| t.txid).collect::<Vec<_>>(),
            vec![3, 5],
            "only the corrupt txn drops out"
        );
    }

    #[test]
    fn multi_descriptor_txn_roundtrips() {
        let mut slots = HashMap::new();
        let images: Vec<_> = (0..TAGS_PER_DESC as u64 + 3)
            .map(|i| (BlockAddr { obj: 4, index: i }, img(i as u8)))
            .collect();
        write_txn(&mut slots, 512, 9, 100, &images);
        let txn = scan(512, reader(slots)).unwrap();
        assert_eq!(txn.images.len(), TAGS_PER_DESC + 3);
        assert_eq!(txn.images, images);
    }
}
