//! On-disk layout: region addressing, record wire formats, checksums.
//!
//! The device address space ([`kvfs::BlockAddr`] = `(obj, index)`) is carved
//! into fixed regions, like block groups without the groups:
//!
//! | obj | region | index meaning |
//! |-----|--------|---------------|
//! | 0 | superblock + fs header | 0 = superblock, 1 = header |
//! | 1 | journal | slot number (circular, `seq % slots`) |
//! | 2 | inode table | `ino / INODES_PER_BLOCK` |
//! | 3 | allocation bitmap | chunk of `PAGE_SIZE * 8` bits |
//! | 4 | data area | physical block number |
//!
//! Keeping the data area a single flat `obj` preserves the block device's
//! sequential-access detection: extents allocate contiguous physical runs,
//! so extent-sized reads and writes are charged at transfer cost, not seek
//! cost.

use std::hash::Hasher;

use ksim::{FxHasher, PAGE_SIZE};
use kvfs::FileKind;

/// Region objects (the `obj` half of a [`kvfs::BlockAddr`]).
pub const SUPER_OBJ: u64 = 0;
pub const JOURNAL_OBJ: u64 = 1;
pub const ITABLE_OBJ: u64 = 2;
pub const BITMAP_OBJ: u64 = 3;
pub const DATA_OBJ: u64 = 4;

/// Superblock magic ("KJFS" + version).
pub const SUPER_MAGIC: u64 = 0x4B4A_4653_0000_0001;
/// Journal block magic ("KJRN").
pub const JOURNAL_MAGIC: u64 = 0x4B4A_524E_4A52_4E4B;

/// Wire size of one inode record; 32 records per 4 KiB table block.
pub const INODE_WIRE: usize = 128;
pub const INODES_PER_BLOCK: u64 = (PAGE_SIZE / INODE_WIRE) as u64;
/// Direct extents per inode. The allocator extends the tail extent in place
/// whenever the next physical block is free, so real files almost always
/// use one; twelve absorbs pathological fragmentation before `ENOSPC`.
pub const MAX_EXTENTS: usize = 12;

/// Bits per bitmap block.
pub const BITS_PER_BITMAP_BLOCK: u64 = (PAGE_SIZE * 8) as u64;

/// The root directory's inode number. Ino 0 is reserved/invalid.
pub const ROOT_INO: u64 = 1;

/// First word every [`checksum`] absorbs: from a zero digest, leading zero
/// words would leave it at zero.
const CHECKSUM_SEED: u64 = 0x4B4A_4653_4353_554D;

/// The one checksum of the on-disk format: journal image tags, descriptor
/// and commit block seals, the transaction checksum and the superblock.
///
/// [`FxHasher`] over 8-byte words, one multiply each, where byte-serial
/// FNV-1a pays one per byte. Each step `h' = (rotl(h, 5) ^ w) * K` with `K`
/// odd is a bijection of the word `w` and of the running digest `h`, so two
/// word sequences of one length that differ in any single word always
/// checksum differently: a bit flip or a block torn in one word is always
/// caught, and a wider tear escapes only by a 64-bit collision.
pub fn checksum(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(CHECKSUM_SEED);
    for w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// The little-endian 8-byte words of `bytes`, whose length is a multiple
/// of 8 (every checksummed region of a block is).
pub fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    debug_assert!(bytes.len().is_multiple_of(8));
    bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap()))
}

/// The on-disk kind code of inode records and directory entries: 0 free,
/// 1 file, 2 dir. On read, any other nonzero code is a file.
fn kind_code(kind: Option<FileKind>) -> u8 {
    kind.map_or(0, |k| if k == FileKind::Dir { 2 } else { 1 })
}

fn kind_of_code(code: u8) -> Option<FileKind> {
    (code != 0).then_some(if code == 2 { FileKind::Dir } else { FileKind::File })
}

/// A contiguous physical run in the data area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub start: u32,
    pub len: u32,
}

/// One inode record as stored in the table.
///
/// Wire format (little-endian, [`INODE_WIRE`] bytes):
/// `[0]` kind (0 free, 1 file, 2 dir), `[1]` extent count,
/// `[4..8)` nlink, `[8..12)` mode, `[16..24)` size, `[24..32)` mtime,
/// `[32..128)` twelve `(start: u32, len: u32)` extents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InodeRec {
    /// `None` for a free table slot.
    pub kind: Option<FileKind>,
    pub nlink: u32,
    pub mode: u32,
    pub size: u64,
    pub mtime: u64,
    pub extents: Vec<Extent>,
}

impl InodeRec {
    pub fn to_wire(&self) -> [u8; INODE_WIRE] {
        let mut w = [0u8; INODE_WIRE];
        w[0] = kind_code(self.kind);
        w[1] = self.extents.len() as u8;
        w[4..8].copy_from_slice(&self.nlink.to_le_bytes());
        w[8..12].copy_from_slice(&self.mode.to_le_bytes());
        w[16..24].copy_from_slice(&self.size.to_le_bytes());
        w[24..32].copy_from_slice(&self.mtime.to_le_bytes());
        for (i, e) in self.extents.iter().take(MAX_EXTENTS).enumerate() {
            let at = 32 + i * 8;
            w[at..at + 4].copy_from_slice(&e.start.to_le_bytes());
            w[at + 4..at + 8].copy_from_slice(&e.len.to_le_bytes());
        }
        w
    }

    pub fn from_wire(w: &[u8]) -> Self {
        let next = (w[1] as usize).min(MAX_EXTENTS);
        let mut extents = Vec::with_capacity(next);
        for i in 0..next {
            let at = 32 + i * 8;
            extents.push(Extent {
                start: u32::from_le_bytes(w[at..at + 4].try_into().unwrap()),
                len: u32::from_le_bytes(w[at + 4..at + 8].try_into().unwrap()),
            });
        }
        InodeRec {
            kind: kind_of_code(w[0]),
            nlink: u32::from_le_bytes(w[4..8].try_into().unwrap()),
            mode: u32::from_le_bytes(w[8..12].try_into().unwrap()),
            size: u64::from_le_bytes(w[16..24].try_into().unwrap()),
            mtime: u64::from_le_bytes(w[24..32].try_into().unwrap()),
            extents,
        }
    }
}

/// Serialize directory entries: `name_len: u16, kind: u8, ino: u64, name`
/// per entry, densely packed; total byte length is the directory's size.
pub fn dir_to_bytes<'a>(entries: impl Iterator<Item = (&'a str, u64, FileKind)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (name, ino, kind) in entries {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.push(kind_code(Some(kind)));
        out.extend_from_slice(&ino.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// Parse a directory's serialized bytes back into `(name, ino, kind)`.
pub fn dir_from_bytes(bytes: &[u8]) -> Vec<(String, u64, FileKind)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at + 11 <= bytes.len() {
        let nlen = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
        let kind = kind_of_code(bytes[at + 2]).unwrap_or(FileKind::File);
        let ino = u64::from_le_bytes(bytes[at + 3..at + 11].try_into().unwrap());
        at += 11;
        if nlen == 0 || at + nlen > bytes.len() {
            break;
        }
        let name = String::from_utf8_lossy(&bytes[at..at + nlen]).into_owned();
        at += nlen;
        out.push((name, ino, kind));
    }
    out
}

/// The superblock (obj 0, index 0), written once at mkfs. Geometry only —
/// all mutable state recovers from the journaled header and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    pub data_blocks: u64,
    pub journal_slots: u64,
    pub inode_capacity: u64,
}

impl Superblock {
    pub fn to_block(&self) -> Vec<u8> {
        let mut b = vec![0u8; PAGE_SIZE];
        b[0..8].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.data_blocks.to_le_bytes());
        b[16..24].copy_from_slice(&self.journal_slots.to_le_bytes());
        b[24..32].copy_from_slice(&self.inode_capacity.to_le_bytes());
        let ck = checksum(le_words(&b[0..32]));
        b[32..40].copy_from_slice(&ck.to_le_bytes());
        b
    }

    pub fn from_block(b: &[u8]) -> Option<Self> {
        if b.len() < 40 || u64::from_le_bytes(b[0..8].try_into().unwrap()) != SUPER_MAGIC {
            return None;
        }
        if u64::from_le_bytes(b[32..40].try_into().unwrap()) != checksum(le_words(&b[0..32])) {
            return None;
        }
        Some(Superblock {
            data_blocks: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            journal_slots: u64::from_le_bytes(b[16..24].try_into().unwrap()),
            inode_capacity: u64::from_le_bytes(b[24..32].try_into().unwrap()),
        })
    }
}

/// The fs header (obj 0, index 1): the mutable counters. Journaled like any
/// other metadata block, so it is always crash-consistent with the tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Header {
    /// High-water inode number (freed inos below this are recycled).
    pub next_ino: u64,
    /// Next transaction id; monotone, never reused.
    pub next_txid: u64,
    /// Next journal sequence number (slot = seq % slots).
    pub next_seq: u64,
}

impl Header {
    pub fn to_block(&self) -> Vec<u8> {
        let mut b = vec![0u8; PAGE_SIZE];
        b[0..8].copy_from_slice(&self.next_ino.to_le_bytes());
        b[8..16].copy_from_slice(&self.next_txid.to_le_bytes());
        b[16..24].copy_from_slice(&self.next_seq.to_le_bytes());
        b
    }

    pub fn from_block(b: &[u8]) -> Self {
        Header {
            next_ino: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            next_txid: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            next_seq: u64::from_le_bytes(b[16..24].try_into().unwrap()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_rec_roundtrips() {
        let rec = InodeRec {
            kind: Some(FileKind::File),
            nlink: 1,
            mode: 0o644,
            size: 123_456,
            mtime: 42,
            extents: vec![Extent { start: 7, len: 30 }, Extent { start: 99, len: 1 }],
        };
        assert_eq!(InodeRec::from_wire(&rec.to_wire()), rec);
    }

    #[test]
    fn dir_bytes_roundtrip() {
        let entries = vec![
            ("a".to_string(), 2u64, FileKind::File),
            ("subdir".to_string(), 3, FileKind::Dir),
            ("file with spaces".to_string(), 4, FileKind::File),
        ];
        let bytes = dir_to_bytes(entries.iter().map(|(n, i, k)| (n.as_str(), *i, *k)));
        assert_eq!(dir_from_bytes(&bytes), entries);
    }

    #[test]
    fn kind_codes_roundtrip_through_records_and_entries() {
        for (kind, code) in [(None, 0), (Some(FileKind::File), 1), (Some(FileKind::Dir), 2)] {
            let rec = InodeRec { kind, ..InodeRec::default() };
            assert_eq!(rec.to_wire()[0], code, "{kind:?} is stored as {code}");
            assert_eq!(InodeRec::from_wire(&rec.to_wire()), rec);
        }
        let bytes = dir_to_bytes([("f", 2, FileKind::File), ("d", 3, FileKind::Dir)].into_iter());
        assert_eq!((bytes[2], bytes[14]), (1, 2), "entry kind codes");
    }

    #[test]
    fn superblock_rejects_corruption() {
        let sb = Superblock { data_blocks: 65536, journal_slots: 256, inode_capacity: 8192 };
        let mut b = sb.to_block();
        assert_eq!(Superblock::from_block(&b), Some(sb));
        b[9] ^= 1;
        assert_eq!(Superblock::from_block(&b), None, "checksum must catch corruption");
    }
}
