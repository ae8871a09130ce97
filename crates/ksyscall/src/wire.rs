//! Wire formats for boundary-crossing results.
//!
//! `readdir` returns classic fixed-size dirents (280 bytes each, name field
//! padded); `readdirplus` returns *packed* name+attribute entries — part of
//! why it moves fewer bytes for the same information (§2.2's 51.8 MB →
//! 32.3 MB estimate).

use kvfs::{DirEntry, FileKind, Stat, DIRENT_WIRE_BYTES, STAT_WIRE_BYTES};

pub use kvfs::RDP_ENTRY_WIRE_BYTES;

const NAME_MAX: usize = 255;

/// Encode one classic dirent (fixed 280 bytes).
pub fn dirent_to_wire(e: &DirEntry) -> [u8; DIRENT_WIRE_BYTES] {
    let mut out = [0u8; DIRENT_WIRE_BYTES];
    out[0..8].copy_from_slice(&e.ino.to_le_bytes());
    out[8] = match e.kind {
        FileKind::File => 0,
        FileKind::Dir => 1,
    };
    let name = e.name.as_bytes();
    let n = name.len().min(NAME_MAX);
    out[9] = n as u8;
    out[16..16 + n].copy_from_slice(&name[..n]);
    out
}

/// Decode one classic dirent.
pub fn dirent_from_wire(b: &[u8]) -> DirEntry {
    let ino = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let kind = if b[8] == 1 { FileKind::Dir } else { FileKind::File };
    let n = b[9] as usize;
    let name = String::from_utf8_lossy(&b[16..16 + n]).into_owned();
    DirEntry { name, ino, kind }
}

/// Parse a buffer of `count` classic dirents.
pub fn parse_dirents(buf: &[u8], count: usize) -> Vec<DirEntry> {
    (0..count)
        .map(|i| dirent_from_wire(&buf[i * DIRENT_WIRE_BYTES..(i + 1) * DIRENT_WIRE_BYTES]))
        .collect()
}

/// Encode one packed readdirplus entry (248 bytes: stat + packed name).
pub fn rdp_entry_to_wire(e: &DirEntry, st: &Stat) -> [u8; RDP_ENTRY_WIRE_BYTES] {
    let mut out = [0u8; RDP_ENTRY_WIRE_BYTES];
    out[..STAT_WIRE_BYTES].copy_from_slice(&st.to_wire());
    let name = e.name.as_bytes();
    let n = name.len().min(RDP_ENTRY_WIRE_BYTES - STAT_WIRE_BYTES - 2);
    out[STAT_WIRE_BYTES] = n as u8;
    out[STAT_WIRE_BYTES + 2..STAT_WIRE_BYTES + 2 + n].copy_from_slice(&name[..n]);
    out
}

/// Decode one packed readdirplus entry.
pub fn rdp_entry_from_wire(b: &[u8]) -> (DirEntry, Stat) {
    let stat_bytes: [u8; STAT_WIRE_BYTES] = b[..STAT_WIRE_BYTES].try_into().unwrap();
    let st = Stat::from_wire(&stat_bytes);
    let n = b[STAT_WIRE_BYTES] as usize;
    let name = String::from_utf8_lossy(&b[STAT_WIRE_BYTES + 2..STAT_WIRE_BYTES + 2 + n])
        .into_owned();
    (
        DirEntry { name, ino: st.ino, kind: st.kind },
        st,
    )
}

/// Parse a buffer of `count` packed readdirplus entries.
pub fn parse_rdp_entries(buf: &[u8], count: usize) -> Vec<(DirEntry, Stat)> {
    (0..count)
        .map(|i| {
            rdp_entry_from_wire(&buf[i * RDP_ENTRY_WIRE_BYTES..(i + 1) * RDP_ENTRY_WIRE_BYTES])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, ino: u64, kind: FileKind) -> DirEntry {
        DirEntry { name: name.to_string(), ino, kind }
    }

    fn stat(ino: u64, size: u64) -> Stat {
        Stat {
            ino,
            kind: FileKind::File,
            size,
            nlink: 1,
            mode: 0o644,
            uid: 0,
            gid: 0,
            blocks: size.div_ceil(512),
            mtime: 42,
        }
    }

    #[test]
    fn dirent_roundtrip() {
        let e = entry("some-file.txt", 17, FileKind::File);
        let w = dirent_to_wire(&e);
        assert_eq!(dirent_from_wire(&w), e);
        let d = entry("dir", 3, FileKind::Dir);
        assert_eq!(dirent_from_wire(&dirent_to_wire(&d)), d);
    }

    #[test]
    fn dirent_name_truncated_at_255() {
        let long = "x".repeat(300);
        let e = entry(&long, 1, FileKind::File);
        let got = dirent_from_wire(&dirent_to_wire(&e));
        assert_eq!(got.name.len(), 255);
    }

    #[test]
    fn rdp_roundtrip_preserves_stat() {
        let e = entry("mail-1234", 99, FileKind::File);
        let st = stat(99, 4_321);
        let w = rdp_entry_to_wire(&e, &st);
        let (e2, st2) = rdp_entry_from_wire(&w);
        assert_eq!(e2.name, "mail-1234");
        assert_eq!(st2, st);
        assert_eq!(e2.ino, 99);
    }

    #[test]
    fn buffers_of_many_entries() {
        let entries: Vec<DirEntry> =
            (0..10).map(|i| entry(&format!("f{i}"), i, FileKind::File)).collect();
        let mut buf = Vec::new();
        for e in &entries {
            buf.extend_from_slice(&dirent_to_wire(e));
        }
        assert_eq!(parse_dirents(&buf, 10), entries);

        let mut buf2 = Vec::new();
        for e in &entries {
            buf2.extend_from_slice(&rdp_entry_to_wire(e, &stat(e.ino, 10)));
        }
        let parsed = parse_rdp_entries(&buf2, 10);
        assert_eq!(parsed.len(), 10);
        assert_eq!(parsed[3].0.name, "f3");
        assert_eq!(parsed[3].1.size, 10);
    }

    #[test]
    fn packed_entry_is_smaller_than_dirent_plus_stat() {
        const { assert!(RDP_ENTRY_WIRE_BYTES < DIRENT_WIRE_BYTES + STAT_WIRE_BYTES) };
    }
}
