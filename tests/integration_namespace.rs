//! Integration: one namespace, one answer. memfs, Wrapfs over memfs and
//! kjfs in both journal modes keep their trees in `kvfs::Namespace`, so
//! every tree operation, and every operation on a stale handle, must give
//! the same result on all four. Each case runs through `Rig` and the
//! `sys_*` calls.

use kucode::prelude::*;

type MakeRig = fn() -> Rig;

/// The four file systems every row runs on.
fn rigs() -> [(&'static str, MakeRig); 4] {
    [
        ("memfs", Rig::memfs),
        ("wrapfs/memfs", Rig::wrapfs_kmalloc),
        ("kjfs group-commit", || {
            Rig::kjfs_with(KjfsConfig::default().with_mode(JournalMode::GroupCommit))
        }),
        ("kjfs single-txn", || {
            Rig::kjfs_with(KjfsConfig::default().with_mode(JournalMode::SingleTxn))
        }),
    ]
}

const RW_CREAT: OpenFlags = OpenFlags(OpenFlags::RDWR.0 | OpenFlags::CREAT.0);

/// Open `/f`, unlink it, create `/g`: `/g` may take `/f`'s inode slot, but
/// the descriptor still open on `/f` must not reach it.
#[test]
fn a_stale_descriptor_reaches_no_reused_inode() {
    for (fs, rig) in rigs() {
        let rig = rig();
        let p = rig.user(4096);
        let sys = &rig.sys;
        let stale = sys.sys_open(p.pid, "/f", RW_CREAT) as i32;
        assert_eq!(stale, 0, "{fs}");
        assert_eq!(sys.sys_unlink(p.pid, "/f"), 0, "{fs}");
        assert_eq!(sys.sys_open(p.pid, "/g", RW_CREAT), 1, "{fs}");
        p.stage(&rig, &[0xAB; 100]);
        assert_eq!(sys.sys_write(p.pid, stale, p.buf, 100), -2, "{fs}: write");
        assert_eq!(sys.sys_read(p.pid, stale, p.buf, 100), -2, "{fs}: read");
        assert_eq!(sys.sys_fstat(p.pid, stale, p.buf), -2, "{fs}: fstat");
        assert_eq!(rig.sys.k_stat("/g").unwrap().size, 0, "{fs}: /g stays empty");
    }
}

#[test]
fn tree_errnos_agree_on_every_file_system() {
    for (fs, rig) in rigs() {
        let rig = rig();
        let p = rig.user(4096);
        let sys = &rig.sys;
        for dir in ["/e", "/e/sub", "/p", "/p/d", "/q"] {
            assert_eq!(sys.sys_mkdir(p.pid, dir), 0, "{fs}: mkdir {dir}");
        }
        assert!(sys.sys_open(p.pid, "/h", RW_CREAT) >= 0, "{fs}");

        assert_eq!(sys.sys_unlink(p.pid, "/h/x"), -20, "{fs}: unlink below a file");

        assert_eq!(sys.sys_rename(p.pid, "/e", "/e/sub/z"), -22, "{fs}: into own subtree");
        assert_eq!(rig.sys.k_stat("/e/sub").unwrap().kind, FileKind::Dir, "{fs}: /e reachable");

        assert_eq!(sys.sys_rename(p.pid, "/p/d", "/q/d"), 0, "{fs}: cross-parent rename");
        let nlink = |path| rig.sys.k_stat(path).unwrap().nlink;
        assert_eq!((nlink("/p"), nlink("/q")), (2, 3), "{fs}: parents' link counts");

        assert_eq!(sys.sys_open(p.pid, "/q", OpenFlags::WRONLY), -21, "{fs}: O_WRONLY dir");
        assert_eq!(sys.sys_open(p.pid, "/q", OpenFlags::RDWR), -21, "{fs}: O_RDWR dir");
        assert!(sys.sys_open(p.pid, "/q", OpenFlags::RDONLY) >= 0, "{fs}: O_RDONLY dir");

        for dir in ["/q/d", "/q", "/p", "/e/sub", "/e"] {
            assert_eq!(sys.sys_rmdir(p.pid, dir), 0, "{fs}: rmdir {dir}");
        }
        if let Some(kjfs) = &rig.kjfs {
            assert_eq!(kjfs.fsck(), Vec::<String>::new(), "{fs}");
        }
    }
}
