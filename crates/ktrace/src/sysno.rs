//! System-call numbering: the classic calls the traces contain plus the
//! consolidated calls §2.2 introduces.

use std::fmt;

/// Declares [`Sysno`], its [`Sysno::ALL`] table, [`Sysno::COUNT`],
/// [`Sysno::name`] and [`Sysno::is_consolidated`] from one list in
/// numbering order: `Variant = "name",`, or `Variant = "name" consolidated,`
/// for the new consolidated calls.
macro_rules! sysnos {
    (@consolidated) => { false };
    (@consolidated consolidated) => { true };
    ($($(#[$doc:meta])* $no:ident = $name:literal $($kind:ident)?,)*) => {
        /// System-call identifiers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum Sysno {
            $($(#[$doc])* $no,)*
        }

        impl Sysno {
            /// Every defined syscall, in numbering order.
            pub const ALL: [Sysno; [$(Sysno::$no),*].len()] = [$(Sysno::$no),*];

            /// Number of defined syscalls.
            pub const COUNT: usize = Self::ALL.len();

            /// The syscall's name as strace would print it.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Sysno::$no => $name,)*
                }
            }

            /// True for the new consolidated calls (including Cosy submission).
            pub const fn is_consolidated(self) -> bool {
                match self {
                    $(Sysno::$no => sysnos!(@consolidated $($kind)?),)*
                }
            }
        }
    };
}

sysnos! {
    Open = "open",
    Read = "read",
    Write = "write",
    Close = "close",
    Lseek = "lseek",
    Stat = "stat",
    Fstat = "fstat",
    Readdir = "readdir",
    Mkdir = "mkdir",
    Rmdir = "rmdir",
    Unlink = "unlink",
    Rename = "rename",
    Truncate = "truncate",
    Getpid = "getpid",
    // --- consolidated system calls (§2.2) ---
    /// `readdir` + N × `stat` in one crossing (the NFSv3 READDIRPLUS idea).
    ReaddirPlus = "readdirplus" consolidated,
    /// `open`-`read`-`close` in one crossing.
    OpenReadClose = "open_read_close" consolidated,
    /// `open`-`write`-`close` in one crossing.
    OpenWriteClose = "open_write_close" consolidated,
    /// `open`-`fstat` in one crossing.
    OpenFstat = "open_fstat" consolidated,
    // --- Cosy (§2.3) ---
    /// Submit a compound for in-kernel execution.
    CosySubmit = "cosy_submit" consolidated,
    // --- sockets (knet) ---
    Socket = "socket",
    BindListen = "bind_listen",
    Accept = "accept",
    Connect = "connect",
    Send = "send",
    Recv = "recv",
    Shutdown = "shutdown",
    PollWait = "poll_wait",
    // --- consolidated socket calls ---
    /// File page → socket ring without surfacing data to user space.
    Sendfile = "sendfile" consolidated,
    /// One crossing per HTTP-style request: accept, read the request,
    /// stream the file back, close (the paper's khttpd shape).
    AcceptRecvSendClose = "accept_recv_send_close" consolidated,
    // --- shared-memory syscall rings (kuring) ---
    /// Create a process's SQ/CQ ring pair.
    RingSetup = "ring_setup",
    /// Pin shared data-buffer ranges for fixed-buffer ring ops.
    RingRegister = "ring_register",
    /// Drain the submission queue and execute the batch in one crossing.
    RingEnter = "ring_enter" consolidated,
    // --- durability (kjfs) ---
    /// Flush a file's data and metadata to stable storage.
    Fsync = "fsync",
    /// Flush a file's data (and size) only, skipping clean metadata.
    Fdatasync = "fdatasync",
}

impl Sysno {
    /// Dense index for table-based counting.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Sysno::name`], for loading archived traces.
    pub fn from_name(name: &str) -> Option<Sysno> {
        Sysno::ALL.iter().copied().find(|s| s.name() == name)
    }

}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_matches_index() {
        for (i, s) in Sysno::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s} out of order");
        }
        assert_eq!(Sysno::COUNT, 34);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Sysno::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Sysno::COUNT);
    }

    #[test]
    fn from_name_inverts_name() {
        for s in Sysno::ALL {
            assert_eq!(Sysno::from_name(s.name()), Some(s));
        }
        assert_eq!(Sysno::from_name("bogus"), None);
    }

    #[test]
    fn consolidated_flag() {
        assert!(Sysno::ReaddirPlus.is_consolidated());
        assert!(Sysno::OpenReadClose.is_consolidated());
        assert!(!Sysno::Open.is_consolidated());
        assert!(!Sysno::Readdir.is_consolidated());
    }
}
