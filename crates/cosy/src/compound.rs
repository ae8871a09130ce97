//! The compound: Cosy's intermediate representation.
//!
//! A compound is a linear sequence of operations with three argument kinds:
//! literal values, references to the shared data buffer, and references to
//! the *result of an earlier operation* — the dependency form Cosy-GCC
//! resolves automatically. The compound is byte-encoded into the shared
//! compound buffer, so handing it to the kernel copies nothing.

use std::fmt;

/// The system calls executable inside a compound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CosyCall {
    Open = 1,
    Close = 2,
    Read = 3,
    Write = 4,
    Lseek = 5,
    Stat = 6,
    Fstat = 7,
    Getpid = 8,
    Mkdir = 9,
    Unlink = 10,
    /// Read directory entries from an fd into the shared buffer (classic
    /// fixed-size dirents); returns the entry count.
    Readdir = 11,
    // --- socket operations (knet). All of these have externally visible
    // effects the undo log cannot reverse; the executor records a
    // NetBarrier after each success.
    Accept = 12,
    Recv = 13,
    Send = 14,
    /// File fd → socket ring without touching the shared data buffer.
    Sendfile = 15,
    /// Close a socket descriptor (named to avoid clashing with a future
    /// half-close).
    ShutdownSock = 16,
    /// Flush an fd durable (arg 1 selects fdatasync). Durability is an
    /// external effect: like the socket ops it gets a barrier, not an undo.
    Fsync = 17,
}

impl CosyCall {
    /// Every call, in wire-code order (code = index + 1).
    pub const ALL: [CosyCall; 17] = {
        use CosyCall::*;
        [
            Open, Close, Read, Write, Lseek, Stat, Fstat, Getpid, Mkdir, Unlink, Readdir, Accept,
            Recv, Send, Sendfile, ShutdownSock, Fsync,
        ]
    };

    pub fn from_u8(v: u8) -> Option<CosyCall> {
        Self::ALL.get((v as usize).checked_sub(1)?).copied()
    }

    /// The `sys_*` intrinsic name this call corresponds to in KC source.
    pub fn intrinsic(self) -> &'static str {
        match self {
            CosyCall::Open => "sys_open",
            CosyCall::Close => "sys_close",
            CosyCall::Read => "sys_read",
            CosyCall::Write => "sys_write",
            CosyCall::Lseek => "sys_lseek",
            CosyCall::Stat => "sys_stat",
            CosyCall::Fstat => "sys_fstat",
            CosyCall::Getpid => "sys_getpid",
            CosyCall::Mkdir => "sys_mkdir",
            CosyCall::Unlink => "sys_unlink",
            CosyCall::Readdir => "sys_readdir",
            CosyCall::Accept => "sys_accept",
            CosyCall::Recv => "sys_recv",
            CosyCall::Send => "sys_send",
            CosyCall::Sendfile => "sys_sendfile",
            CosyCall::ShutdownSock => "sys_shutdown",
            CosyCall::Fsync => "sys_fsync",
        }
    }

    pub fn from_intrinsic(name: &str) -> Option<CosyCall> {
        Self::ALL.into_iter().find(|c| c.intrinsic() == name)
    }

    /// Expected argument count.
    pub fn arity(self) -> usize {
        match self {
            CosyCall::Getpid => 0,
            CosyCall::Close | CosyCall::Unlink | CosyCall::Mkdir | CosyCall::Accept
            | CosyCall::ShutdownSock => 1,
            CosyCall::Open | CosyCall::Stat | CosyCall::Fstat | CosyCall::Fsync => 2,
            CosyCall::Read | CosyCall::Write | CosyCall::Lseek | CosyCall::Readdir
            | CosyCall::Recv | CosyCall::Send | CosyCall::Sendfile => 3,
        }
    }
}

/// One operation argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CosyArg {
    /// An immediate value.
    Lit(i64),
    /// The return value of operation `i` in the same compound — the
    /// dependency encoding Cosy-GCC emits for chained calls.
    ResultOf(u32),
    /// `len` bytes at `offset` in the shared data buffer (zero-copy I/O).
    BufRef { offset: u32, len: u32 },
}

/// One operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CosyOp {
    /// Invoke a system call.
    Syscall { call: CosyCall, args: Vec<CosyArg> },
    /// Invoke function `func` of a kernel-loaded KC program with scalar
    /// arguments (§2.3's user-supplied functions).
    CallUser { prog: u32, func: String, args: Vec<CosyArg> },
}

/// A complete compound.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Compound {
    pub ops: Vec<CosyOp>,
}

impl Compound {
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Encode into the wire form placed in the shared compound buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 16);
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                CosyOp::Syscall { call, args } => {
                    out.push(0);
                    out.push(*call as u8);
                    out.push(args.len() as u8);
                    encode_args(&mut out, args);
                }
                CosyOp::CallUser { prog, func, args } => {
                    out.push(1);
                    out.extend_from_slice(&prog.to_le_bytes());
                    let name = func.as_bytes();
                    out.push(name.len() as u8);
                    out.extend_from_slice(name);
                    out.push(args.len() as u8);
                    encode_args(&mut out, args);
                }
            }
        }
        out
    }

    /// Decode from the shared compound buffer.
    pub fn decode(buf: &[u8]) -> Result<Compound, DecodeError> {
        let mut c = Cursor { buf, pos: 0 };
        let n = c.u32()? as usize;
        if n > 10_000 {
            return Err(DecodeError::new("unreasonable op count"));
        }
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            match c.u8()? {
                0 => {
                    let call = CosyCall::from_u8(c.u8()?)
                        .ok_or_else(|| DecodeError::new("bad call code"))?;
                    let argc = c.u8()? as usize;
                    let args = decode_args(&mut c, argc)?;
                    if args.len() != call.arity() {
                        return Err(DecodeError::new("arity mismatch"));
                    }
                    ops.push(CosyOp::Syscall { call, args });
                }
                1 => {
                    let prog = c.u32()?;
                    let namelen = c.u8()? as usize;
                    let name = c.bytes(namelen)?;
                    let func = String::from_utf8_lossy(name).into_owned();
                    let argc = c.u8()? as usize;
                    let args = decode_args(&mut c, argc)?;
                    ops.push(CosyOp::CallUser { prog, func, args });
                }
                _ => return Err(DecodeError::new("bad op tag")),
            }
        }
        Ok(Compound { ops })
    }

    /// Static validation: result references must point backwards. Part of
    /// the "combination of static and dynamic checks" (§2.3).
    pub fn validate(&self) -> Result<(), DecodeError> {
        for (i, op) in self.ops.iter().enumerate() {
            let args = match op {
                CosyOp::Syscall { args, .. } | CosyOp::CallUser { args, .. } => args,
            };
            for a in args {
                if let CosyArg::ResultOf(j) = a {
                    if *j as usize >= i {
                        return Err(DecodeError::new("forward result reference"));
                    }
                }
            }
        }
        Ok(())
    }
}

fn encode_args(out: &mut Vec<u8>, args: &[CosyArg]) {
    for a in args {
        match a {
            CosyArg::Lit(v) => {
                out.push(0);
                out.extend_from_slice(&v.to_le_bytes());
            }
            CosyArg::ResultOf(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            CosyArg::BufRef { offset, len } => {
                out.push(2);
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
    }
}

fn decode_args(c: &mut Cursor<'_>, argc: usize) -> Result<Vec<CosyArg>, DecodeError> {
    if argc > 8 {
        return Err(DecodeError::new("too many args"));
    }
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(match c.u8()? {
            0 => CosyArg::Lit(c.i64()?),
            1 => CosyArg::ResultOf(c.u32()?),
            2 => CosyArg::BufRef { offset: c.u32()?, len: c.u32()? },
            _ => return Err(DecodeError::new("bad arg tag")),
        });
    }
    Ok(args)
}

/// Compound decode/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub msg: &'static str,
}

impl DecodeError {
    fn new(msg: &'static str) -> Self {
        DecodeError { msg }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compound decode error: {}", self.msg)
    }
}

impl std::error::Error for DecodeError {}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::new("truncated compound"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Compound {
        Compound {
            ops: vec![
                CosyOp::Syscall {
                    call: CosyCall::Open,
                    args: vec![CosyArg::BufRef { offset: 0, len: 10 }, CosyArg::Lit(2)],
                },
                CosyOp::Syscall {
                    call: CosyCall::Read,
                    args: vec![
                        CosyArg::ResultOf(0),
                        CosyArg::BufRef { offset: 16, len: 4096 },
                        CosyArg::Lit(4096),
                    ],
                },
                CosyOp::Syscall { call: CosyCall::Close, args: vec![CosyArg::ResultOf(0)] },
                CosyOp::CallUser {
                    prog: 3,
                    func: "checksum".into(),
                    args: vec![CosyArg::ResultOf(1)],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = sample();
        let bytes = c.encode();
        let d = Compound::decode(&bytes).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn validation_rejects_forward_references() {
        let mut c = sample();
        c.ops[0] = CosyOp::Syscall {
            call: CosyCall::Close,
            args: vec![CosyArg::ResultOf(2)],
        };
        assert!(c.validate().is_err());
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn self_reference_is_forward() {
        let c = Compound {
            ops: vec![CosyOp::Syscall {
                call: CosyCall::Close,
                args: vec![CosyArg::ResultOf(0)],
            }],
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Compound::decode(&[]).is_err());
        assert!(Compound::decode(&[1, 0, 0]).is_err());
        // op count claims more than present
        assert!(Compound::decode(&10u32.to_le_bytes()).is_err());
        // bad call code
        let mut b = 1u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0, 99, 0]);
        assert!(Compound::decode(&b).is_err());
        // arity mismatch: Read with 0 args
        let mut b = 1u32.to_le_bytes().to_vec();
        b.extend_from_slice(&[0, CosyCall::Read as u8, 0]);
        assert!(Compound::decode(&b).is_err());
    }

    #[test]
    fn intrinsic_names_roundtrip() {
        for (i, call) in CosyCall::ALL.into_iter().enumerate() {
            assert_eq!(call as usize, i + 1, "ALL is in wire-code order");
            assert_eq!(CosyCall::from_intrinsic(call.intrinsic()), Some(call));
            assert_eq!(CosyCall::from_u8(call as u8), Some(call));
        }
        assert_eq!(CosyCall::from_intrinsic("sys_nope"), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_arg() -> impl Strategy<Value = CosyArg> {
        prop_oneof![
            any::<i64>().prop_map(CosyArg::Lit),
            (0u32..64).prop_map(CosyArg::ResultOf),
            (any::<u32>(), any::<u32>()).prop_map(|(offset, len)| CosyArg::BufRef {
                offset,
                len
            }),
        ]
    }

    fn arb_op() -> impl Strategy<Value = CosyOp> {
        prop_oneof![
            any::<u8>().prop_flat_map(|sel| {
                let call = CosyCall::from_u8(sel % 17 + 1).expect("1..=17 are valid");
                proptest::collection::vec(arb_arg(), call.arity()..=call.arity())
                    .prop_map(move |args| CosyOp::Syscall { call, args })
            }),
            (any::<u32>(), "[a-z_]{1,24}", proptest::collection::vec(arb_arg(), 0..5)).prop_map(
                |(prog, func, args)| CosyOp::CallUser { prog, func, args }
            ),
        ]
    }

    proptest! {
        /// Every compound survives the wire format byte-exactly.
        #[test]
        fn encode_decode_roundtrip_arbitrary(ops in proptest::collection::vec(arb_op(), 0..40)) {
            let c = Compound { ops };
            let bytes = c.encode();
            let d = Compound::decode(&bytes).expect("decode what we encoded");
            prop_assert_eq!(c, d);
        }

        /// Decoding arbitrary garbage never panics — it errors or yields a
        /// structurally valid compound (the kernel cannot trust the shared
        /// buffer's contents).
        #[test]
        fn decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            if let Ok(c) = Compound::decode(&bytes) {
                // Whatever decoded must re-encode decodably.
                let _ = Compound::decode(&c.encode()).expect("re-decode");
            }
        }

        /// Validation accepts exactly the backward-reference compounds.
        #[test]
        fn validate_matches_reference_rule(ops in proptest::collection::vec(arb_op(), 0..20)) {
            let c = Compound { ops };
            let manual_ok = c.ops.iter().enumerate().all(|(i, op)| {
                let args = match op {
                    CosyOp::Syscall { args, .. } | CosyOp::CallUser { args, .. } => args,
                };
                args.iter().all(|a| match a {
                    CosyArg::ResultOf(j) => (*j as usize) < i,
                    _ => true,
                })
            });
            prop_assert_eq!(c.validate().is_ok(), manual_ok);
        }
    }
}
