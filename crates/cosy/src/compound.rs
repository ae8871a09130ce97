//! The compound: Cosy's intermediate representation.
//!
//! A compound is a linear sequence of operations with three argument kinds:
//! literal values, references to the shared data buffer, and references to
//! the *result of an earlier operation* — the dependency form Cosy-GCC
//! resolves automatically. The compound is byte-encoded into the shared
//! compound buffer, so handing it to the kernel copies nothing.

use std::fmt;

/// The system calls executable inside a compound: the op kinds that
/// have a wire code (see `ksyscall`'s op table).
pub use ksyscall::OpKind as CosyCall;

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
    /// Invoke a system call. A `call` with no wire code encodes as code
    /// 0, which decoding rejects.
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
                    out.push(call.wire().unwrap_or(0));
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

    /// Decode from the shared compound buffer. Bytes past the encoded
    /// compound are ignored.
    pub fn decode(buf: &[u8]) -> Result<Compound, DecodeError> {
        let mut c = Cursor { buf, pos: 0 };
        let n = op_count(&mut c)?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            match c.u8()? {
                0 => {
                    let call = call_code(&mut c)?;
                    let argc = arg_count(&mut c)?;
                    let args = decode_args(&mut c, argc)?;
                    check_arity(call, argc)?;
                    ops.push(CosyOp::Syscall { call, args });
                }
                1 => {
                    let prog = c.u32()?;
                    let namelen = c.u8()? as usize;
                    let name = c.bytes(namelen)?;
                    let func = String::from_utf8_lossy(name).into_owned();
                    let argc = arg_count(&mut c)?;
                    let args = decode_args(&mut c, argc)?;
                    ops.push(CosyOp::CallUser { prog, func, args });
                }
                _ => return Err(DecodeError::new("bad op tag")),
            }
        }
        Ok(Compound { ops })
    }

    /// Length of the compound encoded at the front of `buf`: a skip-scan
    /// over the same wire grammar as [`Compound::decode`] that allocates
    /// nothing. It fails exactly when `decode` fails, with the same error,
    /// so `buf[..wire_len(buf)?]` is the part of a shared buffer that
    /// determines the decoded compound (the translation cache's key).
    pub fn wire_len(buf: &[u8]) -> Result<usize, DecodeError> {
        let mut c = Cursor { buf, pos: 0 };
        for _ in 0..op_count(&mut c)? {
            match c.u8()? {
                0 => {
                    let call = call_code(&mut c)?;
                    let argc = arg_count(&mut c)?;
                    for _ in 0..argc {
                        read_arg(&mut c)?;
                    }
                    check_arity(call, argc)?;
                }
                1 => {
                    c.u32()?;
                    let namelen = c.u8()? as usize;
                    c.bytes(namelen)?;
                    for _ in 0..arg_count(&mut c)? {
                        read_arg(&mut c)?;
                    }
                }
                _ => return Err(DecodeError::new("bad op tag")),
            }
        }
        Ok(c.pos)
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

// Wire-grammar pieces shared by `decode` and `wire_len`.

fn op_count(c: &mut Cursor<'_>) -> Result<usize, DecodeError> {
    let n = c.u32()? as usize;
    if n > 10_000 {
        return Err(DecodeError::new("unreasonable op count"));
    }
    Ok(n)
}

fn call_code(c: &mut Cursor<'_>) -> Result<CosyCall, DecodeError> {
    CosyCall::from_wire(c.u8()?).ok_or_else(|| DecodeError::new("bad call code"))
}

fn arg_count(c: &mut Cursor<'_>) -> Result<usize, DecodeError> {
    let argc = c.u8()? as usize;
    if argc > 8 {
        return Err(DecodeError::new("too many args"));
    }
    Ok(argc)
}

fn check_arity(call: CosyCall, argc: usize) -> Result<(), DecodeError> {
    if argc != call.arity() {
        return Err(DecodeError::new("arity mismatch"));
    }
    Ok(())
}

fn decode_args(c: &mut Cursor<'_>, argc: usize) -> Result<Vec<CosyArg>, DecodeError> {
    let mut args = Vec::with_capacity(argc);
    for _ in 0..argc {
        args.push(read_arg(c)?);
    }
    Ok(args)
}

fn read_arg(c: &mut Cursor<'_>) -> Result<CosyArg, DecodeError> {
    Ok(match c.u8()? {
        0 => CosyArg::Lit(c.i64()?),
        1 => CosyArg::ResultOf(c.u32()?),
        2 => CosyArg::BufRef { offset: c.u32()?, len: c.u32()? },
        _ => return Err(DecodeError::new("bad arg tag")),
    })
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
        b.extend_from_slice(&[0, 3, 0]);
        assert!(Compound::decode(&b).is_err());
    }

    /// The compound ABI, pinned per call: wire code, `sys_*` intrinsic
    /// name and arity. Changing one changes compound bytes and cache keys.
    #[test]
    fn op_wire_abi_is_pinned() {
        use CosyCall::*;
        #[rustfmt::skip]
        let pinned = [
            (Open, 1, "sys_open", 2), (Close, 2, "sys_close", 1), (Read, 3, "sys_read", 3),
            (Write, 4, "sys_write", 3), (Lseek, 5, "sys_lseek", 3), (Stat, 6, "sys_stat", 2),
            (Fstat, 7, "sys_fstat", 2), (Getpid, 8, "sys_getpid", 0), (Mkdir, 9, "sys_mkdir", 1),
            (Unlink, 10, "sys_unlink", 1), (Readdir, 11, "sys_readdir", 3),
            (Accept, 12, "sys_accept", 1), (Recv, 13, "sys_recv", 3), (Send, 14, "sys_send", 3),
            (Sendfile, 15, "sys_sendfile", 3), (Shutdown, 16, "sys_shutdown", 1),
            (Fsync, 17, "sys_fsync", 2),
        ];
        for (call, wire, name, arity) in pinned {
            let got = (call.wire(), call.intrinsic(), call.arity());
            assert_eq!(got, (Some(wire), Some(name), arity));
            let back = (CosyCall::from_wire(wire), CosyCall::from_intrinsic(name));
            assert_eq!(back, (Some(call), Some(call)));
        }
        let coded = CosyCall::ALL.into_iter().filter(|c| c.wire().is_some()).count();
        assert_eq!(coded, pinned.len(), "only these ops have a wire code");
        assert_eq!((CosyCall::from_wire(0), CosyCall::from_wire(18)), (None, None));
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
                let call = CosyCall::from_wire(sel % 17 + 1).expect("1..=17 are valid");
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

        /// The skip-scan measures exactly the encoded compound, whatever
        /// follows it in the buffer.
        #[test]
        fn wire_len_measures_the_encoding(
            ops in proptest::collection::vec(arb_op(), 0..24),
            junk in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let enc = Compound { ops }.encode();
            let mut buf = enc.clone();
            buf.extend_from_slice(&junk);
            prop_assert_eq!(Compound::wire_len(&buf), Ok(enc.len()));
        }

        /// On arbitrary and truncated bytes, `wire_len` fails exactly when
        /// `decode` does, with the same error.
        #[test]
        fn wire_len_fails_exactly_when_decode_fails(
            garbage in proptest::collection::vec(any::<u8>(), 0..256),
            ops in proptest::collection::vec(arb_op(), 1..12),
            cut in any::<u16>(),
        ) {
            let enc = Compound { ops }.encode();
            let truncated = &enc[..cut as usize % enc.len()];
            for buf in [&garbage[..], truncated] {
                let decoded = Compound::decode(buf);
                let measured = Compound::wire_len(buf);
                prop_assert_eq!(measured.as_ref().err(), decoded.as_ref().err());
                if let (Ok(c), Ok(n)) = (decoded, measured) {
                    prop_assert_eq!(Compound::decode(&buf[..n]), Ok(c), "the prefix decodes alike");
                }
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
