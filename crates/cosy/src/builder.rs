//! Cosy-Lib: the runtime compound-assembly API.
//!
//! §2.3: *"The second component of Cosy, Cosy-Lib, provides utility
//! functions to create a compound. Statements in the user-marked code
//! segment are changed by the Cosy-GCC to call these utility functions."*
//!
//! The builder manages both shared buffers: operations are appended and
//! encoded into the compound buffer, and data (paths, I/O space) is placed
//! in the shared data buffer with a simple bump layout.

use ksim::SimResult;

use crate::buffers::SharedRegion;
use crate::compound::{Compound, CosyArg, CosyCall, CosyOp};

/// Handle to an operation already added to the compound; use as a
/// dependency via [`CompoundBuilder::result_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHandle(pub u32);

/// Assembles compounds and lays out the shared data buffer.
pub struct CompoundBuilder<'r> {
    compound_buf: &'r SharedRegion,
    data_buf: &'r SharedRegion,
    ops: Vec<CosyOp>,
    data_cursor: u32,
}

impl<'r> CompoundBuilder<'r> {
    pub fn new(compound_buf: &'r SharedRegion, data_buf: &'r SharedRegion) -> Self {
        CompoundBuilder { compound_buf, data_buf, ops: Vec::new(), data_cursor: 0 }
    }

    /// Literal argument.
    pub fn lit(v: i64) -> CosyArg {
        CosyArg::Lit(v)
    }

    /// Dependency on a previous operation's result.
    pub fn result_of(h: OpHandle) -> CosyArg {
        CosyArg::ResultOf(h.0)
    }

    /// Reserve `len` bytes in the shared data buffer; returns the `BufRef`
    /// argument addressing it.
    pub fn alloc_buf(&mut self, len: u32) -> SimResult<CosyArg> {
        let offset = self.data_cursor;
        // Keep 8-byte alignment for stat records etc.
        let padded = len.next_multiple_of(8);
        self.data_buf.check_ref(offset, padded)?;
        self.data_cursor += padded;
        Ok(CosyArg::BufRef { offset, len })
    }

    /// Place `bytes` (e.g. a path, NUL-terminated) into the data buffer via
    /// ordinary user-memory writes; returns its `BufRef`.
    pub fn stage_bytes(&mut self, bytes: &[u8]) -> SimResult<CosyArg> {
        let arg = self.alloc_buf(bytes.len() as u32 + 1)?;
        let CosyArg::BufRef { offset, .. } = arg else { unreachable!() };
        self.data_buf.user_write(offset as usize, bytes)?;
        self.data_buf.user_write(offset as usize + bytes.len(), &[0])?;
        Ok(CosyArg::BufRef { offset, len: bytes.len() as u32 + 1 })
    }

    /// Stage a NUL-terminated path string.
    pub fn stage_path(&mut self, path: &str) -> SimResult<CosyArg> {
        self.stage_bytes(path.as_bytes())
    }

    /// Append a system-call operation.
    pub fn syscall(&mut self, call: CosyCall, args: Vec<CosyArg>) -> OpHandle {
        let ok = call.wire().is_some() && args.len() == call.arity();
        debug_assert!(ok, "{call:?} needs a wire code and {} args", call.arity());
        self.ops.push(CosyOp::Syscall { call, args });
        OpHandle(self.ops.len() as u32 - 1)
    }

    /// Append a user-function invocation (program must be loaded in the
    /// kernel extension).
    pub fn call_user(&mut self, prog: u32, func: &str, args: Vec<CosyArg>) -> OpHandle {
        self.ops.push(CosyOp::CallUser { prog, func: func.to_string(), args });
        OpHandle(self.ops.len() as u32 - 1)
    }

    /// Operations added so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Encode the compound into the shared compound buffer (user-side
    /// write: no boundary copy) and return it for submission.
    pub fn finish(self) -> SimResult<Compound> {
        let compound = Compound { ops: self.ops };
        let bytes = compound.encode();
        if bytes.len() > self.compound_buf.len() {
            return Err(ksim::SimError::Invalid("compound exceeds compound buffer"));
        }
        self.compound_buf.user_write(0, &bytes)?;
        Ok(compound)
    }
}

impl std::fmt::Debug for CompoundBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompoundBuilder")
            .field("ops", &self.ops.len())
            .field("data_used", &self.data_cursor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{Machine, MachineConfig};
    use std::sync::Arc;

    fn regions() -> (Arc<Machine>, SharedRegion, SharedRegion) {
        let m = Arc::new(Machine::new(MachineConfig::default()));
        let pid = m.spawn_process();
        let cb = SharedRegion::new(m.clone(), pid, 1, 0).unwrap();
        let db = SharedRegion::new(m.clone(), pid, 4, 1).unwrap();
        (m, cb, db)
    }

    #[test]
    fn builds_an_open_read_close_compound() {
        let (_m, cb, db) = regions();
        let mut b = CompoundBuilder::new(&cb, &db);
        let path = b.stage_path("/etc/data").unwrap();
        let buf = b.alloc_buf(4096).unwrap();
        let fd = b.syscall(CosyCall::Open, vec![path, CompoundBuilder::lit(0)]);
        let n = b.syscall(
            CosyCall::Read,
            vec![CompoundBuilder::result_of(fd), buf, CompoundBuilder::lit(4096)],
        );
        let _ = n;
        b.syscall(CosyCall::Close, vec![CompoundBuilder::result_of(fd)]);
        assert_eq!(b.len(), 3);
        let c = b.finish().unwrap();
        assert!(c.validate().is_ok());
        // The encoded bytes are readable from the kernel side of the
        // compound buffer, and decode to the same compound.
        let mut bytes = vec![0u8; c.encode().len()];
        cb.kern_read(0, &mut bytes).unwrap();
        assert_eq!(Compound::decode(&bytes).unwrap(), c);
    }

    #[test]
    fn staged_paths_are_visible_to_the_kernel() {
        let (_m, cb, db) = regions();
        let mut b = CompoundBuilder::new(&cb, &db);
        let CosyArg::BufRef { offset, len } = b.stage_path("/x/y").unwrap() else {
            panic!("stage_path must return a BufRef")
        };
        assert_eq!(len, 5, "path + NUL");
        let mut buf = vec![0u8; 5];
        db.kern_read(offset as usize, &mut buf).unwrap();
        assert_eq!(&buf, b"/x/y\0");
    }

    #[test]
    fn data_buffer_allocations_do_not_overlap() {
        let (_m, cb, db) = regions();
        let mut b = CompoundBuilder::new(&cb, &db);
        let a = b.alloc_buf(10).unwrap();
        let c = b.alloc_buf(10).unwrap();
        let (CosyArg::BufRef { offset: o1, .. }, CosyArg::BufRef { offset: o2, .. }) = (a, c)
        else {
            panic!("alloc_buf must return BufRefs")
        };
        assert!(o2 >= o1 + 10);
        assert_eq!(o2 % 8, 0, "aligned");
    }

    #[test]
    fn overflowing_the_data_buffer_is_an_error() {
        let (_m, cb, db) = regions();
        let mut b = CompoundBuilder::new(&cb, &db);
        assert!(b.alloc_buf(4 * 4096).is_ok());
        assert!(b.alloc_buf(1).is_err());
    }

    #[test]
    fn compound_too_big_for_buffer_is_rejected() {
        let (_m, cb, db) = regions();
        let mut b = CompoundBuilder::new(&cb, &db);
        for _ in 0..400 {
            b.syscall(CosyCall::Getpid, vec![]);
        }
        // 400 getpid ops ≈ 400×3+4 bytes — fits in a page easily; add
        // enough to overflow one page.
        for _ in 0..1200 {
            b.syscall(
                CosyCall::Read,
                vec![
                    CompoundBuilder::lit(0),
                    CosyArg::BufRef { offset: 0, len: 8 },
                    CompoundBuilder::lit(8),
                ],
            );
        }
        assert!(b.finish().is_err());
    }
}
