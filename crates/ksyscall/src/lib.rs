//! `ksyscall` — the system-call layer.
//!
//! Classic calls each pay one user↔kernel crossing plus boundary copies;
//! the consolidated calls of §2.2 (`readdirplus`, `open_read_close`,
//! `open_write_close`, `open_fstat`) do the work of a whole sequence in a
//! single crossing. Both sets run over the same `kvfs` substrate, so the
//! difference the benchmarks measure is exactly the crossing/copy traffic —
//! the quantity the paper's speedups come from.
//!
//! The in-kernel entry points (`k_open`, `k_read`, ...) are public because
//! the Cosy kernel extension (§2.3) invokes system calls *from inside the
//! kernel*: "the system call invocation by the Cosy kernel module is the
//! same as a normal process and hence all the necessary checks are
//! performed" — minus the crossing, which is the whole point.

#![forbid(unsafe_code)]

pub mod fd;
pub mod layer;
pub mod op;
pub mod uring;
pub mod wire;

#[cfg(test)]
mod prog_tests;

pub use fd::{FdTable, OpenFile, OpenFlags};
pub use layer::{SyscallLayer, USER_STUB_CYCLES};
pub use op::{
    ArgSource, FixedBufs, KOp, Moved, OpError, OpKind, OpResult, PathRef, PathText,
    Transport, UserMem,
};
pub use wire::{parse_dirents, parse_rdp_entries, RDP_ENTRY_WIRE_BYTES};
