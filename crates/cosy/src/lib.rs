//! `cosy` — Compound System Calls (§2.3, the paper's primary contribution).
//!
//! Cosy lets an application execute a whole code region of system calls
//! (and even user-supplied functions) inside the kernel, paying **one**
//! user↔kernel crossing instead of one per call, and moving data through
//! **shared buffers** instead of copying it across the boundary.
//!
//! The three components, mirroring the paper:
//!
//! * **Cosy-GCC** ([`gcc`]) — finds `COSY_START;`/`COSY_END;` regions in KC
//!   source (via `kclang`), extracts each statement into a compound
//!   operation, resolves dataflow between operations (an argument that is
//!   the output of an earlier operation becomes a *result reference*), and
//!   assigns buffer variables space in the shared data buffer — the
//!   automatic zero-copy detection.
//! * **Cosy-Lib** ([`builder`]) — the runtime API that assembles and
//!   encodes compounds into the shared compound buffer.
//! * **Cosy kernel extension** ([`exec`]) — decodes the compound and runs
//!   each operation in turn via the in-kernel syscall entry points,
//!   enforcing safety: a preemption **watchdog** kills compounds that
//!   exceed their kernel-time budget, and user functions run under x86
//!   segmentation **isolation modes A and B** ([`exec::IsolationMode`]).
//!
//! Shared memory ([`buffers::SharedRegion`]) maps the same physical frames
//! into both the user and kernel address spaces, so compound encoding and
//! data movement between operations genuinely cross no boundary.

#![forbid(unsafe_code)]

pub mod buffers;
pub mod builder;
pub mod cache;
pub mod compound;
pub mod exec;
pub mod gcc;
pub mod hosts;
pub mod txn;

pub use buffers::SharedRegion;
pub use builder::CompoundBuilder;
pub use cache::{CacheStats, TranslationCache};
pub use compound::{Compound, CosyArg, CosyCall, CosyOp};
pub use exec::{
    CosyError, CosyExtension, CosyOptions, FallbackMode, IsolationMode, ProgramId,
};
pub use gcc::{extract_compound, CosyGccError, ExtractedRegion};
pub use hosts::{KernelHost, UserHost};
pub use txn::{UndoEntry, UndoLog};
