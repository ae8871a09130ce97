//! `kgcc` — the bounds-checking compiler runtime (§3.4).
//!
//! KGCC descends from Jones & Kelly's Bounds-Checking GCC: the compiler
//! inserts checks before every operation that can violate bounds (pointer
//! arithmetic, dereferences, indexing, `free`), and the runtime keeps **a
//! map of currently allocated memory in a splay tree; the tree is consulted
//! before any memory operation**.
//!
//! This crate provides the pieces, layered on `kclang`'s hook seam:
//!
//! * [`splay::SplayTree`] — the classic top-down splay tree keyed by object
//!   base, with containment queries. Locality makes it nearly optimal
//!   single-threaded; a shared-lock variant exhibits the multi-threaded
//!   degradation the paper discusses (ablation A3).
//! * [`objmap::ObjectMap`] — live objects (global/stack/heap), retained
//!   freed heap objects (use-after-free detection), and **out-of-bounds
//!   peer objects**: temporary OOB addresses produced by pointer arithmetic
//!   are legalised as peers that permit further arithmetic but never
//!   dereference, fixing BCC's `ptr+i-j` problem without the
//!   replacement-address scheme's downsides.
//! * [`hook::KgccHook`] — the runtime checks themselves, implementing
//!   [`kclang::MemHook`]: every enabled check charges cycles and consults
//!   the map; violations abort the program with a precise report.
//! * [`plan::CheckPlan`] — compile-time check elimination: provably-safe
//!   constant indexing and common-subexpression duplicate checks are
//!   removed (the paper reports CSE alone halved inserted checks).
//!   [`compile_planned`] applies the plan when the module is compiled to
//!   bytecode; the hook never sees it.
//! * [`deinstrument::Deinstrument`] — the paper's dynamic deinstrumentation:
//!   a check site that has executed cleanly `N` times disables itself,
//!   "reclaiming performance quickly as the confidence level for
//!   frequently-executed code becomes acceptable".

pub mod bytecode;
pub mod deinstrument;
pub mod hook;
pub mod objmap;
pub mod plan;
pub mod rules;
pub mod splay;

pub use bytecode::{apply_deinstrumentation, compile_planned};
pub use deinstrument::Deinstrument;
pub use hook::{KgccConfig, KgccHook, KgccReport};
pub use objmap::{ObjKind, Object, ObjectMap};
pub use plan::CheckPlan;
pub use rules::{apply_rules, collect_sites, parse_rules, Action, Rule, SiteKind};
pub use splay::SplayTree;
