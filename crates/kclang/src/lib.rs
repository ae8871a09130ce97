//! `kclang` — a from-scratch C-subset compiler and interpreter.
//!
//! This is the stand-in for the paper's GCC derivatives: **Cosy-GCC**
//! (§2.3) extracts marked code regions into compounds, and **KGCC** (§3.4)
//! inserts runtime bounds checks. Both operate on this crate's AST and run
//! programs on its bytecode VM, which executes against the *simulated*
//! machine: every load and store goes through `ksim`'s MMU (so Kefence
//! guard pages and Cosy segment limits genuinely fire), and execution can
//! be budgeted (so the Cosy watchdog genuinely kills runaway loops).
//!
//! The language ("KC") covers what the paper's kernel-bound code regions
//! need: `int`/`char` scalars, pointers, fixed arrays, string literals,
//! arithmetic/logic, `if`/`while`/`for`/`return`, function definitions and
//! calls, `malloc`/`free`, and system-call intrinsics (`sys_open`,
//! `sys_read`, ...). `COSY_START;`/`COSY_END;` statements mark regions for
//! compound extraction, exactly like the paper's source annotations.
//!
//! Pipeline: [`lexer`] → [`parser`] → typed AST ([`ast`], [`types`]) →
//! [`bytecode`] → [`vm`] with pluggable [`hooks`] (KGCC checks), memory
//! accessors (flat vs segmented, for Cosy isolation modes), and execution
//! budgets ([`exec`]). The tree-walking [`interp`] is the VM's semantic
//! reference, kept for the parity tests.
//!
//! # Example
//!
//! ```
//! use kclang::parse_program;
//!
//! let prog = parse_program(r#"
//!     int sum_to(int n) {
//!         int acc = 0;
//!         int i;
//!         for (i = 1; i <= n; i = i + 1) { acc = acc + i; }
//!         return acc;
//!     }
//! "#).unwrap();
//! assert_eq!(prog.funcs.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod arena;
pub mod ast;
pub mod bytecode;
pub mod exec;
pub mod hooks;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sym;
pub mod types;
pub mod vm;

pub use ast::{
    BinOp, Block, Decl, Expr, ExprKind, Func, Program, SourceLoc, Stmt, Type, UnOp,
};
pub use bytecode::{
    compile, compile_with_filter, Access, CompileError, FuncInfo, GlobalSlot, Module, Op, TrapKind,
};
pub use sym::Sym;
pub use hooks::{CheckViolation, MemHook, ViolationKind};
pub use exec::{
    ExecConfig, ExecOutcome, InterpError, MemCtx, SegMode, SyscallHost, TickFn, MAX_CALL_DEPTH,
};
pub use interp::Interp;
pub use vm::{Core, Domain, Flow, Vm, VmBuffers};
pub use lexer::{lex, Token, TokenKind};
pub use parser::{parse_program, ParseError};
pub use pretty::{ast_eq, pretty_program};
pub use types::{typecheck, TypeError, TypeInfo};
