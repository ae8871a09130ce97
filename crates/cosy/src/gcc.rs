//! Cosy-GCC: compound extraction from marked KC source.
//!
//! §2.3: *"Users need to identify the bottleneck code segments and mark
//! them with the Cosy specific constructs COSY_START and COSY_END. This
//! marked code is parsed and the statements within the delimiters are
//! encoded into the Cosy language. ... Cosy-GCC also resolves dependencies
//! among parameters of the Cosy operations, and determines if the input
//! parameter of the operations is the output of any of the previous
//! operations."*
//!
//! The pass restricts the region to the safe subset (linear sequences of
//! system calls and loaded user functions — *"we limited Cosy to the
//! execution of only a subset of C in the kernel"*); anything else is
//! rejected at compile time. Array variables used as I/O buffers are
//! assigned space in the shared data buffer automatically — the zero-copy
//! detection.

use std::collections::HashMap;
use std::fmt;

use kclang::{Block, Expr, ExprKind, Program, SourceLoc, Stmt, Type};
use ksim::SimResult;

use crate::builder::{CompoundBuilder, OpHandle};
use crate::compound::{CosyArg, CosyCall};

/// Extraction failures (compile-time rejections).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosyGccError {
    NoSuchFunction(String),
    /// The function contains no COSY_START marker.
    NoRegion,
    /// COSY_START without a matching COSY_END at the same nesting level.
    UnclosedRegion(SourceLoc),
    /// A statement inside the region is outside the safe subset.
    Unsupported { loc: SourceLoc, what: String },
    /// An argument expression cannot be encoded.
    BadArg { loc: SourceLoc, what: String },
    /// A variable's definition could not be found.
    UnknownVar(String),
}

impl fmt::Display for CosyGccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosyGccError::NoSuchFunction(n) => write!(f, "no such function '{n}'"),
            CosyGccError::NoRegion => write!(f, "no COSY_START region found"),
            CosyGccError::UnclosedRegion(l) => write!(f, "COSY_START at {l} never closed"),
            CosyGccError::Unsupported { loc, what } => {
                write!(f, "unsupported in compound at {loc}: {what}")
            }
            CosyGccError::BadArg { loc, what } => write!(f, "bad argument at {loc}: {what}"),
            CosyGccError::UnknownVar(n) => write!(f, "unknown variable '{n}'"),
        }
    }
}

impl std::error::Error for CosyGccError {}

/// A template argument, resolved at instantiation time.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateArg {
    /// Constant.
    Lit(i64),
    /// Value captured from the surrounding user code at build time.
    Capture(String),
    /// The result of the (earlier) op bound to this region variable.
    ResultVar(String),
    /// A region array variable placed in the shared data buffer.
    Buf { var: String, len: u32 },
    /// A string literal staged into the data buffer.
    Str(String),
}

/// A template operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateOp {
    Syscall { call: CosyCall, args: Vec<TemplateArg>, result_var: Option<String> },
    CallUser { func: String, args: Vec<TemplateArg>, result_var: Option<String> },
}

/// The compile-time product of Cosy-GCC for one marked region.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExtractedRegion {
    pub ops: Vec<TemplateOp>,
    /// Variables whose runtime values must be supplied at build time.
    pub captures: Vec<String>,
    /// Array variables assigned shared-buffer space: (name, bytes).
    pub buffers: Vec<(String, u32)>,
}

impl ExtractedRegion {
    /// Instantiate the region into a concrete compound using `builder`.
    /// `captures` supplies the runtime value of every captured variable.
    /// Returns the handle bound to each result variable, plus the shared
    /// data-buffer placement of each buffer variable.
    pub fn instantiate(
        &self,
        builder: &mut CompoundBuilder<'_>,
        captures: &HashMap<String, i64>,
    ) -> SimResult<(HashMap<String, OpHandle>, HashMap<String, CosyArg>)> {
        // Lay out buffers first (stable offsets regardless of op order).
        let mut buf_args: HashMap<String, CosyArg> = HashMap::new();
        for (name, len) in &self.buffers {
            buf_args.insert(name.clone(), builder.alloc_buf(*len)?);
        }
        let mut results: HashMap<String, OpHandle> = HashMap::new();
        for op in &self.ops {
            let (args, result_var) = match op {
                TemplateOp::Syscall { args, result_var, .. }
                | TemplateOp::CallUser { args, result_var, .. } => (args, result_var),
            };
            let mut concrete = Vec::with_capacity(args.len());
            for a in args {
                concrete.push(match a {
                    TemplateArg::Lit(v) => CosyArg::Lit(*v),
                    TemplateArg::Capture(name) => CosyArg::Lit(
                        *captures
                            .get(name)
                            .ok_or(ksim::SimError::Invalid("missing capture value"))?,
                    ),
                    TemplateArg::ResultVar(name) => {
                        let h = results
                            .get(name)
                            .ok_or(ksim::SimError::Invalid("result var not yet bound"))?;
                        CosyArg::ResultOf(h.0)
                    }
                    TemplateArg::Buf { var, .. } => *buf_args
                        .get(var)
                        .ok_or(ksim::SimError::Invalid("buffer var not laid out"))?,
                    TemplateArg::Str(s) => builder.stage_path(s)?,
                });
            }
            let handle = match op {
                TemplateOp::Syscall { call, .. } => builder.syscall(*call, concrete),
                TemplateOp::CallUser { func, .. } => builder.call_user(0, func, concrete),
            };
            if let Some(var) = result_var {
                results.insert(var.clone(), handle);
            }
        }
        Ok((results, buf_args))
    }
}

/// Run the Cosy-GCC extraction pass over `func` in `prog`.
pub fn extract_compound(prog: &Program, func: &str) -> Result<ExtractedRegion, CosyGccError> {
    let f = prog
        .func(func)
        .ok_or_else(|| CosyGccError::NoSuchFunction(func.to_string()))?;

    // Variable types visible to the region: params, top-level locals,
    // globals.
    let mut var_types: HashMap<String, Type> = HashMap::new();
    for g in &prog.globals {
        var_types.insert(g.name.to_string(), g.ty.clone());
    }
    for (n, t) in &f.params {
        var_types.insert(n.to_string(), t.clone());
    }
    for s in &f.body.stmts {
        if let Stmt::Decl(d) = s {
            var_types.insert(d.name.to_string(), d.ty.clone());
        }
    }

    let region = find_region(&f.body)?;
    let mut out = ExtractedRegion::default();
    let mut bound: Vec<String> = Vec::new();

    for stmt in region {
        let (target, call_expr) = match stmt {
            Stmt::Expr(e) => match &e.kind {
                ExprKind::Assign(lhs, rhs) => match (&lhs.kind, &rhs.kind) {
                    (ExprKind::Var(v), ExprKind::Call(_, _)) => (Some(v.to_string()), rhs.as_ref()),
                    _ => {
                        return Err(CosyGccError::Unsupported {
                            loc: e.loc,
                            what: "only `var = call(...)` assignments".into(),
                        })
                    }
                },
                ExprKind::Call(_, _) => (None, e),
                _ => {
                    return Err(CosyGccError::Unsupported {
                        loc: e.loc,
                        what: "only call statements".into(),
                    })
                }
            },
            Stmt::Decl(d) => match &d.init {
                Some(init) if matches!(init.kind, ExprKind::Call(_, _)) => {
                    (Some(d.name.to_string()), init)
                }
                _ => {
                    return Err(CosyGccError::Unsupported {
                        loc: d.loc,
                        what: "declarations in regions must be initialised by a call".into(),
                    })
                }
            },
            other => {
                return Err(CosyGccError::Unsupported {
                    loc: other.loc(),
                    what: "control flow is outside the Cosy subset".into(),
                })
            }
        };

        let ExprKind::Call(name, args) = &call_expr.kind else { unreachable!() };
        let targs = args
            .iter()
            .map(|a| encode_arg(a, &var_types, &bound, &mut out))
            .collect::<Result<Vec<_>, _>>()?;

        if let Some(call) = CosyCall::from_intrinsic(name) {
            if targs.len() != call.arity() {
                return Err(CosyGccError::BadArg {
                    loc: call_expr.loc,
                    what: format!("{name} expects {} args", call.arity()),
                });
            }
            out.ops.push(TemplateOp::Syscall { call, args: targs, result_var: target.clone() });
        } else if prog.func(name).is_some() {
            out.ops.push(TemplateOp::CallUser {
                func: name.to_string(),
                args: targs,
                result_var: target.clone(),
            });
        } else {
            return Err(CosyGccError::Unsupported {
                loc: call_expr.loc,
                what: format!("call to '{name}' (not a syscall or program function)"),
            });
        }
        if let Some(v) = target {
            bound.push(v);
        }
    }
    Ok(out)
}

/// Locate the statements between COSY_START and COSY_END at the top level
/// of the function body.
fn find_region(body: &Block) -> Result<&[Stmt], CosyGccError> {
    let mut start = None;
    for (i, s) in body.stmts.iter().enumerate() {
        match s {
            Stmt::CosyStart(loc) => {
                if start.is_some() {
                    return Err(CosyGccError::Unsupported {
                        loc: *loc,
                        what: "nested COSY_START".into(),
                    });
                }
                start = Some((i, *loc));
            }
            Stmt::CosyEnd(_) => {
                let (s0, _) = start.ok_or(CosyGccError::NoRegion)?;
                return Ok(&body.stmts[s0 + 1..i]);
            }
            _ => {}
        }
    }
    match start {
        Some((_, loc)) => Err(CosyGccError::UnclosedRegion(loc)),
        None => Err(CosyGccError::NoRegion),
    }
}

fn encode_arg(
    e: &Expr,
    var_types: &HashMap<String, Type>,
    bound: &[String],
    out: &mut ExtractedRegion,
) -> Result<TemplateArg, CosyGccError> {
    match &e.kind {
        ExprKind::IntLit(v) => Ok(TemplateArg::Lit(*v)),
        ExprKind::CharLit(c) => Ok(TemplateArg::Lit(*c as i64)),
        ExprKind::StrLit(s) => Ok(TemplateArg::Str(s.clone())),
        ExprKind::Unary(kclang::UnOp::Neg, inner) => match &inner.kind {
            ExprKind::IntLit(v) => Ok(TemplateArg::Lit(-v)),
            _ => Err(CosyGccError::BadArg { loc: e.loc, what: "non-constant negation".into() }),
        },
        ExprKind::Var(name) => {
            let name: &str = name;
            if bound.iter().any(|b| b == name) {
                // Output of an earlier op: the dependency resolution.
                return Ok(TemplateArg::ResultVar(name.to_string()));
            }
            let ty = var_types
                .get(name)
                .ok_or_else(|| CosyGccError::UnknownVar(name.to_string()))?;
            match ty {
                Type::Array(_, _) => {
                    let len = ty.size() as u32;
                    if !out.buffers.iter().any(|(n, _)| n == name) {
                        out.buffers.push((name.to_string(), len));
                    }
                    Ok(TemplateArg::Buf { var: name.to_string(), len })
                }
                _ => {
                    if !out.captures.iter().any(|c| c == name) {
                        out.captures.push(name.to_string());
                    }
                    Ok(TemplateArg::Capture(name.to_string()))
                }
            }
        }
        _ => Err(CosyGccError::BadArg {
            loc: e.loc,
            what: "argument must be a literal, variable, or buffer".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kclang::parse_program;

    const ORC: &str = r#"
        int copy_file(int dummy) {
            int flags = 0;
            char buf[4096];
            COSY_START;
            int fd = sys_open("/src", flags);
            int n = sys_read(fd, buf, 4096);
            int fd2 = sys_open("/dst", 66);
            int m = sys_write(fd2, buf, n);
            sys_close(fd);
            sys_close(fd2);
            COSY_END;
            return m;
        }
    "#;

    #[test]
    fn extracts_the_orc_pipeline_with_dependencies() {
        let prog = parse_program(ORC).unwrap();
        let r = extract_compound(&prog, "copy_file").unwrap();
        assert_eq!(r.ops.len(), 6);
        assert_eq!(r.captures, vec!["flags".to_string()]);
        assert_eq!(r.buffers, vec![("buf".to_string(), 4096)]);

        // Op 1 (read) uses fd = result of op 0.
        let TemplateOp::Syscall { call, args, result_var } = &r.ops[1] else { panic!() };
        assert_eq!(*call, CosyCall::Read);
        assert_eq!(args[0], TemplateArg::ResultVar("fd".into()));
        assert_eq!(args[1], TemplateArg::Buf { var: "buf".into(), len: 4096 });
        assert_eq!(result_var.as_deref(), Some("n"));

        // Op 3 (write) chains both fd2 and n — zero-copy through `buf`.
        let TemplateOp::Syscall { args, .. } = &r.ops[3] else { panic!() };
        assert_eq!(args[0], TemplateArg::ResultVar("fd2".into()));
        assert_eq!(args[1], TemplateArg::Buf { var: "buf".into(), len: 4096 });
        assert_eq!(args[2], TemplateArg::ResultVar("n".into()));
    }

    #[test]
    fn missing_or_unclosed_regions() {
        let p = parse_program("int f() { return 0; }").unwrap();
        assert_eq!(extract_compound(&p, "f"), Err(CosyGccError::NoRegion));
        let p = parse_program("int f() { COSY_START; sys_getpid(); return 0; }").unwrap();
        assert!(matches!(extract_compound(&p, "f"), Err(CosyGccError::UnclosedRegion(_))));
        assert!(matches!(
            extract_compound(&p, "nope"),
            Err(CosyGccError::NoSuchFunction(_))
        ));
    }

    #[test]
    fn control_flow_in_region_is_rejected() {
        let p = parse_program(
            r#"
            int f(int x) {
                COSY_START;
                if (x) { sys_getpid(); }
                COSY_END;
                return 0;
            }
            "#,
        )
        .unwrap();
        let err = extract_compound(&p, "f").unwrap_err();
        assert!(matches!(err, CosyGccError::Unsupported { .. }));
        assert!(err.to_string().contains("control flow"));
    }

    #[test]
    fn arbitrary_expressions_as_args_are_rejected() {
        let p = parse_program(
            r#"
            int f(int x) {
                COSY_START;
                sys_close(x + 1);
                COSY_END;
                return 0;
            }
            "#,
        )
        .unwrap();
        assert!(matches!(extract_compound(&p, "f"), Err(CosyGccError::BadArg { .. })));
    }

    #[test]
    fn user_function_calls_become_calluser_ops() {
        let p = parse_program(
            r#"
            int twice(int v) { return v * 2; }
            int f() {
                COSY_START;
                int pid = sys_getpid();
                int d = twice(pid);
                COSY_END;
                return d;
            }
            "#,
        )
        .unwrap();
        let r = extract_compound(&p, "f").unwrap();
        assert_eq!(r.ops.len(), 2);
        let TemplateOp::CallUser { func, args, .. } = &r.ops[1] else { panic!() };
        assert_eq!(func, "twice");
        assert_eq!(args[0], TemplateArg::ResultVar("pid".into()));
    }

    #[test]
    fn unknown_function_calls_are_rejected() {
        let p = parse_program(
            r#"
            int f() {
                COSY_START;
                mystery(1);
                COSY_END;
                return 0;
            }
            "#,
        )
        .unwrap();
        // kclang's typecheck would reject this too, but Cosy-GCC must not
        // encode calls it cannot resolve.
        assert!(matches!(extract_compound(&p, "f"), Err(CosyGccError::Unsupported { .. })));
    }

    #[test]
    fn instantiation_resolves_captures_and_buffers() {
        use crate::buffers::SharedRegion;
        use ksim::{Machine, MachineConfig};
        use std::sync::Arc;

        let prog = parse_program(ORC).unwrap();
        let r = extract_compound(&prog, "copy_file").unwrap();

        let m = Arc::new(Machine::new(MachineConfig::default()));
        let pid = m.spawn_process();
        let cb = SharedRegion::new(m.clone(), pid, 1, 0).unwrap();
        let db = SharedRegion::new(m.clone(), pid, 4, 1).unwrap();
        let mut builder = CompoundBuilder::new(&cb, &db);

        let mut caps = HashMap::new();
        caps.insert("flags".to_string(), 0i64);
        let (results, bufs) = r.instantiate(&mut builder, &caps).unwrap();
        assert!(results.contains_key("fd"));
        assert!(results.contains_key("m"));
        assert!(bufs.contains_key("buf"));
        let c = builder.finish().unwrap();
        assert_eq!(c.ops.len(), 6);
        c.validate().unwrap();

        // Missing capture is an error.
        let mut builder = CompoundBuilder::new(&cb, &db);
        assert!(r.instantiate(&mut builder, &HashMap::new()).is_err());
    }
}
