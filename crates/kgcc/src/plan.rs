//! Compile-time check elimination (§3.4's "KGCC employs heuristics to
//! eliminate unnecessary checks").
//!
//! Two of the paper's techniques are implemented:
//!
//! 1. **Provably-safe accesses** — an index into a locally declared array
//!    with a constant subscript that is statically in bounds needs no
//!    runtime check (a generalisation of "KGCC does not check stack objects
//!    whose addresses are not taken").
//! 2. **Common-subexpression elimination of checks** — within one
//!    statement, repeated accesses to the same `base[index]` shape are
//!    checked once; the duplicates are eliminated. The paper reports this
//!    "allowed us to reduce the number of checks inserted by more than half
//!    for typical kernel code".
//!
//! The result is a [`CheckPlan`]: a bitmap over expression ids consumed by
//! [`compile_planned`](crate::compile_planned), which emits a checked op
//! only at the sites it enables.

use std::collections::{HashMap, HashSet};

use kclang::{Block, Expr, ExprKind, Program, Stmt, Type, TypeInfo, UnOp};

/// Which check sites are enabled, plus elimination accounting.
#[derive(Debug, Clone)]
pub struct CheckPlan {
    enabled: Vec<bool>,
    /// Sites that are checkable operations at all.
    pub total_sites: usize,
    /// Sites removed as provably safe.
    pub eliminated_const: usize,
    /// Sites removed by check-CSE.
    pub eliminated_cse: usize,
}

impl CheckPlan {
    /// A plan with every checkable site enabled (no optimization).
    pub fn all_enabled(prog: &Program, info: &TypeInfo) -> Self {
        let mut plan = CheckPlan {
            enabled: vec![false; prog.max_expr_id as usize + 1],
            total_sites: 0,
            eliminated_const: 0,
            eliminated_cse: 0,
        };
        for f in &prog.funcs {
            mark_checkable(&f.body, info, &mut plan);
        }
        plan
    }

    /// A plan with the paper's eliminations applied.
    pub fn optimized(prog: &Program, info: &TypeInfo) -> Self {
        let mut plan = Self::all_enabled(prog, info);
        for f in &prog.funcs {
            // Array dimensions of locals/params/globals in scope.
            let mut arrays: HashMap<kclang::Sym, usize> = HashMap::new();
            for g in &prog.globals {
                if let Type::Array(_, n) = &g.ty {
                    arrays.insert(g.name, *n);
                }
            }
            collect_arrays(&f.body, &mut arrays);
            eliminate_in_block(&f.body, &arrays, &mut plan);
        }
        plan
    }

    /// Is this site's check enabled?
    #[inline]
    pub fn is_enabled(&self, site: u32) -> bool {
        self.enabled.get(site as usize).copied().unwrap_or(false)
    }

    fn disable(&mut self, site: u32) {
        if let Some(s) = self.enabled.get_mut(site as usize) {
            *s = false;
        }
    }

    /// Keep only the sites `f` approves (selective instrumentation; see
    /// [`crate::rules`]).
    pub fn retain_sites(&mut self, f: impl Fn(u32) -> bool) {
        for (i, e) in self.enabled.iter_mut().enumerate() {
            if *e && !f(i as u32) {
                *e = false;
            }
        }
    }

    /// Number of sites still enabled.
    pub fn enabled_count(&self) -> usize {
        self.enabled.iter().filter(|&&e| e).count()
    }

    /// Fraction of checks eliminated relative to the unoptimized plan.
    pub fn elimination_ratio(&self) -> f64 {
        if self.total_sites == 0 {
            return 0.0;
        }
        (self.eliminated_const + self.eliminated_cse) as f64 / self.total_sites as f64
    }
}

/// Mark every expression that the runtime would check: derefs, indexing,
/// and pointer arithmetic (identified by the type table — an integer `+`
/// is not a check site).
fn mark_checkable(block: &Block, info: &TypeInfo, plan: &mut CheckPlan) {
    kclang::ast::visit_exprs(block, &mut |e| {
        let checkable = match &e.kind {
            ExprKind::Index(_, _) | ExprKind::Unary(UnOp::Deref, _) => true,
            ExprKind::Binary(op, _, _) => {
                matches!(op, kclang::BinOp::Add | kclang::BinOp::Sub)
                    && info.type_of(e.id).map(Type::is_ptr_like).unwrap_or(false)
            }
            // `free` carries a check (the pointer must be a live base).
            ExprKind::Call(name, _) => name == "free",
            _ => false,
        };
        if checkable {
            plan.enabled[e.id as usize] = true;
            plan.total_sites += 1;
        }
    });
}

fn collect_arrays(block: &Block, arrays: &mut HashMap<kclang::Sym, usize>) {
    for s in &block.stmts {
        match s {
            Stmt::Decl(d) => {
                if let Type::Array(_, n) = &d.ty {
                    arrays.insert(d.name, *n);
                }
            }
            Stmt::If { then, els, .. } => {
                collect_arrays(then, arrays);
                if let Some(b) = els {
                    collect_arrays(b, arrays);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => collect_arrays(body, arrays),
            Stmt::Block(b) => collect_arrays(b, arrays),
            _ => {}
        }
    }
}

fn eliminate_in_block(
    block: &Block,
    arrays: &HashMap<kclang::Sym, usize>,
    plan: &mut CheckPlan,
) {
    for s in &block.stmts {
        match s {
            Stmt::Expr(e) => eliminate_in_stmt(e, arrays, plan),
            Stmt::Decl(d) => {
                if let Some(init) = &d.init {
                    eliminate_in_stmt(init, arrays, plan);
                }
            }
            Stmt::Return(Some(e), _) => eliminate_in_stmt(e, arrays, plan),
            Stmt::If { cond, then, els, .. } => {
                eliminate_in_stmt(cond, arrays, plan);
                eliminate_in_block(then, arrays, plan);
                if let Some(b) = els {
                    eliminate_in_block(b, arrays, plan);
                }
            }
            Stmt::While { cond, body, .. } => {
                eliminate_in_stmt(cond, arrays, plan);
                eliminate_in_block(body, arrays, plan);
            }
            Stmt::For { init, cond, step, body, .. } => {
                for e in [init, cond, step].into_iter().flatten() {
                    eliminate_in_stmt(e, arrays, plan);
                }
                eliminate_in_block(body, arrays, plan);
            }
            Stmt::Block(b) => eliminate_in_block(b, arrays, plan),
            _ => {}
        }
    }
}

/// A statement is our CSE window (a conservative stand-in for the basic
/// block): identical access shapes within it are checked once.
fn eliminate_in_stmt(e: &Expr, arrays: &HashMap<kclang::Sym, usize>, plan: &mut CheckPlan) {
    let mut seen: HashSet<String> = HashSet::new();
    kclang::ast::visit_expr(e, &mut |node| {
        match &node.kind {
            ExprKind::Index(base, idx) => {
                // Elimination 1: constant index into a known array.
                if let (ExprKind::Var(name), ExprKind::IntLit(i)) = (&base.kind, &idx.kind) {
                    if let Some(&n) = arrays.get(name) {
                        if *i >= 0 && (*i as usize) < n && plan.is_enabled(node.id) {
                            plan.disable(node.id);
                            plan.eliminated_const += 1;
                            return;
                        }
                    }
                }
                // Elimination 2: CSE on (base var, index shape).
                if let Some(shape) = access_shape(base, idx) {
                    if !seen.insert(shape) && plan.is_enabled(node.id) {
                        plan.disable(node.id);
                        plan.eliminated_cse += 1;
                    }
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                if let ExprKind::Var(name) = &inner.kind {
                    let shape = format!("*{name}");
                    if !seen.insert(shape) && plan.is_enabled(node.id) {
                        plan.disable(node.id);
                        plan.eliminated_cse += 1;
                    }
                }
            }
            _ => {}
        }
    });
}

/// A textual shape for CSE matching: `base[i]`, `base[3]`.
fn access_shape(base: &Expr, idx: &Expr) -> Option<String> {
    let b = match &base.kind {
        ExprKind::Var(n) => n.to_string(),
        _ => return None,
    };
    let i = match &idx.kind {
        ExprKind::Var(n) => n.to_string(),
        ExprKind::IntLit(v) => v.to_string(),
        _ => return None,
    };
    Some(format!("{b}[{i}]"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kclang::{parse_program, typecheck};

    fn plans(src: &str) -> (CheckPlan, CheckPlan) {
        let p = parse_program(src).unwrap();
        let info = typecheck(&p).unwrap();
        (CheckPlan::all_enabled(&p, &info), CheckPlan::optimized(&p, &info))
    }

    #[test]
    fn const_in_bounds_indices_are_eliminated() {
        let (base, opt) = plans(
            r#"
            int f() {
                int a[4];
                a[0] = 1;
                a[3] = 2;
                return a[0] + a[3];
            }
            "#,
        );
        assert!(opt.eliminated_const + opt.eliminated_cse >= 4);
        assert!(opt.enabled_count() < base.enabled_count());
    }

    #[test]
    fn out_of_bounds_const_indices_stay_checked() {
        let (_base, opt) = plans(
            r#"
            int f() {
                int a[4];
                return a[7];
            }
            "#,
        );
        assert_eq!(opt.eliminated_const, 0, "a[7] must keep its check");
    }

    #[test]
    fn cse_halves_checks_on_repeated_accesses() {
        // The typical-kernel-code shape: the same element read repeatedly
        // in one expression.
        let (_base, opt) = plans(
            r#"
            int f(int *p, int i) {
                return p[i] + p[i] + p[i] + p[i];
            }
            "#,
        );
        assert_eq!(opt.eliminated_cse, 3, "3 of 4 identical checks dropped");
        assert!(
            opt.elimination_ratio() >= 0.5,
            "paper: more than half, got {}",
            opt.elimination_ratio()
        );
    }

    #[test]
    fn different_indices_are_not_cse_merged() {
        let (_base, opt) = plans("int f(int *p, int i, int j) { return p[i] + p[j]; }");
        assert_eq!(opt.eliminated_cse, 0);
    }

    #[test]
    fn cse_window_is_per_statement() {
        let (_base, opt) = plans(
            r#"
            int f(int *p, int i) {
                int a = p[i];
                int b = p[i];
                return a + b;
            }
            "#,
        );
        // Separate statements: both keep their checks (the value could
        // change between them through aliases).
        assert_eq!(opt.eliminated_cse, 0);
    }

    #[test]
    fn plan_bitmap_bounds() {
        let p = parse_program("int f(int x) { return x + 1; }").unwrap();
        let info = typecheck(&p).unwrap();
        let plan = CheckPlan::all_enabled(&p, &info);
        assert!(!plan.is_enabled(10_000), "out-of-range ids are disabled");
    }
}
