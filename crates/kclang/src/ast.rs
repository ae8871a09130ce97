//! The KC abstract syntax tree.
//!
//! Every expression carries a unique `id` (assigned by the parser) that
//! serves as the **check-site identifier** for KGCC: bounds checks, check
//! elimination, and dynamic deinstrumentation are all keyed by it. It also
//! keys the type table produced by [`crate::types::typecheck`].

pub use crate::lexer::Loc as SourceLoc;
pub use crate::sym::Sym;

/// KC types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// 64-bit signed integer (`int`).
    Int,
    /// 8-bit byte (`char`).
    Char,
    /// No value (function returns only).
    Void,
    /// Pointer to `T`.
    Ptr(Box<Type>),
    /// Fixed-size array `T[n]` (decays to `Ptr` in expressions).
    Array(Box<Type>, usize),
}

impl Type {
    /// Size of a value of this type in bytes.
    pub fn size(&self) -> usize {
        match self {
            Type::Int => 8,
            Type::Char => 1,
            Type::Void => 0,
            Type::Ptr(_) => 8,
            Type::Array(t, n) => t.size() * n,
        }
    }

    /// The type pointed to / element type, if any.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            Type::Array(t, _) => Some(t),
            _ => None,
        }
    }

    /// Does this type decay to a pointer in expressions?
    pub fn is_ptr_like(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Array(_, _))
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-e`
    Neg,
    /// `!e`
    Not,
    /// `*e`
    Deref,
    /// `&e`
    Addr,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// Is this a comparison (result is 0/1 int)?
    pub fn is_cmp(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// KC's integer rule for `l op r` on two evaluated operands: wrapping
    /// arithmetic, C's truncating `/` and `%`, 0/1 comparisons. `None` on
    /// division by zero. The VM, the tree-walker and kprog's verifier all
    /// evaluate through this one function. `&&`/`||` short-circuit before
    /// both operands exist; given both, they are the logical 0/1 result.
    #[inline]
    pub fn eval(self, l: i64, r: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => l.wrapping_add(r),
            BinOp::Sub => l.wrapping_sub(r),
            BinOp::Mul => l.wrapping_mul(r),
            BinOp::Div if r == 0 => return None,
            BinOp::Div => l.wrapping_div(r),
            BinOp::Rem if r == 0 => return None,
            BinOp::Rem => l.wrapping_rem(r),
            BinOp::Lt => (l < r) as i64,
            BinOp::Le => (l <= r) as i64,
            BinOp::Gt => (l > r) as i64,
            BinOp::Ge => (l >= r) as i64,
            BinOp::Eq => (l == r) as i64,
            BinOp::Ne => (l != r) as i64,
            BinOp::And => (l != 0 && r != 0) as i64,
            BinOp::Or => (l != 0 || r != 0) as i64,
        })
    }
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// Unique node id — the KGCC check-site key.
    pub id: u32,
    pub loc: SourceLoc,
    pub kind: ExprKind,
}

/// Expression payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    CharLit(u8),
    /// A string literal; evaluates to the address of a NUL-terminated
    /// byte array in the execution arena.
    StrLit(String),
    Var(Sym),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `target = value`; evaluates to `value`.
    Assign(Box<Expr>, Box<Expr>),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>),
    /// Function or intrinsic call.
    Call(Sym, Vec<Expr>),
}

/// A variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: Sym,
    pub ty: Type,
    pub init: Option<Expr>,
    pub loc: SourceLoc,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Decl(Decl),
    Expr(Expr),
    If { cond: Expr, then: Block, els: Option<Block>, loc: SourceLoc },
    While { cond: Expr, body: Block, loc: SourceLoc },
    For { init: Option<Expr>, cond: Option<Expr>, step: Option<Expr>, body: Block, loc: SourceLoc },
    Return(Option<Expr>, SourceLoc),
    /// `break;` — exit the innermost loop.
    Break(SourceLoc),
    /// `continue;` — next iteration of the innermost loop.
    Continue(SourceLoc),
    Block(Block),
    /// `COSY_START;` — begin a compound-extraction region (§2.3).
    CosyStart(SourceLoc),
    /// `COSY_END;`
    CosyEnd(SourceLoc),
}

impl Stmt {
    pub fn loc(&self) -> SourceLoc {
        match self {
            Stmt::Decl(d) => d.loc,
            Stmt::Expr(e) => e.loc,
            Stmt::If { loc, .. }
            | Stmt::While { loc, .. }
            | Stmt::For { loc, .. }
            | Stmt::Return(_, loc)
            | Stmt::Break(loc)
            | Stmt::Continue(loc)
            | Stmt::CosyStart(loc)
            | Stmt::CosyEnd(loc) => *loc,
            Stmt::Block(b) => b.stmts.first().map(Stmt::loc).unwrap_or_default(),
        }
    }
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    pub name: Sym,
    pub params: Vec<(Sym, Type)>,
    pub ret: Type,
    pub body: Block,
    pub loc: SourceLoc,
}

/// A complete translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub globals: Vec<Decl>,
    pub funcs: Vec<Func>,
    /// One past the highest expression id in the program.
    pub max_expr_id: u32,
}

impl Program {
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }
}

/// Walk every expression in a block, depth-first, applying `f`.
pub fn visit_exprs<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for stmt in &block.stmts {
        visit_stmt_exprs(stmt, f);
    }
}

fn visit_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match stmt {
        Stmt::Decl(d) => {
            if let Some(e) = &d.init {
                visit_expr(e, f);
            }
        }
        Stmt::Expr(e) => visit_expr(e, f),
        Stmt::If { cond, then, els, .. } => {
            visit_expr(cond, f);
            visit_exprs(then, f);
            if let Some(b) = els {
                visit_exprs(b, f);
            }
        }
        Stmt::While { cond, body, .. } => {
            visit_expr(cond, f);
            visit_exprs(body, f);
        }
        Stmt::For { init, cond, step, body, .. } => {
            for e in [init, cond, step].into_iter().flatten() {
                visit_expr(e, f);
            }
            visit_exprs(body, f);
        }
        Stmt::Return(Some(e), _) => visit_expr(e, f),
        Stmt::Return(None, _)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::CosyStart(_)
        | Stmt::CosyEnd(_) => {}
        Stmt::Block(b) => visit_exprs(b, f),
    }
}

/// Walk one expression tree depth-first.
pub fn visit_expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Unary(_, a) => visit_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(a, b) | ExprKind::Index(a, b) => {
            visit_expr(a, f);
            visit_expr(b, f);
        }
        ExprKind::Call(_, args) => {
            for a in args {
                visit_expr(a, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(Type::Int.size(), 8);
        assert_eq!(Type::Char.size(), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).size(), 8);
        assert_eq!(Type::Array(Box::new(Type::Int), 10).size(), 80);
        assert_eq!(Type::Array(Box::new(Type::Char), 256).size(), 256);
    }

    #[test]
    fn pointee_and_decay() {
        let p = Type::Ptr(Box::new(Type::Int));
        assert_eq!(p.pointee(), Some(&Type::Int));
        assert!(p.is_ptr_like());
        let a = Type::Array(Box::new(Type::Char), 4);
        assert_eq!(a.pointee(), Some(&Type::Char));
        assert!(a.is_ptr_like());
        assert!(!Type::Int.is_ptr_like());
        assert_eq!(Type::Int.pointee(), None);
    }

    #[test]
    fn cmp_classification() {
        assert!(BinOp::Le.is_cmp());
        assert!(!BinOp::Add.is_cmp());
    }
}
