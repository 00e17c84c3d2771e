//! Scalar expression IR used inside tasklets.
//!
//! Stencil statements lower to trees of [`Expr`]. The IR is deliberately
//! small: arithmetic, comparisons/selection (for the predicated horizontal
//! regions of Section IV-B), relative-offset field loads, per-thread local
//! variables, runtime scalar parameters, and a handful of math intrinsics.
//! Everything the optimizer needs — flop counting for the performance
//! model, offset hulls for memlet inference, and rewriting (the
//! power-operator strength reduction of Section VI-C1) — works on this one
//! type, and so do both evaluators: [`Expr::eval`] walks it (the reference)
//! and [`crate::bytecode::lower`] turns it into the tile program
//! production runs.

use crate::storage::Axis;
use std::fmt;

/// Identifier of a data container within an SDFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub usize);

/// Identifier of a per-thread local variable within a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalId(pub usize);

/// Identifier of a runtime scalar parameter (e.g. `dt2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// A compile-time-constant relative offset, the only addressing mode the
/// DSL allows (GT4Py "does not support variable offsets", Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Offset3 {
    pub i: i32,
    pub j: i32,
    pub k: i32,
}

impl Offset3 {
    /// The centre point.
    pub const ZERO: Offset3 = Offset3 { i: 0, j: 0, k: 0 };

    /// Construct an offset.
    pub fn new(i: i32, j: i32, k: i32) -> Self {
        Offset3 { i, j, k }
    }

    /// Component along `axis`.
    pub fn along(&self, axis: Axis) -> i32 {
        match axis {
            Axis::I => self.i,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }

    /// Component-wise sum (composition of two relative accesses).
    pub fn add(&self, o: Offset3) -> Offset3 {
        Offset3::new(self.i + o.i, self.j + o.j, self.k + o.k)
    }
}

impl fmt::Display for Offset3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{},{}]", self.i, self.j, self.k)
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    /// General power — the expensive operator the Smagorinsky case study
    /// strength-reduces away.
    Pow,
}

/// Unary operators and math intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Floor,
    /// Sign function returning -1, 0 or 1.
    Sign,
}

/// Comparison operators (produce 1.0 / 0.0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating-point literal.
    Const(f64),
    /// Runtime scalar parameter.
    Param(ParamId),
    /// Field read at a relative offset.
    Load(DataId, Offset3),
    /// Per-thread local variable read.
    Local(LocalId),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison producing 1.0 or 0.0.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `if cond != 0 { a } else { b }`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Current global index along an axis (used by predicated regions).
    Index(Axis),
    /// Integer power by repeated multiplication — the strength-reduced
    /// form the power-operator transformation (Section VI-C1) lowers
    /// `Bin(Pow, x, Const(n))` to. Counted as cheap flops, not
    /// transcendentals.
    Powi(Box<Expr>, i32),
}

impl Expr {
    /// Convenience constructors ------------------------------------------------
    pub fn c(v: f64) -> Expr {
        Expr::Const(v)
    }

    pub fn load(d: DataId, i: i32, j: i32, k: i32) -> Expr {
        Expr::Load(d, Offset3::new(i, j, k))
    }

    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    pub fn un(op: UnOp, a: Expr) -> Expr {
        Expr::Un(op, Box::new(a))
    }

    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn select(c: Expr, a: Expr, b: Expr) -> Expr {
        Expr::Select(Box::new(c), Box::new(a), Box::new(b))
    }

    pub fn powi(a: Expr, n: i32) -> Expr {
        Expr::Powi(Box::new(a), n)
    }

    /// Visit every node of the tree.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Un(_, a) | Expr::Powi(a, _) => a.visit(f),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Select(c, a, b) => {
                c.visit(f);
                a.visit(f);
                b.visit(f);
            }
            _ => {}
        }
    }

    /// Rewrite the tree bottom-up: children first, then `f` on the rebuilt
    /// node. `f` returns the (possibly replaced) node.
    pub fn rewrite(self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let node = match self {
            Expr::Powi(a, n) => Expr::Powi(Box::new(a.rewrite(f)), n),
            Expr::Un(op, a) => Expr::Un(op, Box::new(a.rewrite(f))),
            Expr::Bin(op, a, b) => Expr::Bin(op, Box::new(a.rewrite(f)), Box::new(b.rewrite(f))),
            Expr::Cmp(op, a, b) => Expr::Cmp(op, Box::new(a.rewrite(f)), Box::new(b.rewrite(f))),
            Expr::Select(c, a, b) => Expr::Select(
                Box::new(c.rewrite(f)),
                Box::new(a.rewrite(f)),
                Box::new(b.rewrite(f)),
            ),
            other => other,
        };
        f(node)
    }

    /// All `(field, offset)` pairs read by this expression.
    pub fn loads(&self) -> Vec<(DataId, Offset3)> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Load(d, o) = e {
                out.push((*d, *o));
            }
        });
        out
    }

    /// Whether the expression reads `data` at any offset.
    pub fn reads(&self, data: DataId) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Load(d, _) = e {
                if *d == data {
                    found = true;
                }
            }
        });
        found
    }

    /// Substitute every `Load(data, o)` with `make(o)` (used by on-the-fly
    /// fusion to splice a producer expression into its consumer).
    pub fn substitute_load(self, data: DataId, make: &impl Fn(Offset3) -> Expr) -> Expr {
        self.rewrite(&|e| match e {
            Expr::Load(d, o) if d == data => make(o),
            other => other,
        })
    }

    /// Shift every load by `delta` (recompute a producer at the consumer's
    /// offset).
    pub fn shift(self, delta: Offset3) -> Expr {
        self.rewrite(&|e| match e {
            Expr::Load(d, o) => Expr::Load(d, o.add(delta)),
            other => other,
        })
    }

    /// Count floating-point operations (cheap ops) in one evaluation.
    pub fn flops(&self) -> u64 {
        let mut n = 0u64;
        self.visit(&mut |e| {
            n += match e {
                Expr::Bin(BinOp::Pow, _, _) => 0, // counted as transcendental
                Expr::Bin(_, _, _) | Expr::Cmp(_, _, _) => 1,
                Expr::Un(UnOp::Neg | UnOp::Abs | UnOp::Floor | UnOp::Sign, _) => 1,
                Expr::Un(UnOp::Sqrt, _) => 2,
                Expr::Un(_, _) => 0, // exp/log/sin/cos counted as transcendental
                Expr::Select(_, _, _) => 1,
                Expr::Powi(_, n) => n.unsigned_abs() as u64,
                _ => 0,
            };
        });
        n
    }

    /// Count transcendental operations (pow/exp/log/sin/cos) in one
    /// evaluation — the slow special-function path of Section VI-C1.
    pub fn transcendentals(&self) -> u64 {
        let mut n = 0u64;
        self.visit(&mut |e| {
            n += match e {
                Expr::Bin(BinOp::Pow, _, _) => 1,
                Expr::Un(UnOp::Exp | UnOp::Log | UnOp::Sin | UnOp::Cos, _) => 1,
                _ => 0,
            };
        });
        n
    }

    /// Number of nodes (for size heuristics in fusion decisions).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

/// Evaluation context handed to [`Expr::eval`] by the executor.
pub trait EvalCtx {
    /// Read a field at the current point plus `offset`.
    fn load(&self, data: DataId, offset: Offset3) -> f64;
    /// Read a local variable.
    fn local(&self, l: LocalId) -> f64;
    /// Read a scalar parameter.
    fn param(&self, p: ParamId) -> f64;
    /// Current global index along `axis`.
    fn index(&self, axis: Axis) -> i64;
}

impl Expr {
    /// Tree-walking evaluation: the reference. [`VmMode::Scalar`] runs
    /// kernels through it, and every bit-identity suite compares the tile
    /// VM against what it returns.
    ///
    /// [`VmMode::Scalar`]: crate::exec::VmMode::Scalar
    pub fn eval<C: EvalCtx>(&self, ctx: &C) -> f64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Param(p) => ctx.param(*p),
            Expr::Load(d, o) => ctx.load(*d, *o),
            Expr::Local(l) => ctx.local(*l),
            Expr::Index(ax) => ctx.index(*ax) as f64,
            Expr::Un(op, a) => {
                let x = a.eval(ctx);
                apply_un(*op, x)
            }
            Expr::Bin(op, a, b) => {
                let x = a.eval(ctx);
                let y = b.eval(ctx);
                apply_bin(*op, x, y)
            }
            Expr::Cmp(op, a, b) => {
                let x = a.eval(ctx);
                let y = b.eval(ctx);
                if apply_cmp(*op, x, y) {
                    1.0
                } else {
                    0.0
                }
            }
            Expr::Select(c, a, b) => {
                if c.eval(ctx) != 0.0 {
                    a.eval(ctx)
                } else {
                    b.eval(ctx)
                }
            }
            Expr::Powi(a, n) => apply_powi(a.eval(ctx), *n),
        }
    }
}

/// Apply a unary operator.
#[inline]
pub fn apply_un(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Abs => x.abs(),
        UnOp::Sqrt => x.sqrt(),
        UnOp::Exp => x.exp(),
        UnOp::Log => x.ln(),
        UnOp::Sin => x.sin(),
        UnOp::Cos => x.cos(),
        UnOp::Floor => x.floor(),
        UnOp::Sign => {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        }
    }
}

/// Apply a binary operator.
#[inline]
pub fn apply_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::Pow => x.powf(y),
    }
}

/// `x^n` by repeated multiplication (strength-reduced pow) — the one
/// definition the tree interpreter and the tile VM share.
#[inline]
pub fn apply_powi(x: f64, n: i32) -> f64 {
    let mut acc = 1.0f64;
    for _ in 0..n.unsigned_abs() {
        acc *= x;
    }
    if n < 0 {
        1.0 / acc
    } else {
        acc
    }
}

/// Apply a comparison operator.
#[inline]
pub fn apply_cmp(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
    }
}

// Operator overloading so transformation code can build expressions
// readably (the user-facing DSL in the `stencil` crate has its own richer
// builder).
impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}
impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}
impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}
impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}
impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::un(UnOp::Neg, self)
    }
}
impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Const(v)
    }
}

/// Number-like abstraction so numerical formulas can be written once and
/// instantiated both as `f64` (hand-written baseline loops) and as
/// [`Expr`] (DSL statements) — guaranteeing the optimized and reference
/// implementations evaluate the *same* arithmetic.
pub trait NumLike:
    Clone
    + From<f64>
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// `if cond > 0 { a } else { b }`.
    fn select_pos(cond: Self, a: Self, b: Self) -> Self;
}

impl NumLike for f64 {
    fn select_pos(cond: f64, a: f64, b: f64) -> f64 {
        if cond > 0.0 {
            a
        } else {
            b
        }
    }
}

impl NumLike for Expr {
    fn select_pos(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::select(Expr::cmp(CmpOp::Gt, cond, Expr::Const(0.0)), a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Ctx {
        fields: HashMap<(usize, Offset3), f64>,
        params: Vec<f64>,
        locals: Vec<f64>,
        idx: [i64; 3],
    }

    impl EvalCtx for Ctx {
        fn load(&self, d: DataId, o: Offset3) -> f64 {
            *self.fields.get(&(d.0, o)).unwrap_or(&0.0)
        }
        fn local(&self, l: LocalId) -> f64 {
            self.locals[l.0]
        }
        fn param(&self, p: ParamId) -> f64 {
            self.params[p.0]
        }
        fn index(&self, axis: Axis) -> i64 {
            self.idx[axis.idx()]
        }
    }

    fn ctx() -> Ctx {
        let mut fields = HashMap::new();
        fields.insert((0, Offset3::ZERO), 3.0);
        fields.insert((0, Offset3::new(-1, 0, 0)), 5.0);
        fields.insert((1, Offset3::ZERO), 2.0);
        Ctx {
            fields,
            params: vec![0.5],
            locals: vec![7.0],
            idx: [4, 5, 6],
        }
    }

    #[test]
    fn arithmetic_evaluates() {
        let c = ctx();
        // (a[0] - a[-1,0,0]) * p0 + local0 = (3-5)*0.5 + 7 = 6
        let e = (Expr::load(DataId(0), 0, 0, 0) - Expr::load(DataId(0), -1, 0, 0))
            * Expr::Param(ParamId(0))
            + Expr::Local(LocalId(0));
        assert_eq!(e.eval(&c), 6.0);
    }

    #[test]
    fn select_and_cmp() {
        let c = ctx();
        // if b > a { 1 } else { -1 } with b=2, a=3 -> -1
        let e = Expr::select(
            Expr::cmp(
                CmpOp::Gt,
                Expr::load(DataId(1), 0, 0, 0),
                Expr::load(DataId(0), 0, 0, 0),
            ),
            Expr::c(1.0),
            Expr::c(-1.0),
        );
        assert_eq!(e.eval(&c), -1.0);
    }

    #[test]
    fn index_expression() {
        let c = ctx();
        let e = Expr::Index(Axis::J);
        assert_eq!(e.eval(&c), 5.0);
    }

    #[test]
    fn pow_and_sqrt() {
        let c = ctx();
        let e = Expr::bin(BinOp::Pow, Expr::load(DataId(0), 0, 0, 0), Expr::c(2.0));
        assert_eq!(e.eval(&c), 9.0);
        let s = Expr::un(UnOp::Sqrt, Expr::c(16.0));
        assert_eq!(s.eval(&c), 4.0);
    }

    #[test]
    fn flop_and_transcendental_counts() {
        // dt*(a**2 + b**2)**0.5 — the Smagorinsky inner expression:
        // two pows from squares + one pow 0.5 = 3 transcendentals,
        // 2 cheap ops (mul, add).
        let a = Expr::load(DataId(0), 0, 0, 0);
        let b = Expr::load(DataId(1), 0, 0, 0);
        let e = Expr::c(0.1)
            * Expr::bin(
                BinOp::Pow,
                Expr::bin(BinOp::Pow, a, Expr::c(2.0)) + Expr::bin(BinOp::Pow, b, Expr::c(2.0)),
                Expr::c(0.5),
            );
        assert_eq!(e.transcendentals(), 3);
        assert_eq!(e.flops(), 2);
    }

    #[test]
    fn loads_and_reads() {
        let e = Expr::load(DataId(0), 1, 0, 0) + Expr::load(DataId(2), 0, -1, 0);
        let ls = e.loads();
        assert_eq!(ls.len(), 2);
        assert!(e.reads(DataId(0)));
        assert!(e.reads(DataId(2)));
        assert!(!e.reads(DataId(1)));
    }

    #[test]
    fn shift_composes_offsets() {
        let e = Expr::load(DataId(0), 1, 0, 0);
        let s = e.shift(Offset3::new(-1, 2, 0));
        assert_eq!(s, Expr::load(DataId(0), 0, 2, 0));
    }

    #[test]
    fn substitute_load_splices_producer() {
        // consumer: c = t[1,0,0] + t[0,0,0]; producer t = a * 2
        let consumer = Expr::load(DataId(9), 1, 0, 0) + Expr::load(DataId(9), 0, 0, 0);
        let producer = Expr::load(DataId(0), 0, 0, 0) * Expr::c(2.0);
        let fused = consumer.substitute_load(DataId(9), &|o| producer.clone().shift(o));
        // becomes a[1,0,0]*2 + a[0,0,0]*2
        let loads = fused.loads();
        assert_eq!(loads.len(), 2);
        assert!(loads.contains(&(DataId(0), Offset3::new(1, 0, 0))));
        assert!(loads.contains(&(DataId(0), Offset3::ZERO)));
        assert!(!fused.reads(DataId(9)));
    }

    #[test]
    fn rewrite_is_bottom_up() {
        // Replace constants with their double; nested nodes must all be
        // visited.
        let e = Expr::c(1.0) + Expr::c(2.0) * Expr::c(3.0);
        let r = e.rewrite(&|n| match n {
            Expr::Const(v) => Expr::Const(2.0 * v),
            other => other,
        });
        struct C;
        impl EvalCtx for C {
            fn load(&self, _: DataId, _: Offset3) -> f64 {
                0.0
            }
            fn local(&self, _: LocalId) -> f64 {
                0.0
            }
            fn param(&self, _: ParamId) -> f64 {
                0.0
            }
            fn index(&self, _: Axis) -> i64 {
                0
            }
        }
        assert_eq!(r.eval(&C), 2.0 + 4.0 * 6.0);
    }

    #[test]
    fn sign_semantics() {
        assert_eq!(apply_un(UnOp::Sign, -3.5), -1.0);
        assert_eq!(apply_un(UnOp::Sign, 0.0), 0.0);
        assert_eq!(apply_un(UnOp::Sign, 7.0), 1.0);
    }
}
