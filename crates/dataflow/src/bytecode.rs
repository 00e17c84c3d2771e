//! Tile programs for tasklet bodies — the "code generation" stage.
//!
//! DaCe generates C++/CUDA from expanded SDFGs; the equivalent stage here
//! lowers each statement's expression tree once, straight into the
//! operand-form [`TileProgram`] production runs: leaves as operands,
//! common subexpressions computed once, add / sub / mul trees of up to
//! four leaves as one instruction, a register file sized by tree depth,
//! executed over 2-D tiles of points ([`run_tile`]). This removes
//! tree-walking overhead from the per-grid-point inner loop (the ablation
//! bench `vm_ablation` measures the difference) and gives
//! strength-reduction transformations a concrete instruction to lower to
//! ([`Op::PowI`]).
//!
//! There is no second executable form. The reference every bit-identity
//! test compares against is the expression itself, walked per point by
//! [`Expr::eval`].

use crate::expr::{apply_bin, apply_cmp, apply_powi, apply_un, BinOp, CmpOp, DataId, Expr, Offset3, UnOp};
use crate::storage::Axis;
use std::collections::HashMap;

/// Lanes per tile register: a tile is up to this many points, laid out as
/// consecutive j-rows of consecutive i-lanes. 256 lanes (2 KiB) keeps a
/// dozen registers in L1 while one opcode dispatch covers ~10 rows of a
/// 24-wide hull.
pub const TILE_LANES: usize = 256;

/// Scratch registers the tile VM needs beyond `TileProgram::n_regs`: one
/// splat row per operand of the widest instruction ([`lower`] refuses to
/// emit a wider one).
pub const TILE_SCRATCH: usize = 4;

/// Operand of a tile instruction. Leaves are operands, not instructions:
/// the VM reads field rows, locals and scalars where they live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    Reg(u16),
    Const(f64),
    Param(u16),
    Field { slot: u16, off: Offset3 },
    Local(u16),
}

/// An operation over operands of type `T` (value numbers while lowering,
/// [`Src`] in a lowered program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op<T> {
    /// Copy (a statement whose whole right-hand side is a leaf).
    Mov(T),
    Un(UnOp, T),
    Bin(BinOp, T, T),
    Cmp(CmpOp, T, T),
    /// `c != 0 ? a : b`
    Select(T, T, T),
    PowI(T, i32),
    Index(Axis),
    /// `(a ∘ b) • c`, `c • (a ∘ b)` and `(a ∘ b) • (c ⋄ d)`, outer operator
    /// first: a tree of `Add`/`Sub`/`Mul` that [`lower`] folded into one
    /// instruction, so its inner values never leave the lane loop.
    BinL(BinOp, (BinOp, T, T), T),
    BinR(BinOp, T, (BinOp, T, T)),
    BinLR(BinOp, (BinOp, T, T), (BinOp, T, T)),
}

impl<T: Copy> Op<T> {
    fn map<U>(self, mut f: impl FnMut(T) -> U) -> Op<U> {
        match self {
            Op::Mov(a) => Op::Mov(f(a)),
            Op::Un(op, a) => Op::Un(op, f(a)),
            Op::Bin(op, a, b) => Op::Bin(op, f(a), f(b)),
            Op::Cmp(op, a, b) => Op::Cmp(op, f(a), f(b)),
            Op::Select(c, a, b) => Op::Select(f(c), f(a), f(b)),
            Op::PowI(a, n) => Op::PowI(f(a), n),
            Op::Index(ax) => Op::Index(ax),
            Op::BinL(o, (u, a, b), c) => Op::BinL(o, (u, f(a), f(b)), f(c)),
            Op::BinR(o, c, (u, a, b)) => Op::BinR(o, f(c), (u, f(a), f(b))),
            Op::BinLR(o, (u, a, b), (v, c, d)) => Op::BinLR(o, (u, f(a), f(b)), (v, f(c), f(d))),
        }
    }
}

impl<T> Op<T> {
    /// Operators the instruction applies to each lane (a `Mov` counts one).
    pub fn operators(&self) -> usize {
        match self {
            Op::BinL(..) | Op::BinR(..) => 2,
            Op::BinLR(..) => 3,
            _ => 1,
        }
    }
}

/// `r[dst] = op(..)` over every lane of a tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileInstr {
    pub dst: u16,
    pub op: Op<Src>,
}

/// A statement lowered for the tile VM. The last instruction computes the
/// statement's value; the VM writes it to the caller's destination view
/// instead of a register, so its `dst` is unused.
#[derive(Debug, Clone, PartialEq)]
pub struct TileProgram {
    pub instrs: Vec<TileInstr>,
    pub n_regs: u16,
}

/// Identity of a value within one statement: two values with equal keys
/// are bit-identical at every point, so the second is never computed.
/// Constants compare by bit pattern (`0.0` and `-0.0` stay distinct).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(u64),
    Param(u16),
    Field(u16, Offset3),
    Local(u16),
    Op(Op<u32>),
}

/// Number `e`'s value, operands first: `keys` lists each distinct value
/// once, in the post-order of its first occurrence in the tree.
fn number(
    e: &Expr,
    slot_of: &impl Fn(DataId) -> u16,
    numbered: &mut HashMap<Key, u32>,
    keys: &mut Vec<Key>,
) -> u32 {
    let mut v = |e: &Expr| number(e, slot_of, numbered, keys);
    let key = match e {
        Expr::Const(val) => Key::Const(val.to_bits()),
        Expr::Param(p) => Key::Param(p.0 as u16),
        Expr::Load(d, off) => Key::Field(slot_of(*d), *off),
        Expr::Local(l) => Key::Local(l.0 as u16),
        Expr::Index(axis) => Key::Op(Op::Index(*axis)),
        Expr::Un(op, a) => Key::Op(Op::Un(*op, v(a))),
        Expr::Powi(a, n) => Key::Op(Op::PowI(v(a), *n)),
        // Integer `Bin(Pow, x, Const(n))` deliberately stays a general
        // powf call — exactly the inefficiency the paper found in
        // generated code. The power transformation rewrites such trees to
        // `Expr::Powi`, which lowers to `Op::PowI`.
        Expr::Bin(op, a, b) => Key::Op(Op::Bin(*op, v(a), v(b))),
        Expr::Cmp(op, a, b) => Key::Op(Op::Cmp(*op, v(a), v(b))),
        Expr::Select(c, a, b) => Key::Op(Op::Select(v(c), v(a), v(b))),
    };
    let fresh = keys.len() as u32;
    *numbered.entry(key).or_insert_with(|| {
        keys.push(key);
        fresh
    })
}

/// The operators [`lower`] folds into tree instructions. Each is one IEEE
/// operation that `run_tile` still rounds on its own (rustc never contracts
/// `a * b + c` to a fused multiply-add), so a tree's lanes get the bits
/// its operators give one pass at a time.
fn foldable(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
}

/// Lower a statement's expression to operand form: value-number the tree
/// (statement-level CSE — no reassociation, so results stay bit-exact),
/// fold each foldable operator whose one reader is foldable into that
/// reader, then assign registers by a linear scan that frees a value's
/// register at its last use. `slot_of` maps a [`DataId`] to the
/// kernel-local field slot of a [`Src::Field`]. Scope is one statement: a
/// later statement may have overwritten the fields an earlier one read.
pub fn lower(expr: &Expr, slot_of: &impl Fn(DataId) -> u16) -> TileProgram {
    let mut keys: Vec<Key> = Vec::new();
    let root = number(expr, slot_of, &mut HashMap::new(), &mut keys) as usize;
    // The root is the one value nothing else uses, so it was numbered last.
    debug_assert_eq!(root, keys.len() - 1);

    let mut uses = vec![0u32; keys.len()];
    for key in &keys {
        if let Key::Op(op) = key {
            op.map(|v| uses[v as usize] += 1);
        }
    }
    // Operands before readers: a value that has folded one is a tree, no
    // `Bin`, and folds no further, so a tree holds at most three
    // operators. A value read twice stays an instruction of its own; a
    // folded one is left with no reader.
    for n in 0..keys.len() {
        let Key::Op(Op::Bin(op, l, r)) = keys[n] else { continue };
        if !foldable(op) {
            continue;
        }
        let inner = |v: u32| match keys[v as usize] {
            Key::Op(Op::Bin(p, a, b)) if foldable(p) && uses[v as usize] == 1 => Some((p, a, b)),
            _ => None,
        };
        let (mut x, y) = (inner(l), inner(r));
        // A folded left producer keeps its operands live, where one value
        // was, while the right side is computed: it stays an instruction
        // when that takes a register more — two of its own, a third on
        // the right. (A right producer is computed last either way.)
        if let Some((_, a, b)) = x {
            let is_reg = |v: u32| matches!(keys[v as usize], Key::Op(_));
            let right = y.map_or([r, r], |(_, c, d)| [c, d]);
            if a != b && is_reg(a) && is_reg(b) && right.iter().any(|&v| is_reg(v) && v != a && v != b) {
                x = None;
            }
        }
        keys[n] = Key::Op(match (x, y) {
            (Some(x), Some(y)) => Op::BinLR(op, x, y),
            (Some(x), None) => Op::BinL(op, x, r),
            (None, Some(y)) => Op::BinR(op, l, y),
            (None, None) => continue,
        });
        uses[l as usize] -= x.is_some() as u32;
        uses[r as usize] -= y.is_some() as u32;
    }

    // A tree names its folded producers' operands itself, so they live
    // until the tree runs (a folded producer comes before its reader).
    let mut last_use = vec![0usize; keys.len()];
    for (n, key) in keys.iter().enumerate() {
        if let Key::Op(op) = key {
            op.map(|v| last_use[v as usize] = n);
        }
    }
    // A folded value holds no register and is never an operand.
    let mut srcs = vec![Src::Reg(u16::MAX); keys.len()];
    let mut instrs = Vec::new();
    let (mut free, mut n_regs) = (Vec::<u16>::new(), 0u16);
    for (n, key) in keys.iter().enumerate() {
        srcs[n] = match *key {
            Key::Const(bits) => Src::Const(f64::from_bits(bits)),
            Key::Param(p) => Src::Param(p),
            Key::Field(slot, off) => Src::Field { slot, off },
            Key::Local(l) => Src::Local(l),
            Key::Op(_) if uses[n] == 0 && n != root => continue,
            Key::Op(op) => {
                // Allocate before freeing: `dst` never names an operand.
                let dst = if n == root {
                    u16::MAX
                } else {
                    free.pop().unwrap_or_else(|| {
                        n_regs += 1;
                        n_regs - 1
                    })
                };
                instrs.push(TileInstr {
                    dst,
                    op: op.map(|v| srcs[v as usize]),
                });
                let mut operands = 0;
                op.map(|v| {
                    operands += 1;
                    match srcs[v as usize] {
                        Src::Reg(r) if last_use[v as usize] == n && !free.contains(&r) => free.push(r),
                        _ => {}
                    }
                });
                // `run_tile` splats a scalar operand into the scratch row
                // of its position.
                assert!(operands <= TILE_SCRATCH, "{operands}-operand instruction");
                Src::Reg(dst)
            }
        };
    }
    if instrs.is_empty() {
        instrs.push(TileInstr {
            dst: u16::MAX,
            op: Op::Mov(srcs[root]),
        });
    }
    TileProgram { instrs, n_regs }
}

/// `rows` rows `stride` elements apart, each `w` lanes `lane` elements
/// apart: a register (`stride == w`, packed), a field's rows or the
/// block's locals read and written in place (`lane != 1` when i is not the
/// storage order's unit stride), or one splatted row shared by every row
/// (`stride == 0`).
#[derive(Clone, Copy)]
pub struct View {
    pub ptr: *mut f64,
    pub stride: usize,
    pub lane: usize,
}

/// `dst[r][l] = f(src[..][r][l])` over a tile. Monomorphic in `f`, so the
/// caller's opcode `match` stays outside both loops. Raw pointers, not
/// slices: an in-place statement's destination *is* one of its operands,
/// which is fine lane by lane (each lane reads before it writes) but may
/// not be expressed as `&mut` beside `&`.
#[inline(always)]
unsafe fn map<const N: usize>(
    dst: View,
    mut rows: usize,
    mut w: usize,
    src: [View; N],
    f: impl Fn([f64; N]) -> f64,
) {
    if dst.lane != 1 || src.iter().any(|s| s.lane != 1) {
        return map_strided(dst, rows, w, src, f);
    }
    // All-register operands are one packed run: drop the row loop.
    if dst.stride == w && src.iter().all(|s| s.stride == w) {
        (rows, w) = (1, rows * w);
    }
    for r in 0..rows {
        let d = dst.ptr.add(r * dst.stride);
        let s: [*mut f64; N] = std::array::from_fn(|n| src[n].ptr.add(r * src[n].stride));
        for l in 0..w {
            *d.add(l) = f(std::array::from_fn(|n| *s[n].add(l)));
        }
    }
}

/// [`map`] for storage orders whose unit stride is not i: same lanes, same
/// order, a lane stride on every access. Kept out of line so the
/// unit-stride loops stay small.
#[inline(never)]
unsafe fn map_strided<const N: usize>(
    dst: View,
    rows: usize,
    w: usize,
    src: [View; N],
    f: impl Fn([f64; N]) -> f64,
) {
    let at = |v: View, r: usize, l: usize| v.ptr.add(r * v.stride + l * v.lane);
    for r in 0..rows {
        for l in 0..w {
            *at(dst, r, l) = f(std::array::from_fn(|n| *at(src[n], r, l)));
        }
    }
}

/// Expand `$body` once per listed variant of `$op` with `$name` bound to
/// that variant as a `const`, so each arm instantiates its own lane loop.
/// A list that leaves variants out names what happens to them.
macro_rules! per_op {
    ($op:expr, $name:ident: $t:ty = $($v:path)|+ => $body:expr $(, _ => $rest:expr)?) => {
        match $op {
            $($v => {
                const $name: $t = $v;
                $body
            })+
            $(_ => $rest,)?
        }
    };
}

/// [`per_op!`] over the operators of a tree instruction: the ones
/// [`foldable`] names, each rounded on its own.
macro_rules! per_tree_op {
    ($op:expr, $name:ident => $body:expr) => {
        per_op!($op, $name: BinOp = BinOp::Add | BinOp::Sub | BinOp::Mul => $body,
            _ => unreachable!("lower folds Add, Sub and Mul only"))
    };
}

/// Execute a tile program over `rows × w` points.
///
/// Register `r` is `regs[r * TILE_LANES ..][.. rows * w]`, row-major;
/// `resolve` turns a `Field`/`Local` operand into a [`View`], `index0` is
/// the global `(i, j, k)` of row 0 lane 0, and the last instruction's
/// value lands in `out`. Every lane applies the same `apply_un` /
/// `apply_bin` / `apply_cmp` as [`Expr::eval`], on the same operands in
/// the same order — a tree instruction composes the calls of its two or
/// three operators in one pass, each rounded as it is there — so each
/// point gets bit for bit what the tree walk gives it (an untaken `Select`
/// branch is computed here and skipped there; its value is discarded
/// either way).
///
/// # Safety
/// `p` comes from [`lower`], `params` covers its `Param`s and
/// `rows * w <= TILE_LANES`. `regs` is private to the caller and valid for
/// `n_regs + TILE_SCRATCH` registers of `TILE_LANES` elements. `out` and
/// every view `resolve` returns are valid for `rows` rows of `w` lanes and
/// lie outside `regs`; `out` overlaps an operand view only exactly (same
/// pointer, same strides).
#[allow(clippy::too_many_arguments)]
pub unsafe fn run_tile(
    p: &TileProgram,
    regs: *mut f64,
    rows: usize,
    w: usize,
    out: View,
    index0: [i64; 3],
    params: &[f64],
    resolve: impl Fn(Src) -> View,
) {
    debug_assert!(rows * w <= TILE_LANES);
    let reg = |r: usize| View { ptr: regs.add(r * TILE_LANES), stride: w, lane: 1 };
    // A scalar becomes one `w`-lane scratch row that every tile row shares.
    let splat = |v: f64, scratch: usize| {
        debug_assert!(scratch < TILE_SCRATCH);
        let row = View { stride: 0, ..reg(p.n_regs as usize + scratch) };
        std::slice::from_raw_parts_mut(row.ptr, w).fill(v);
        row
    };
    let view = |src: Src, scratch: usize| match src {
        Src::Reg(r) => reg(r as usize),
        Src::Const(v) => splat(v, scratch),
        Src::Param(p) => splat(params[p as usize], scratch),
        other => resolve(other),
    };
    let last = p.instrs.len() - 1;
    for (n, ins) in p.instrs.iter().enumerate() {
        let dst = if n == last { out } else { reg(ins.dst as usize) };
        match ins.op {
            Op::Mov(a) => map(dst, rows, w, [view(a, 0)], |[x]| x),
            Op::Un(op, a) => {
                let a = [view(a, 0)];
                per_op!(op, OP: UnOp = UnOp::Neg | UnOp::Abs | UnOp::Sqrt | UnOp::Exp | UnOp::Log
                    | UnOp::Sin | UnOp::Cos | UnOp::Floor | UnOp::Sign
                    => map(dst, rows, w, a, |[x]| apply_un(OP, x)))
            }
            Op::Bin(op, a, b) => {
                let ab = [view(a, 0), view(b, 1)];
                per_op!(op, OP: BinOp = BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                    | BinOp::Min | BinOp::Max | BinOp::Pow
                    => map(dst, rows, w, ab, |[x, y]| apply_bin(OP, x, y)))
            }
            Op::Cmp(op, a, b) => {
                let ab = [view(a, 0), view(b, 1)];
                per_op!(op, OP: CmpOp = CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge
                    | CmpOp::Eq | CmpOp::Ne
                    => map(dst, rows, w, ab, |[x, y]| if apply_cmp(OP, x, y) { 1.0 } else { 0.0 }))
            }
            Op::Select(c, a, b) => {
                let cab = [view(c, 0), view(a, 1), view(b, 2)];
                map(dst, rows, w, cab, |[c, x, y]| if c != 0.0 { x } else { y })
            }
            Op::PowI(a, n) => map(dst, rows, w, [view(a, 0)], |[x]| apply_powi(x, n)),
            Op::BinL(o, (u, a, b), c) => {
                let abc = [view(a, 0), view(b, 1), view(c, 2)];
                per_tree_op!(o, O => per_tree_op!(u, U => map(dst, rows, w, abc, |[x, y, z]| {
                    apply_bin(O, apply_bin(U, x, y), z)
                })))
            }
            Op::BinR(o, c, (u, a, b)) => {
                let cab = [view(c, 0), view(a, 1), view(b, 2)];
                per_tree_op!(o, O => per_tree_op!(u, U => map(dst, rows, w, cab, |[z, x, y]| {
                    apply_bin(O, z, apply_bin(U, x, y))
                })))
            }
            Op::BinLR(o, (u, a, b), (v, c, d)) => {
                let abcd = [view(a, 0), view(b, 1), view(c, 2), view(d, 3)];
                per_tree_op!(o, O => per_tree_op!(u, U => per_tree_op!(v, V => {
                    map(dst, rows, w, abcd, |[x, y, z, t]| apply_bin(O, apply_bin(U, x, y), apply_bin(V, z, t)))
                })))
            }
            Op::Index(axis) => {
                for r in 0..rows {
                    for l in 0..w {
                        let at = [l, r, 0][axis.idx()] as i64;
                        *dst.ptr.add(r * dst.stride + l * dst.lane) = (index0[axis.idx()] + at) as f64;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{EvalCtx, LocalId, ParamId};
    use rand::{Rng, SeedableRng};

    /// Random expression generator over safe domains (positive field
    /// values so log/sqrt/pow stay finite).
    fn random_expr(rng: &mut impl Rng, depth: u32) -> Expr {
        if depth > 0 && rng.gen_range(0..4) == 0 {
            // A long add / sub / mul chain with operators that do not fold
            // between its links, so trees of every shape meet registers.
            let links = rng.gen_range(2..7);
            return (0..links).fold(random_expr(rng, depth - 1), |acc, _| {
                let x = random_expr(rng, depth - 1);
                let (l, r) = if rng.gen_bool(0.5) { (acc, x) } else { (x, acc) };
                match rng.gen_range(0..8) {
                    0 => Expr::un(UnOp::Neg, l) - r,
                    1 => Expr::bin(BinOp::Min, l, r),
                    2 => Expr::bin(BinOp::Max, l, r),
                    3 => l / (Expr::un(UnOp::Abs, r) + Expr::c(0.5)),
                    4 | 5 => l * r,
                    6 => l + r,
                    _ => l - r,
                }
            });
        }
        if depth == 0 {
            return match rng.gen_range(0..5) {
                0 => Expr::Const(rng.gen_range(0.5..3.0)),
                1 => Expr::Param(ParamId(rng.gen_range(0..4))),
                2 => Expr::Local(LocalId(rng.gen_range(0..4))),
                3 => Expr::Index([Axis::I, Axis::J, Axis::K][rng.gen_range(0..3)]),
                _ => Expr::Load(
                    DataId(rng.gen_range(0..3)),
                    Offset3::new(
                        rng.gen_range(-2..3),
                        rng.gen_range(-2..3),
                        rng.gen_range(-2..3),
                    ),
                ),
            };
        }
        match rng.gen_range(0..8) {
            0 => Expr::un(UnOp::Abs, random_expr(rng, depth - 1)),
            1 => Expr::un(UnOp::Sqrt, Expr::un(UnOp::Abs, random_expr(rng, depth - 1))),
            2 => Expr::bin(
                BinOp::Add,
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
            3 => Expr::bin(
                BinOp::Mul,
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
            4 => Expr::bin(
                BinOp::Pow,
                Expr::un(UnOp::Abs, random_expr(rng, depth - 1)),
                Expr::Const(rng.gen_range(1..4) as f64),
            ),
            5 => Expr::cmp(
                CmpOp::Lt,
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
            6 => Expr::select(
                Expr::cmp(
                    CmpOp::Gt,
                    random_expr(rng, depth - 1),
                    Expr::Const(1.0),
                ),
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
            _ => Expr::bin(
                BinOp::Sub,
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
        }
    }

    /// 1 + 2⁻³⁰: its square, 1 + 2⁻²⁹ + 2⁻⁶⁰, rounds to 1 + 2⁻²⁹, so
    /// `INEXACT * INEXACT - SQUARE` is 0 when the product is rounded on its
    /// own and 2⁻⁶⁰ under a fused multiply-add.
    const INEXACT: f64 = 1.0 + 1.0 / (1u64 << 30) as f64;
    const SQUARE: f64 = 1.0 + 1.0 / (1u64 << 29) as f64;

    /// What a lane loop that took a shortcut would get wrong: signed
    /// zeros, infinities, NaNs told apart by sign and payload, denormals,
    /// products that overflow, underflow or round.
    fn hard(n: i64) -> f64 {
        let table = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0a11),
            f64::from_bits(0xfff8_0000_0000_0b22),
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 4.0,
            INEXACT,
            -SQUARE,
            1.0e200,
            -3.0e-200,
            1.0 / 3.0,
        ];
        table[n.rem_euclid(table.len() as i64) as usize]
    }

    /// Field slots and locals from here up hold [`hard`] values.
    const HARD_FROM: u16 = 8;

    /// Deterministic point-dependent test world shared by the tree walk
    /// and the tile runs below: field/local values vary with the absolute
    /// index so lane mismatches cannot hide behind uniform data.
    fn world_field(slot: u16, off: Offset3, i: i64, j: i64, k: i64) -> f64 {
        if slot >= HARD_FROM {
            return hard(slot as i64 * 37 + (i + off.i as i64) * 7 + (j + off.j as i64) * 5 + k * 3);
        }
        0.25 + ((slot as i64 * 37
            + (i + off.i as i64) * 7
            + (j + off.j as i64) * 5
            + (k + off.k as i64) * 3)
            .rem_euclid(97)) as f64
            * 0.031
    }

    fn world_local(l: u16, i: i64) -> f64 {
        if l >= HARD_FROM {
            return hard(l as i64 * 13 + i * 11);
        }
        ((l as i64 * 13 + i * 11).rem_euclid(19)) as f64 * 0.05 - 0.4
    }

    struct PointWorld<'a> {
        params: &'a [f64],
        i: i64,
        j: i64,
        k: i64,
    }

    impl EvalCtx for PointWorld<'_> {
        fn load(&self, d: DataId, off: Offset3) -> f64 {
            world_field(slot(d), off, self.i, self.j, self.k)
        }
        fn local(&self, l: LocalId) -> f64 {
            world_local(l.0 as u16, self.i)
        }
        fn param(&self, p: ParamId) -> f64 {
            self.params[p.0]
        }
        fn index(&self, axis: Axis) -> i64 {
            [self.i, self.j, self.k][axis.idx()]
        }
    }

    fn slot(d: DataId) -> u16 {
        d.0 as u16
    }

    /// Whether an operator of `e` reads two NaNs of different bits at this
    /// point. Which of them it hands on is the compiler's choice at each
    /// call site (`x + y` may be emitted as `y + x`), so such a point must
    /// come out NaN from both evaluators, and any other point bit for bit.
    fn two_nans_meet(e: &Expr, at: &PointWorld) -> bool {
        let mut met = false;
        e.visit(&mut |node| {
            if let Expr::Bin(_, a, b) = node {
                let (x, y) = (a.eval(at), b.eval(at));
                met |= x.is_nan() && y.is_nan() && x.to_bits() != y.to_bits();
            }
        });
        met
    }

    /// Run `e` lowered over a `rows × w` tile of the test world and check
    /// every point against the tree walk.
    fn check_tile(e: &Expr, params: &[f64], origin: (i64, i64, i64), rows: usize, w: usize) {
        let (i0, j0, k) = origin;
        let tile = lower(e, &slot);
        let mut regs = vec![0.0; (tile.n_regs as usize + TILE_SCRATCH) * TILE_LANES];
        let mut out = vec![0.0; rows * w];
        let at = |n: usize| (i0 + (n % w) as i64, j0 + (n / w) as i64);
        // Every leaf the program reads, materialised as a packed tile.
        let mut leaves: Vec<(Src, Vec<f64>)> = Vec::new();
        for ins in &tile.instrs {
            ins.op.map(|src| {
                let value = |n: usize| match (src, at(n)) {
                    (Src::Field { slot, off }, (i, j)) => world_field(slot, off, i, j, k),
                    (Src::Local(l), (i, _)) => world_local(l, i),
                    _ => 0.0,
                };
                leaves.push((src, (0..rows * w).map(value).collect()));
            });
        }
        unsafe {
            let dst = View { ptr: out.as_mut_ptr(), stride: w, lane: 1 };
            run_tile(&tile, regs.as_mut_ptr(), rows, w, dst, [i0, j0, k], params, |src| {
                let leaf = leaves.iter().find(|(s, _)| *s == src).expect("a leaf of the program");
                View { ptr: leaf.1.as_ptr() as *mut f64, stride: w, lane: 1 }
            });
        }
        for (n, tiled) in out.iter().enumerate() {
            let (i, j) = at(n);
            let point = PointWorld { params, i, j, k };
            let tree = e.eval(&point);
            if two_nans_meet(e, &point) {
                assert!(tree.is_nan() && tiled.is_nan(), "rows={rows} w={w} point={n}: {e:?}");
                continue;
            }
            assert_eq!(tree.to_bits(), tiled.to_bits(), "rows={rows} w={w} point={n}: {e:?}");
        }
    }

    #[test]
    fn tile_vm_bit_identical_to_scalar_vm_per_point() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x1a9e5 ^ 0xff);
        for _ in 0..200 {
            let e = random_expr(&mut rng, 4);
            let params: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..2.0)).collect();
            let origin = (rng.gen_range(-3..10), rng.gen_range(-2..6), rng.gen_range(0..5));
            for (rows, w) in [(1, 1), (1, 3), (5, 17), (10, 24), (1, TILE_LANES)] {
                check_tile(&e, &params, origin, rows, w);
            }
        }
    }

    fn load(slot: usize, i: i32) -> Expr {
        Expr::Load(DataId(slot), Offset3::new(i, 0, 0))
    }

    #[test]
    fn leaves_lower_to_operands_and_a_pure_leaf_to_one_move() {
        let t = lower(&load(0, 1), &slot);
        let leaf = Src::Field { slot: 0, off: Offset3::new(1, 0, 0) };
        assert_eq!(t.instrs, vec![TileInstr { dst: u16::MAX, op: Op::Mov(leaf) }]);
        assert_eq!(t.n_regs, 0);

        let e = (load(0, 0) + Expr::c(2.0)) / Expr::Param(ParamId(1));
        let t = lower(&e, &slot);
        assert_eq!(t.instrs.len(), 2, "five tree nodes, two of them arithmetic");
        assert_eq!(t.n_regs, 1, "the root writes the destination, not a register");
    }

    #[test]
    fn cse_computes_a_repeated_subtree_once_and_keeps_signed_zeros_apart() {
        let sum = || load(0, -1) + load(0, 1);
        let e = sum() * sum() + sum();
        assert_eq!(e.size(), 11);
        // The sum is read three times: it stays an instruction, computed
        // once, and only the once-read product folds into the root.
        let (l, r) = (Src::Field { slot: 0, off: Offset3::new(-1, 0, 0) }, Src::Field { slot: 0, off: Offset3::new(1, 0, 0) });
        let s = Src::Reg(0);
        assert_eq!(ops(&e), [Op::Bin(BinOp::Add, l, r), Op::BinL(BinOp::Add, (BinOp::Mul, s, s), s)]);
        check_tile(&e, &[], (0, 0, 0), 3, 7);

        // `x * 0.0` and `x * -0.0` differ in the sign of the result: two
        // values, each read once, so both fold.
        let e = load(0, 0) * Expr::c(0.0) + load(0, 0) * Expr::c(-0.0);
        let [Op::BinLR(_, (_, _, Src::Const(p)), (_, _, Src::Const(m)))] = ops(&e)[..] else {
            panic!("{:?}", ops(&e));
        };
        assert_eq!([p.to_bits(), m.to_bits()], [0.0f64.to_bits(), (-0.0f64).to_bits()]);
    }

    #[test]
    fn registers_follow_tree_depth_not_node_count() {
        // A 40-term left-leaning sum of products: 79 arithmetic nodes.
        let term = |n: i32| load(0, n) * load(1, -n);
        let e = (1..40).fold(term(0), |acc, n| acc + term(n) * Expr::c(n as f64));
        assert!(e.size() > 150);
        let t = lower(&e, &slot);
        assert!(t.n_regs <= 3, "{} registers", t.n_regs);
        // No instruction overwrites a register it reads.
        for ins in &t.instrs {
            ins.op.map(|s| assert_ne!(s, Src::Reg(ins.dst)));
        }
        check_tile(&e, &[], (2, 1, 0), 4, 9);
    }

    fn ops(e: &Expr) -> Vec<Op<Src>> {
        lower(e, &slot).instrs.iter().map(|i| i.op).collect()
    }

    #[test]
    fn powi_expression_compiles_to_powi_instr() {
        let x = Src::Local(0);
        assert_eq!(ops(&Expr::powi(Expr::Local(LocalId(0)), 2)), [Op::PowI(x, 2)]);
    }

    #[test]
    fn untransformed_integer_pow_stays_general_purpose() {
        // Matches the paper: generated code contains pow(delpc, 2.0)
        // until the power transformation rewrites it.
        let e = Expr::bin(BinOp::Pow, Expr::Local(LocalId(0)), Expr::Const(2.0));
        assert_eq!(ops(&e), [Op::Bin(BinOp::Pow, Src::Local(0), Src::Const(2.0))]);
    }

    #[test]
    fn non_integer_pow_stays_general() {
        let e = Expr::bin(BinOp::Pow, Expr::Local(LocalId(0)), Expr::Const(0.5));
        assert_eq!(ops(&e), [Op::Bin(BinOp::Pow, Src::Local(0), Src::Const(0.5))]);
    }

    #[test]
    fn register_count_is_tight_enough() {
        let e = Expr::c(1.0) + Expr::c(2.0) + Expr::c(3.0) + Expr::c(4.0);
        let t = lower(&e, &slot);
        assert!(t.n_regs <= 2, "{} registers for a chain of three adds", t.n_regs);
        assert_eq!(t.instrs.last().map(|i| i.dst), Some(u16::MAX), "the root is computed last");
    }

    #[test]
    fn negative_integer_pow() {
        let e = Expr::powi(Expr::Const(2.0), -3);
        assert_eq!(apply_powi(2.0, -3), 0.125);
        check_tile(&e, &[], (0, 0, 0), 2, 3);
    }

    /// Leaf `n` of a tree under test, of one of five kinds; fields, locals
    /// and the register's operand hold [`hard`] values that vary by lane,
    /// constants and parameters a [`hard`] value each.
    fn hard_leaf(kind: usize, n: usize) -> Expr {
        let field = Expr::Load(DataId(HARD_FROM as usize + n), Offset3::new(n as i32 - 1, 1, 0));
        match kind % 5 {
            0 => field,
            // `Neg` does not fold: its value reaches the tree in a register.
            1 => Expr::un(UnOp::Neg, field),
            2 => Expr::Local(LocalId(HARD_FROM as usize + n)),
            3 => Expr::Const(hard(kind as i64 + 5 * n as i64)),
            _ => Expr::Param(ParamId(n)),
        }
    }

    #[test]
    fn every_tree_form_matches_the_tree_walk_on_hard_values() {
        const OPS: [BinOp; 3] = [BinOp::Add, BinOp::Sub, BinOp::Mul];
        let params: Vec<f64> = (0..4).map(|n| hard(3 * n + 2)).collect();
        let (mut forms, mut widest) = (std::collections::HashSet::new(), 0);
        // Leaf kinds by position: every kind in every position, then four
        // constants, four parameters and the two alternations — scalars
        // only, one scratch row each.
        let kinds = (0..5).map(|r| [r, r + 1, r + 2, r + 3]);
        let kinds = kinds.chain([[3, 3, 3, 3], [4, 4, 4, 4], [3, 4, 3, 4], [4, 3, 4, 3]]);
        for kinds in kinds {
            let leaf = |n: usize| hard_leaf(kinds[n], n);
            for (o, p, q) in OPS.iter().flat_map(|o| OPS.iter().flat_map(move |p| OPS.map(|q| (*o, *p, q)))) {
                let trees = [
                    Expr::bin(o, Expr::bin(p, leaf(0), leaf(1)), leaf(2)),
                    Expr::bin(o, leaf(0), Expr::bin(p, leaf(1), leaf(2))),
                    Expr::bin(o, Expr::bin(p, leaf(0), leaf(1)), Expr::bin(q, leaf(2), leaf(3))),
                ];
                for e in trees {
                    let root = *ops(&e).last().expect("a root");
                    forms.insert(match root {
                        Op::BinL(o, (p, ..), _) => (0, o, p, p),
                        Op::BinR(o, _, (p, ..)) => (1, o, p, p),
                        Op::BinLR(o, (p, ..), (q, ..)) => (2, o, p, q),
                        other => panic!("{e:?} lowered to {other:?}"),
                    });
                    let mut operands = 0;
                    root.map(|_| operands += 1);
                    widest = widest.max(operands);
                    for (rows, w) in [(1, 1), (1, 3), (5, 17), (10, 24), (1, TILE_LANES)] {
                        check_tile(&e, &params, (-2, 3, 1), rows, w);
                    }
                }
            }
        }
        assert_eq!(forms.len(), 18 + 27);
        // One scratch row per operand of the widest form, and no more: the
        // all-scalar trees above ran with every one of them in use, in a
        // register file `check_tile` sizes by the constant.
        assert_eq!(widest, TILE_SCRATCH);
    }

    #[test]
    fn a_tree_rounds_every_operator_on_its_own() {
        // Each product is inexact; an FMA would keep the 2⁻⁶⁰ the rounding
        // drops. Both operand orders, both sides at once.
        let (a, c) = (|| Expr::Const(INEXACT), || Expr::Param(ParamId(0)));
        for e in [
            a() * a() + c(),
            c() + a() * a(),
            a() * a() - Expr::un(UnOp::Neg, c()),
            Expr::un(UnOp::Neg, c()) - a() * a(),
            a() * a() + c() * Expr::c(1.0),
        ] {
            assert!(matches!(ops(&e).last(), Some(Op::BinL(..) | Op::BinR(..) | Op::BinLR(..))), "{e:?}");
            let walked = e.eval(&PointWorld { params: &[-SQUARE], i: 0, j: 0, k: 0 });
            assert_eq!(walked, 0.0, "{e:?}");
            check_tile(&e, &[-SQUARE], (0, 0, 0), 10, 24);
        }
    }
}
