//! Tile programs for tasklet bodies — the "code generation" stage.
//!
//! DaCe generates C++/CUDA from expanded SDFGs; the equivalent stage here
//! lowers each statement's expression tree once, straight into the
//! operand-form [`TileProgram`] production runs: leaves as operands,
//! common subexpressions computed once, a register file sized by tree
//! depth, executed over 2-D tiles of points ([`run_tile`]). This removes
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
/// splat row per operand of the widest instruction.
pub const TILE_SCRATCH: usize = 3;

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

/// Lower a statement's expression to operand form: value-number the tree
/// (statement-level CSE — no reassociation, so results stay bit-exact),
/// then assign registers by a linear scan that frees a value's register at
/// its last use. `slot_of` maps a [`DataId`] to the kernel-local field slot
/// of a [`Src::Field`]. Scope is one statement: a later statement may have
/// overwritten the fields an earlier one read.
pub fn lower(expr: &Expr, slot_of: &impl Fn(DataId) -> u16) -> TileProgram {
    let mut keys: Vec<Key> = Vec::new();
    let root = number(expr, slot_of, &mut HashMap::new(), &mut keys);
    // The root is the one value nothing else uses, so it was numbered last.
    debug_assert_eq!(root as usize, keys.len() - 1);

    let mut last_use = vec![0usize; keys.len()];
    for (n, key) in keys.iter().enumerate() {
        if let Key::Op(op) = key {
            op.map(|v| last_use[v as usize] = n);
        }
    }
    let mut srcs: Vec<Src> = Vec::with_capacity(keys.len());
    let mut instrs = Vec::new();
    let (mut free, mut n_regs) = (Vec::<u16>::new(), 0u16);
    for (n, key) in keys.iter().enumerate() {
        let src = match *key {
            Key::Const(bits) => Src::Const(f64::from_bits(bits)),
            Key::Param(p) => Src::Param(p),
            Key::Field(slot, off) => Src::Field { slot, off },
            Key::Local(l) => Src::Local(l),
            Key::Op(op) => {
                // Allocate before freeing: `dst` never names an operand.
                let dst = if n + 1 == keys.len() {
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
                op.map(|v| match srcs[v as usize] {
                    Src::Reg(r) if last_use[v as usize] == n && !free.contains(&r) => free.push(r),
                    _ => {}
                });
                Src::Reg(dst)
            }
        };
        srcs.push(src);
    }
    if instrs.is_empty() {
        instrs.push(TileInstr {
            dst: u16::MAX,
            op: Op::Mov(srcs[keys.len() - 1]),
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

/// Expand `$body` once per listed variant of `$op` with `OP` bound to that
/// variant as a `const`, so each arm instantiates its own lane loop.
macro_rules! per_op {
    ($op:expr, $t:ty: $($v:path)|+ => $body:expr) => {
        match $op {
            $($v => {
                const OP: $t = $v;
                $body
            })+
        }
    };
}

/// Execute a tile program over `rows × w` points.
///
/// Register `r` is `regs[r * TILE_LANES ..][.. rows * w]`, row-major;
/// `resolve` turns a `Field`/`Local` operand into a [`View`], `index0` is
/// the global `(i, j, k)` of row 0 lane 0, and the last instruction's
/// value lands in `out`. Every lane applies the same `apply_un` /
/// `apply_bin` / `apply_cmp` as [`Expr::eval`], on the same operands in
/// the same order, so each point gets bit for bit what the tree walk gives
/// it (an untaken `Select` branch is computed here and skipped there; its
/// value is discarded either way).
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
                per_op!(op, UnOp: UnOp::Neg | UnOp::Abs | UnOp::Sqrt | UnOp::Exp | UnOp::Log
                    | UnOp::Sin | UnOp::Cos | UnOp::Floor | UnOp::Sign
                    => map(dst, rows, w, a, |[x]| apply_un(OP, x)))
            }
            Op::Bin(op, a, b) => {
                let ab = [view(a, 0), view(b, 1)];
                per_op!(op, BinOp: BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                    | BinOp::Min | BinOp::Max | BinOp::Pow
                    => map(dst, rows, w, ab, |[x, y]| apply_bin(OP, x, y)))
            }
            Op::Cmp(op, a, b) => {
                let ab = [view(a, 0), view(b, 1)];
                per_op!(op, CmpOp: CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge
                    | CmpOp::Eq | CmpOp::Ne
                    => map(dst, rows, w, ab, |[x, y]| if apply_cmp(OP, x, y) { 1.0 } else { 0.0 }))
            }
            Op::Select(c, a, b) => {
                let cab = [view(c, 0), view(a, 1), view(b, 2)];
                map(dst, rows, w, cab, |[c, x, y]| if c != 0.0 { x } else { y })
            }
            Op::PowI(a, n) => map(dst, rows, w, [view(a, 0)], |[x]| apply_powi(x, n)),
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

    /// Deterministic point-dependent test world shared by the tree walk
    /// and the tile runs below: field/local values vary with the absolute
    /// index so lane mismatches cannot hide behind uniform data.
    fn world_field(slot: u16, off: Offset3, i: i64, j: i64, k: i64) -> f64 {
        0.25 + ((slot as i64 * 37
            + (i + off.i as i64) * 7
            + (j + off.j as i64) * 5
            + (k + off.k as i64) * 3)
            .rem_euclid(97)) as f64
            * 0.031
    }

    fn world_local(l: u16, i: i64) -> f64 {
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
            let tree = e.eval(&PointWorld { params, i, j, k });
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

        let e = (load(0, 0) + Expr::c(2.0)) * Expr::Param(ParamId(1));
        let t = lower(&e, &slot);
        assert_eq!(t.instrs.len(), 2, "five tree nodes, two of them arithmetic");
        assert_eq!(t.n_regs, 1, "the root writes the destination, not a register");
    }

    #[test]
    fn cse_computes_a_repeated_subtree_once_and_keeps_signed_zeros_apart() {
        let sum = || load(0, -1) + load(0, 1);
        let e = sum() * sum() + sum();
        assert_eq!(e.size(), 11);
        let t = lower(&e, &slot);
        assert_eq!(t.instrs.len(), 3, "{t:?}");
        check_tile(&e, &[], (0, 0, 0), 3, 7);

        // `x * 0.0` and `x * -0.0` differ in the sign of the result.
        let e = load(0, 0) * Expr::c(0.0) + load(0, 0) * Expr::c(-0.0);
        assert_eq!(lower(&e, &slot).instrs.len(), 3);
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
}
