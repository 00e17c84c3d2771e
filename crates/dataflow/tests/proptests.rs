//! Property-based tests on the dataflow substrate's core invariants:
//! layout bijectivity, constant folding, power strength reduction, and
//! fusion semantics on randomized programs.

use dataflow::exec::{DataStore, Executor, NoHooks};
use dataflow::expr::{BinOp, CmpOp, DataId, EvalCtx, LocalId, Offset3, ParamId, UnOp};
use dataflow::graph::{DataflowNode, Sdfg, State};
use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
use dataflow::storage::{Array3, Axis, Layout, StorageOrder};
use dataflow::transforms::fusion::{greedy_otf_fusion, greedy_subgraph_fusion};
use dataflow::transforms::power::reduce_powers;
use dataflow::Expr;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Layout properties

fn arb_order() -> impl Strategy<Value = StorageOrder> {
    prop_oneof![
        Just(StorageOrder::IContiguous),
        Just(StorageOrder::KContiguous),
        Just(StorageOrder::JContiguous),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn layout_offsets_are_bijective(
        ni in 1usize..10, nj in 1usize..10, nk in 1usize..6,
        hi in 0usize..3, hj in 0usize..3, hk in 0usize..2,
        order in arb_order(),
        align in prop_oneof![Just(1usize), Just(8), Just(32)],
    ) {
        let l = Layout::new([ni, nj, nk], [hi, hj, hk], order, align);
        prop_assert_eq!(l.base % align, 0, "first compute point aligned");
        let mut seen = std::collections::HashSet::new();
        for k in -(hk as i64)..(nk + hk) as i64 {
            for j in -(hj as i64)..(nj + hj) as i64 {
                for i in -(hi as i64)..(ni + hi) as i64 {
                    let off = l.offset(i, j, k);
                    prop_assert!(off < l.len);
                    prop_assert!(seen.insert(off), "aliasing at ({}, {}, {})", i, j, k);
                }
            }
        }
    }

    #[test]
    fn arrays_agree_across_layouts(
        n in 2usize..8,
        order_a in arb_order(),
        order_b in arb_order(),
        seed in 0u64..1000,
    ) {
        // The same logical contents must round-trip identically through
        // any two storage orders.
        let la = Layout::new([n, n, 3], [1, 1, 0], order_a, 16);
        let lb = Layout::new([n, n, 3], [1, 1, 0], order_b, 1);
        let f = |i: i64, j: i64, k: i64| ((i * 7 + j * 13 + k * 31) as f64) + seed as f64;
        let a = Array3::from_fn(la, f);
        let b = Array3::from_fn(lb, f);
        prop_assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}

// ---------------------------------------------------------------------
// Expression / VM properties

#[derive(Clone, Debug)]
struct Ctx {
    vals: Vec<f64>,
    params: Vec<f64>,
    locals: Vec<f64>,
}

fn key(slot: usize, o: Offset3) -> usize {
    slot * 343 + ((o.i + 3) as usize) * 49 + ((o.j + 3) as usize) * 7 + (o.k + 3) as usize
}

impl EvalCtx for Ctx {
    fn load(&self, d: DataId, o: Offset3) -> f64 {
        self.vals[key(d.0, o) % self.vals.len()]
    }
    fn local(&self, l: LocalId) -> f64 {
        self.locals[l.0 % self.locals.len()]
    }
    fn param(&self, p: ParamId) -> f64 {
        self.params[p.0 % self.params.len()]
    }
    fn index(&self, _: Axis) -> i64 {
        3
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0.1f64..4.0).prop_map(Expr::Const),
        (0usize..3).prop_map(|p| Expr::Param(ParamId(p))),
        (0usize..3).prop_map(|l| Expr::Local(LocalId(l))),
        ((0usize..3), (-2i32..3), (-2i32..3), (-2i32..3))
            .prop_map(|(d, i, j, k)| Expr::load(DataId(d), i, j, k)),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Add, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Sub, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Mul, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::bin(BinOp::Max, a, b)),
            inner.clone().prop_map(|a| Expr::un(UnOp::Abs, a)),
            (inner.clone(), 1i32..4).prop_map(|(a, n)| Expr::bin(
                BinOp::Pow,
                Expr::un(UnOp::Abs, a),
                Expr::Const(n as f64)
            )),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Expr::select(
                Expr::cmp(CmpOp::Lt, c, Expr::Const(1.0)),
                a,
                b
            )),
        ]
    })
}

fn arb_ctx() -> impl Strategy<Value = Ctx> {
    (
        proptest::collection::vec(0.1f64..4.0, 400),
        proptest::collection::vec(0.1f64..2.0, 3),
        proptest::collection::vec(-1.0f64..1.0, 3),
    )
        .prop_map(|(vals, params, locals)| Ctx {
            vals,
            params,
            locals,
        })
}

fn close(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || ((a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn power_reduction_preserves_value(e in arb_expr(), ctx in arb_ctx()) {
        let before = e.eval(&ctx);
        let (reduced, _) = reduce_powers(e);
        prop_assert_eq!(reduced.transcendentals(), 0,
            "abs-guarded integer pows must fully reduce");
        let after = reduced.eval(&ctx);
        prop_assert!(close(before, after), "{} vs {}", before, after);
    }

    #[test]
    fn shift_then_loads_are_translated(e in arb_expr(), di in -2i32..3, dj in -2i32..3) {
        let before = e.loads();
        let shifted = e.shift(Offset3::new(di, dj, 0));
        let after = shifted.loads();
        prop_assert_eq!(before.len(), after.len());
        for ((d0, o0), (d1, o1)) in before.iter().zip(after.iter()) {
            prop_assert_eq!(d0, d1);
            prop_assert_eq!(o0.i + di, o1.i);
            prop_assert_eq!(o0.j + dj, o1.j);
            prop_assert_eq!(o0.k, o1.k);
        }
    }
}

// ---------------------------------------------------------------------
// Fusion semantics on randomized pointwise programs

/// A random chain program: a -> t1 -> ... -> out with pointwise or
/// small-offset stages, some fusable, some not.
fn chain_program(coeffs: &[(f64, i32)]) -> (Sdfg, DataId, DataId) {
    let mut g = Sdfg::new("chain");
    let l = Layout::new([10, 10, 3], [3, 3, 0], StorageOrder::IContiguous, 1);
    let input = g.add_container("in", l.clone(), false);
    let out = g.add_container("out", l.clone(), false);
    // Backward extent propagation, as the stencil lowering would do:
    // stage i must be computed far enough beyond the domain for stage
    // i+1's offset read (otherwise OTF recomputation would legitimately
    // differ from reading uninitialized temp halo).
    let n = coeffs.len();
    let mut exts = vec![dataflow::kernel::Extent2::ZERO; n];
    for idx in (0..n - 1).rev() {
        let off = coeffs[idx + 1].1;
        exts[idx] = exts[idx + 1].shifted_by(Offset3::new(off, 0, 0));
    }
    let mut prev = input;
    let mut s = State::new("s");
    for (idx, (c, off)) in coeffs.iter().enumerate() {
        let is_last = idx == n - 1;
        let dst = if is_last {
            out
        } else {
            g.add_container(format!("t{idx}"), l.clone(), true)
        };
        let mut k = Kernel::new(
            format!("stage{idx}"),
            Domain::from_shape([10, 10, 3]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let mut stmt = Stmt::full(
            LValue::Field(dst),
            Expr::load(prev, *off, 0, 0) * Expr::c(*c) + Expr::c(1.0),
        );
        stmt.extent = exts[idx];
        k.stmts.push(stmt);
        s.nodes.push(DataflowNode::Kernel(k));
        prev = dst;
    }
    g.add_state(s);
    (g, input, out)
}

fn run_chain(g: &Sdfg, input: DataId, out: DataId, seed: u64) -> Array3 {
    let mut store = DataStore::for_sdfg(g);
    *store.get_mut(input) = Array3::from_fn(g.layout_of(input), |i, j, k| {
        ((i * 3 + j * 5 + k * 7 + seed as i64) % 17) as f64 * 0.25
    });
    // Also fill the input halo (offset reads may touch it).
    let mut arr = store.get(input).clone();
    for k in 0..3i64 {
        for j in -3..13i64 {
            for i in -3..13i64 {
                arr.set(i, j, k, ((i * 3 + j * 5 + k * 7 + seed as i64).rem_euclid(17)) as f64 * 0.25);
            }
        }
    }
    *store.get_mut(input) = arr;
    Executor::serial().run(g, &mut store, &[], &mut NoHooks);
    store.get(out).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fusions_preserve_chain_semantics(
        coeffs in proptest::collection::vec((0.5f64..2.0, -1i32..2), 2..5),
        seed in 0u64..100,
    ) {
        let (g0, input, out) = chain_program(&coeffs);
        let reference = run_chain(&g0, input, out, seed);

        let mut sgf = g0.clone();
        greedy_subgraph_fusion(&mut sgf);
        let r_sgf = run_chain(&sgf, input, out, seed);
        prop_assert!(reference.max_abs_diff(&r_sgf) < 1e-12, "SGF changed results");

        let mut otf = g0.clone();
        greedy_otf_fusion(&mut otf);
        let r_otf = run_chain(&otf, input, out, seed);
        prop_assert!(reference.max_abs_diff(&r_otf) < 1e-9, "OTF changed results");

        // Fusion never increases the kernel count.
        prop_assert!(sgf.kernel_count() <= g0.kernel_count());
        prop_assert!(otf.kernel_count() <= g0.kernel_count());
    }
}
