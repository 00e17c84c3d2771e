//! Differential transform-correctness harness.
//!
//! Every registered transform is applied to generated SDFGs and the
//! transformed program's `DataStore` output is compared against the
//! untransformed program, element by element, in ULPs, against the tier
//! the transform declares in [`dataflow::transforms::tier`]: a bit-exact
//! kind must be *bitwise* identical (0 ULP); the power transform replaces
//! `powf` with repeated multiplication (`Powi`), so it is budgeted.
//!
//! Each transformed program is additionally executed under the profiler
//! ([`Executor::run_in`] with a tracer in its `RunContext`) and must
//! match its unprofiled run bitwise — instrumentation must not perturb
//! results.
//!
//! `prune_regions` is deliberately NOT in the registry: it drops
//! compute regions that a distributed decomposition makes redundant and
//! is therefore semantics-changing on a single rank.

use dataflow::exec::{validate_sdfg, DataStore, Executor, NoHooks};
use dataflow::graph::{ControlNode, DataflowNode, Sdfg, State};
use dataflow::kernel::{Domain, Extent2, KOrder, Kernel, LValue, Schedule, Stmt};
use dataflow::passes;
use dataflow::storage::{Array3, Layout, StorageOrder};
use dataflow::transforms::fusion::{
    fuse_otf, fuse_subgraph, greedy_otf_fusion, greedy_subgraph_fusion, plan_otf, plan_subgraph,
    FusionPlan, TransformResult,
};
use dataflow::transforms::local_storage::{cache_registers_everywhere, demote_transients_to_locals};
use dataflow::transforms::power::optimize_powers;
use dataflow::transforms::schedule::{assign_schedules, split_regions};
use dataflow::transforms::tiling::apply_tiling;
use dataflow::transforms::{tier, Tier, UsageMap};
use dataflow::{DataId, Expr, Offset3, ParamId, UnOp};
use dataflow::expr::BinOp;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generated programs

/// Shape of one generated test program.
#[derive(Clone, Debug)]
struct Spec {
    order: StorageOrder,
    /// Pointwise/offset chain stages: (coefficient, di, dj).
    chain: Vec<(f64, i32, i32)>,
    /// Integer exponent of the pow stage (2..=5).
    pow_exp: i32,
    /// Add a cumulative Forward-order vertical kernel.
    vertical: bool,
    /// Control-flow loop trips around the state.
    trips: u32,
    seed: u64,
}

impl Spec {
    fn default_with(order: StorageOrder) -> Spec {
        Spec {
            order,
            chain: vec![(1.5, 1, 0), (0.75, 0, -1), (2.0, -1, 1)],
            pow_exp: 3,
            vertical: true,
            trips: 2,
            seed: 7,
        }
    }
}

const N: usize = 8;
const NK: usize = 4;
const HALO: [usize; 3] = [3, 3, 1];

/// Build the program: input -> chain of transient stages -> chain_out,
/// then pow_out = |chain_out|^e and (optionally) a Forward-order
/// cumulative kernel v_out(k) = 0.5*v_out(k-1) + chain_out, all inside
/// an optional control loop.
fn build_program(spec: &Spec) -> (Sdfg, DataId, Vec<DataId>) {
    let mut g = Sdfg::new("diff");
    let l = Layout::new([N, N, NK], HALO, spec.order, 1);
    let input = g.add_container("in", l.clone(), false);
    let chain_out = g.add_container("chain_out", l.clone(), false);
    let pow_out = g.add_container("pow_out", l.clone(), false);
    let p0 = g.add_param("p0");

    let mut s = State::new("s0");
    let dom = Domain::from_shape([N, N, NK]);

    // Backward extent propagation so OTF recomputation of transient
    // stages covers every point a later stage's offset read touches.
    let n = spec.chain.len();
    let mut exts = vec![Extent2::ZERO; n];
    for idx in (0..n - 1).rev() {
        let (_, di, dj) = spec.chain[idx + 1];
        exts[idx] = exts[idx + 1].shifted_by(Offset3::new(di, dj, 0));
    }
    let mut prev = input;
    for (idx, (c, di, dj)) in spec.chain.iter().enumerate() {
        let dst = if idx == n - 1 {
            chain_out
        } else {
            g.add_container(format!("t{idx}"), l.clone(), true)
        };
        let mut k = Kernel::new(
            format!("stage{idx}"),
            dom,
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let mut e = Expr::load(prev, *di, *dj, 0) * Expr::c(*c) + Expr::c(1.0);
        if idx == 0 {
            e = e * Expr::Param(ParamId(p0.0));
        }
        let mut stmt = Stmt::full(LValue::Field(dst), e);
        stmt.extent = exts[idx];
        k.stmts.push(stmt);
        s.nodes.push(DataflowNode::Kernel(k));
        prev = dst;
    }

    // Pow stage: exercised by `optimize_powers` (abs-guarded integer
    // exponent, the reducible form).
    let mut kp = Kernel::new(
        "powk",
        dom,
        KOrder::Parallel,
        Schedule::gpu_horizontal(),
    );
    kp.stmts.push(Stmt::full(
        LValue::Field(pow_out),
        Expr::bin(
            BinOp::Pow,
            Expr::un(UnOp::Abs, Expr::load(chain_out, 0, 0, 0)) + Expr::c(0.25),
            Expr::c(spec.pow_exp as f64),
        ),
    ));
    s.nodes.push(DataflowNode::Kernel(kp));

    let mut outs = vec![chain_out, pow_out];
    if spec.vertical {
        let v_out = g.add_container("v_out", l.clone(), false);
        let mut kv = Kernel::new(
            "vcum",
            dom,
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        kv.stmts.push(Stmt::full(
            LValue::Field(v_out),
            Expr::load(v_out, 0, 0, -1) * Expr::c(0.5) + Expr::load(chain_out, 0, 0, 0),
        ));
        s.nodes.push(DataflowNode::Kernel(kv));
        outs.push(v_out);
    }

    g.add_state(s);
    g.control = if spec.trips > 1 {
        vec![ControlNode::Loop {
            trips: spec.trips,
            body: vec![ControlNode::State(0)],
        }]
    } else {
        vec![ControlNode::State(0)]
    };
    (g, input, outs)
}

/// Execute `g` from a deterministic input fill; `profiled` routes the
/// run through the profiler (which must not perturb anything).
fn run(g: &Sdfg, input: DataId, outs: &[DataId], seed: u64, profiled: bool) -> Vec<Array3> {
    let mut store = DataStore::for_sdfg(g);
    *store.get_mut(input) = Array3::from_fn(g.layout_of(input), |i, j, k| {
        ((i * 3 + j * 5 + k * 7 + seed as i64).rem_euclid(17)) as f64 * 0.25 + 0.125
    });
    let params = vec![1.25; g.params.len()];
    let exec = Executor::serial();
    if profiled {
        let tracer = obs::Tracer::new();
        let ctx = machine::RunContext {
            tracer: Some(tracer.clone()),
            ..Default::default()
        };
        exec.run_in(g, &mut store, &params, &mut NoHooks, &ctx);
        let kernels = tracer.finished().iter().filter(|e| e.cat == "kernel").count();
        assert!(kernels > 0, "profiler saw no kernels");
    } else {
        exec.run(g, &mut store, &params, &mut NoHooks);
    }
    outs.iter().map(|&o| store.get(o).clone()).collect()
}

// ---------------------------------------------------------------------
// ULP comparison

/// Monotonic key: total order over f64 bit patterns.
fn ulp_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b + (1 << 63)
    } else {
        !b
    }
}

fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b {
        return 0; // also covers +0.0 vs -0.0
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    ulp_key(a).abs_diff(ulp_key(b))
}

/// Max ULP distance over the full logical box (interior + halo) of each
/// output pair.
fn max_ulps(g: &Sdfg, outs: &[DataId], a: &[Array3], b: &[Array3]) -> u64 {
    let mut worst = 0u64;
    for (idx, &o) in outs.iter().enumerate() {
        let l = g.layout_of(o);
        let [hi, hj, hk] = l.halo;
        let [ni, nj, nk] = l.domain;
        for k in -(hk as i64)..(nk + hk) as i64 {
            for j in -(hj as i64)..(nj + hj) as i64 {
                for i in -(hi as i64)..(ni + hi) as i64 {
                    worst = worst.max(ulp_diff(a[idx].get(i, j, k), b[idx].get(i, j, k)));
                }
            }
        }
    }
    worst
}

// ---------------------------------------------------------------------
// Transform registry

type Apply = Box<dyn Fn(&mut Sdfg)>;

/// Every registered whole-program transform, with the tier its kind
/// declares: the ULP budget against the untransformed program.
/// `prune_regions` is excluded (see module docs).
fn registry() -> Vec<(&'static str, Apply, Tier)> {
    vec![
        ("fusion/sgf", Box::new(|g: &mut Sdfg| drop(greedy_subgraph_fusion(g))), tier("sgf")),
        ("fusion/otf", Box::new(|g: &mut Sdfg| drop(greedy_otf_fusion(g))), tier("otf")),
        (
            "local_storage/registers",
            Box::new(|g: &mut Sdfg| drop(cache_registers_everywhere(g))),
            tier("register-cache"),
        ),
        (
            "local_storage/demote",
            Box::new(|g: &mut Sdfg| drop(demote_transients_to_locals(g))),
            tier("local-demote"),
        ),
        // Powi evaluates by repeated multiplication; powf goes through
        // libm. A few ULPs apart is expected, more is a bug.
        ("power", Box::new(|g: &mut Sdfg| drop(optimize_powers(g))), tier("power")),
        (
            "schedule/assign",
            Box::new(|g: &mut Sdfg| {
                assign_schedules(g, &Schedule::gpu_horizontal(), &Schedule::gpu_vertical());
            }),
            tier("schedule"),
        ),
        (
            "schedule/split_regions",
            Box::new(|g: &mut Sdfg| drop(split_regions(g))),
            tier("region-split"),
        ),
        (
            "tiling",
            Box::new(|g: &mut Sdfg| {
                for s in &mut g.states {
                    for node in &mut s.nodes {
                        if let DataflowNode::Kernel(k) = node {
                            apply_tiling(k, [4, 4]);
                        }
                    }
                }
            }),
            tier("tile"),
        ),
        (
            "passes/fold_constants",
            Box::new(|g: &mut Sdfg| {
                passes::fold_constants(g);
            }),
            tier("pass"),
        ),
        (
            "passes/dead_writes",
            Box::new(|g: &mut Sdfg| {
                passes::eliminate_dead_writes(g);
            }),
            tier("pass"),
        ),
        (
            "passes/redundant_copies",
            Box::new(|g: &mut Sdfg| {
                passes::eliminate_redundant_copies(g);
            }),
            tier("pass"),
        ),
        (
            "passes/unroll_loops",
            Box::new(|g: &mut Sdfg| {
                passes::unroll_loops(g);
            }),
            tier("pass"),
        ),
    ]
}

/// A plan is the fusion it stands for: for every node pair of every state,
/// `plan_*` accepts exactly what `fuse_*` on a clone accepts, its trial
/// state holds the kernels that fusion leaves behind, and planning leaves
/// the graph's generation alone.
fn assert_plans_match_fusions(g: &Sdfg) {
    let usage = UsageMap::build(g);
    let generation = g.generation();
    let same = |s: usize,
                plan: Result<FusionPlan, String>,
                fuse: &dyn Fn(&mut Sdfg) -> TransformResult| {
        let mut after = g.clone();
        let fused = fuse(&mut after);
        let verdicts = (plan.as_ref().map(|p| &p.labels), &fused);
        assert_eq!(plan.is_ok(), fused.is_ok(), "state {s}: {verdicts:?}");
        if let (Ok(plan), Ok(applied)) = (plan, fused) {
            assert_eq!(
                (plan.kind, &plan.labels[..]),
                (applied.kind, &applied.labels[..])
            );
            let (planned, applied) = (plan.trial_state(g), &after.states[s]);
            assert!(
                planned.kernels().eq(applied.kernels()),
                "state {s}: {:?}",
                plan.labels
            );
        }
    };
    for (s, state) in g.states.iter().enumerate() {
        let n = state.nodes.len();
        for a in 0..n {
            for b in a + 1..n {
                same(s, plan_otf(g, &usage, s, a, b), &|t| fuse_otf(t, s, a, b));
            }
            same(s, plan_subgraph(g, s, a), &|t| fuse_subgraph(t, s, a));
        }
    }
    assert_eq!(
        g.generation(),
        generation,
        "planning must not touch the graph"
    );
}

/// The differential check: every registered transform on one spec.
fn check_spec(spec: &Spec) {
    let (g0, input, outs) = build_program(spec);
    validate_sdfg(&g0).expect("generated program validates");
    assert_plans_match_fusions(&g0);
    let reference = run(&g0, input, &outs, spec.seed, false);

    for (name, apply, declared) in registry() {
        let budget = declared.max_ulps();
        let mut gt = g0.clone();
        apply(&mut gt);
        validate_sdfg(&gt).unwrap_or_else(|e| panic!("{name}: transformed program invalid: {e}"));

        let plain = run(&gt, input, &outs, spec.seed, false);
        let ulps = max_ulps(&g0, &outs, &reference, &plain);
        assert!(
            ulps <= budget,
            "{name}: diverged by {ulps} ULPs (budget {budget}) on {spec:?}"
        );

        // Profiled re-run of the *same* transformed program: must be
        // bitwise identical to its unprofiled run.
        let profiled = run(&gt, input, &outs, spec.seed, true);
        let p_ulps = max_ulps(&g0, &outs, &plain, &profiled);
        assert_eq!(
            p_ulps, 0,
            "{name}: profiling perturbed results by {p_ulps} ULPs on {spec:?}"
        );
    }
}

/// The graph the tuner actually searches: the expanded c24L8 dycore, as
/// built and again with its states widened by cross-module fusion (one
/// state of 15 kernels, 105 OTF pairs).
#[test]
fn plans_match_fusions_on_the_dycore_graph() {
    use dataflow::graph::ExpansionAttrs;
    use dataflow::transforms::cross_state::cross_module_fusion;
    use fv3::dyn_core::{build_dycore_program, DycoreConfig};
    let mut g = build_dycore_program(24, 8, DycoreConfig::default()).sdfg;
    g.expand_libraries(&ExpansionAttrs::tuned());
    assert_plans_match_fusions(&g);
    assert!(!cross_module_fusion(&mut g, &mut |_, _, _| true).is_empty());
    assert_plans_match_fusions(&g);
}

// ---------------------------------------------------------------------
// Pinned regression specs — deterministic, always run.

#[test]
fn pinned_icontiguous() {
    check_spec(&Spec::default_with(StorageOrder::IContiguous));
}

#[test]
fn pinned_kcontiguous() {
    check_spec(&Spec::default_with(StorageOrder::KContiguous));
}

#[test]
fn pinned_jcontiguous() {
    check_spec(&Spec::default_with(StorageOrder::JContiguous));
}

#[test]
fn pinned_no_loop_no_vertical() {
    // Regression guard for the loop-free / horizontal-only corner:
    // unroll_loops must be a no-op and fusion still bitwise.
    let spec = Spec {
        order: StorageOrder::KContiguous,
        chain: vec![(0.5, -1, -1), (1.25, 1, 1)],
        pow_exp: 5,
        vertical: false,
        trips: 1,
        seed: 42,
    };
    check_spec(&spec);
}

/// Storage-order sweep: the same logical program must produce bitwise
/// identical logical results under every storage order (regression for
/// layout-dependent iteration; see crates/validate smoke example fix).
#[test]
fn storage_order_sweep_is_zero_diff() {
    let orders = [
        StorageOrder::IContiguous,
        StorageOrder::KContiguous,
        StorageOrder::JContiguous,
    ];
    let mut results: Vec<(Sdfg, Vec<DataId>, Vec<Array3>)> = Vec::new();
    for order in orders {
        let spec = Spec::default_with(order);
        let (g, input, outs) = build_program(&spec);
        let r = run(&g, input, &outs, spec.seed, false);
        results.push((g, outs, r));
    }
    let (g0, outs0, ref0) = &results[0];
    for (g, outs, r) in &results[1..] {
        assert_eq!(outs0.len(), outs.len());
        let ulps = max_ulps(g0, outs0, ref0, r);
        let _ = g;
        assert_eq!(ulps, 0, "storage order changed logical results");
    }
}

// ---------------------------------------------------------------------
// Property-based sweep

fn arb_order() -> impl Strategy<Value = StorageOrder> {
    prop_oneof![
        Just(StorageOrder::IContiguous),
        Just(StorageOrder::KContiguous),
        Just(StorageOrder::JContiguous),
    ]
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (
        arb_order(),
        proptest::collection::vec((0.25f64..2.0, -1i32..2, -1i32..2), 2..5),
        2i32..6,
        prop_oneof![Just(false), Just(true)],
        1u32..4,
        0u64..1000,
    )
        .prop_map(|(order, chain, pow_exp, vertical, trips, seed)| Spec {
            order,
            chain,
            pow_exp,
            vertical,
            trips,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn transforms_preserve_semantics(spec in arb_spec()) {
        check_spec(&spec);
    }
}
