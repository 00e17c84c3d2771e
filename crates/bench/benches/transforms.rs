//! Ablation benchmark for a design decision DESIGN.md calls out: fused vs
//! unfused kernels (real executed data movement). Tile programs vs
//! tree-walking interpretation of tasklet bodies is `vm_ablation`.

use criterion::{criterion_group, criterion_main, Criterion};
use dataflow::exec::{DataStore, Executor, NoHooks};
use dataflow::expr::DataId;
use dataflow::graph::{DataflowNode, Sdfg, State};
use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
use dataflow::transforms::fusion::greedy_subgraph_fusion;
use dataflow::{Array3, Expr};

const N: usize = 48;
const NK: usize = 16;

/// A 4-stage pointwise chain: prime fusion fodder.
fn chain_program() -> Sdfg {
    let mut g = Sdfg::new("chain");
    let l = dataflow::Layout::fv3_default([N, N, NK], [1, 1, 0]);
    let a = g.add_container("a", l.clone(), false);
    let t1 = g.add_container("t1", l.clone(), true);
    let t2 = g.add_container("t2", l.clone(), true);
    let out = g.add_container("out", l, false);
    let dom = Domain::from_shape([N, N, NK]);
    let stage = |name: &str, from: DataId, to: DataId, c: f64| {
        let mut k = Kernel::new(name, dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k.stmts.push(Stmt::full(
            LValue::Field(to),
            Expr::load(from, 0, 0, 0) * Expr::c(c) + Expr::c(1.0),
        ));
        DataflowNode::Kernel(k)
    };
    let mut s = State::new("s");
    s.nodes.push(stage("s0", a, t1, 2.0));
    s.nodes.push(stage("s1", t1, t2, 0.5));
    s.nodes.push(stage("s2", t2, out, 3.0));
    g.add_state(s);
    g
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("transforms");
    group.sample_size(15);

    // Fused vs unfused execution (real data movement difference).
    let unfused = chain_program();
    let mut fused = unfused.clone();
    let applied = greedy_subgraph_fusion(&mut fused);
    assert!(!applied.is_empty());
    for (name, g) in [("chain_unfused", &unfused), ("chain_fused", &fused)] {
        let mut store = DataStore::for_sdfg(g);
        *store.get_mut(DataId(0)) =
            Array3::from_fn(g.layout_of(DataId(0)), |i, j, k| (i + j + k) as f64);
        let exec = Executor::serial();
        group.bench_function(name, |b| {
            b.iter(|| exec.run(g, &mut store, &[], &mut NoHooks))
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
