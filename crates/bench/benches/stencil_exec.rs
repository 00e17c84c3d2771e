//! Real wall-clock benchmarks of the stencil executor on the host:
//! the copy stencil (bandwidth probe), the Smagorinsky pow stencil before
//! and after strength reduction, and coalesced-layout variants.

use criterion::{criterion_group, criterion_main, Criterion};
use dataflow::exec::{run_kernel_with, DataStore, VmMode};
use machine::Pool;
use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
use dataflow::transforms::power::reduce_powers;
use dataflow::{Array3, BinOp, Expr, Sdfg};

const N: usize = 64;
const NK: usize = 16;

fn setup(fields: &[&str]) -> (Sdfg, DataStore) {
    let mut g = Sdfg::new("bench");
    let l = dataflow::Layout::fv3_default([N, N, NK], [1, 1, 0]);
    for f in fields {
        g.add_container(*f, l.clone(), false);
    }
    let mut store = DataStore::for_sdfg(&g);
    for i in 0..fields.len() {
        *store.get_mut(dataflow::DataId(i)) =
            Array3::from_fn(g.layout_of(dataflow::DataId(i)), |i2, j, k| {
                1.0 + ((i2 * 7 + j * 3 + k) % 13) as f64 * 0.1
            });
    }
    (g, store)
}

fn copy_kernel() -> Kernel {
    let mut k = Kernel::new(
        "copy",
        Domain::from_shape([N, N, NK]),
        KOrder::Parallel,
        Schedule::gpu_horizontal(),
    );
    k.stmts.push(Stmt::full(
        LValue::Field(dataflow::DataId(1)),
        Expr::load(dataflow::DataId(0), 0, 0, 0),
    ));
    k
}

fn smag_kernel(reduced: bool) -> Kernel {
    let delpc = Expr::load(dataflow::DataId(0), 0, 0, 0);
    let vort = Expr::load(dataflow::DataId(1), 0, 0, 0);
    let mut e = Expr::c(0.1)
        * Expr::bin(
            BinOp::Pow,
            Expr::bin(BinOp::Pow, delpc, Expr::c(2.0))
                + Expr::bin(BinOp::Pow, vort, Expr::c(2.0)),
            Expr::c(0.5),
        );
    if reduced {
        e = reduce_powers(e).0;
    }
    let mut k = Kernel::new(
        "smag",
        Domain::from_shape([N, N, NK]),
        KOrder::Parallel,
        Schedule::gpu_horizontal(),
    );
    k.stmts
        .push(Stmt::full(LValue::Field(dataflow::DataId(2)), e));
    k
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("stencil_exec");
    group.sample_size(20);
    let pool = Pool::new(1);

    let (_, mut store) = setup(&["a", "b"]);
    let k = copy_kernel();
    group.bench_function("copy_stencil", |b| {
        b.iter(|| run_kernel_with(&k, &mut store, &[], &pool, VmMode::default()))
    });

    let (_, mut store) = setup(&["delpc", "vort", "out"]);
    let slow = smag_kernel(false);
    let fast = smag_kernel(true);
    group.bench_function("smagorinsky_pow", |b| {
        b.iter(|| run_kernel_with(&slow, &mut store, &[], &pool, VmMode::default()))
    });
    group.bench_function("smagorinsky_strength_reduced", |b| {
        b.iter(|| run_kernel_with(&fast, &mut store, &[], &pool, VmMode::default()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
