//! Ablation of the execution engine (ISSUE 4): the same representative
//! d_sw-style kernel timed three ways —
//!
//! * `scalar_vm`      — the per-column reference (`VmMode::Scalar`, a
//!   tree walk per point), compiled on every launch,
//! * `vectorized_vm`  — tile VM, still compiled (and lowered) on every
//!   launch (isolates the tile VM win),
//! * `vectorized_cached` — tile VM executing a pre-compiled kernel
//!   (isolates the compile-cache win; the steady-state configuration).
//!
//! The kernel mirrors d_sw's flux/vorticity shape: 9-point horizontal
//! neighborhoods, a per-column local, an upwind select, and a one-column
//! region statement.

use criterion::{criterion_group, criterion_main, Criterion};
use dataflow::exec::{compile_kernel, run_compiled, run_kernel_with, DataStore, VmMode};
use dataflow::expr::LocalId;
use dataflow::kernel::{AxisInterval, Domain, KOrder, Kernel, LValue, Region2, Schedule, Stmt};
use dataflow::{Array3, BinOp, CmpOp, DataId, Expr, Sdfg};
use machine::{Faults, Pool};

const N: usize = 64;
const NK: usize = 16;

fn setup() -> (Sdfg, DataStore) {
    let mut g = Sdfg::new("vm_ablation");
    let l = dataflow::Layout::fv3_default([N, N, NK], [3, 3, 0]);
    for f in ["u", "v", "delp", "vort", "ke", "flux"] {
        g.add_container(f, l.clone(), false);
    }
    let mut store = DataStore::for_sdfg(&g);
    for i in 0..6 {
        *store.get_mut(DataId(i)) = Array3::from_fn(g.layout_of(DataId(i)), |i2, j, k| {
            1.0 + ((i2 * 7 + j * 3 + k) % 13) as f64 * 0.1
        });
    }
    (g, store)
}

/// A d_sw-shaped kernel: vorticity from u/v differences, kinetic energy
/// into a local, an upwinded flux with a select, and an edge-region
/// correction statement.
fn dsw_kernel() -> Kernel {
    let (u, v, delp) = (DataId(0), DataId(1), DataId(2));
    let (vort, ke, flux) = (DataId(3), DataId(4), DataId(5));
    let mut k = Kernel::new(
        "dsw_repr",
        Domain::from_shape([N, N, NK]),
        KOrder::Parallel,
        Schedule::gpu_horizontal(),
    );
    k.n_locals = 1;
    // vort = dv/dx - du/dy (9-point neighborhood reads).
    k.stmts.push(Stmt::full(
        LValue::Field(vort),
        Expr::load(v, 1, 0, 0) - Expr::load(v, -1, 0, 0) - Expr::load(u, 0, 1, 0)
            + Expr::load(u, 0, -1, 0),
    ));
    // local = 0.5 * (u^2 + v^2), then ke = local * delp.
    k.stmts.push(Stmt::full(
        LValue::Local(LocalId(0)),
        Expr::c(0.5)
            * (Expr::load(u, 0, 0, 0) * Expr::load(u, 0, 0, 0)
                + Expr::load(v, 0, 0, 0) * Expr::load(v, 0, 0, 0)),
    ));
    k.stmts.push(Stmt::full(
        LValue::Field(ke),
        Expr::Local(LocalId(0)) * Expr::load(delp, 0, 0, 0),
    ));
    // Upwinded flux: select on the sign of u.
    k.stmts.push(Stmt::full(
        LValue::Field(flux),
        Expr::select(
            Expr::cmp(CmpOp::Gt, Expr::load(u, 0, 0, 0), Expr::c(0.0)),
            Expr::load(delp, -1, 0, 0),
            Expr::load(delp, 1, 0, 0),
        ) * Expr::load(u, 0, 0, 0),
    ));
    // Edge correction on a 2-wide western rind (region statement).
    k.stmts.push(Stmt {
        lvalue: LValue::Field(flux),
        expr: Expr::load(flux, 0, 0, 0) * Expr::c(0.9) + Expr::bin(
            BinOp::Mul,
            Expr::load(vort, 0, 0, 0),
            Expr::c(0.01),
        ),
        k_range: AxisInterval::FULL,
        region: Some(Region2 {
            i: AxisInterval::at_start(1),
            j: AxisInterval::FULL,
        }),
        extent: Default::default(),
    });
    k
}

fn bench_vm_ablation(c: &mut Criterion) {
    let (_g, mut store) = setup();
    let kernel = dsw_kernel();
    let params: Vec<f64> = Vec::new();
    let pool = Pool::new(1);
    let mut group = c.benchmark_group("vm_ablation");

    group.bench_function("scalar_vm", |b| {
        b.iter(|| run_kernel_with(&kernel, &mut store, &params, &pool, VmMode::Scalar))
    });
    group.bench_function("vectorized_vm", |b| {
        b.iter(|| run_kernel_with(&kernel, &mut store, &params, &pool, VmMode::Lanes))
    });
    let compiled = compile_kernel(&kernel);
    group.bench_function("vectorized_cached", |b| {
        b.iter(|| run_compiled(&compiled, &mut store, &params, &pool, VmMode::Lanes, &Faults::inert()))
    });
    group.finish();
}

criterion_group!(benches, bench_vm_ablation);
criterion_main!(benches);
