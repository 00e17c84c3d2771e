//! Differential tests for the tile VM: random kernels + domains must
//! execute bit-identically through `VmMode::Scalar` (the per-column
//! reference path) and `VmMode::Lanes` (tile programs over j-row blocks),
//! across storage orders (unit and non-unit i-stride), hulls from 1 lane
//! to wider than a tile register, j-extents that leave a short last
//! block, region and K-interval statements that cover part of a block,
//! `Index(J)` inside a tile, locals carried through vertical solvers,
//! in-place updates, and add / sub / mul chains that lower to tree
//! instructions.
//!
//! The same generator drives a dynamic oracle for `dataflow::reuse`: a
//! store that ran a random program, with every cell the program writes
//! poisoned, must rerun it to the bits of a fresh store once the
//! containers on the clear-list are zeroed.
//!
//! A third oracle checks the packing of transients
//! (`dataflow::liveness`): random programs of many short-lived
//! transients, some kernels inside a loop of several trips, run on a
//! packed store whose shared arrays start as NaN, must leave every
//! container that is not transient as the same program does with nothing
//! packed.

use dataflow::bytecode::TILE_LANES;
use dataflow::exec::{run_kernel_with, validate_kernel, DataStore, Executor, NoHooks, VmMode};
use dataflow::expr::{BinOp, CmpOp, LocalId, ParamId};
use dataflow::graph::{ControlNode, DataflowNode, Sdfg, State};
use dataflow::kernel::{
    Anchor, AxisInterval, Domain, Extent2, KOrder, Kernel, LValue, Region2, Schedule, Stmt,
};
use dataflow::storage::{Array3, Axis, Layout, StorageOrder};
use dataflow::{DataId, Expr};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

const HALO: [usize; 3] = [2, 2, 1];
/// Input containers readable at offsets; outputs are written (and only
/// ever read at offset 0 horizontally, to satisfy the parallel model).
const N_INPUTS: usize = 3;
const N_OUTPUTS: usize = 2;
const N_PARAMS: usize = 3;
const N_LOCALS: usize = 2;

fn arb_order() -> impl Strategy<Value = StorageOrder> {
    prop_oneof![
        Just(StorageOrder::IContiguous),
        Just(StorageOrder::KContiguous),
        Just(StorageOrder::JContiguous),
    ]
}

fn arb_korder() -> impl Strategy<Value = KOrder> {
    prop_oneof![
        Just(KOrder::Parallel),
        Just(KOrder::Forward),
        Just(KOrder::Backward),
    ]
}

/// A random expression over inputs (free offsets within the halo),
/// outputs (self-reads at zero horizontal offset, K offset legal for
/// `korder`), locals, params, indices, and constants.
fn random_expr(rng: &mut SmallRng, depth: u32, ids: &[DataId], korder: KOrder) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0..6) {
            0 => Expr::c(rng.gen_range(-2.0..2.0)),
            1 => Expr::Param(ParamId(rng.gen_range(0..N_PARAMS))),
            2 => Expr::Local(LocalId(rng.gen_range(0..N_LOCALS))),
            3 => Expr::Index([Axis::I, Axis::J, Axis::K][rng.gen_range(0..3)]),
            4 => {
                // Self-read of an output: zero horizontal offset, K
                // offset restricted by the kernel's order.
                let d = ids[N_INPUTS + rng.gen_range(0..N_OUTPUTS)];
                let dk = match korder {
                    KOrder::Parallel => 0,
                    KOrder::Forward => rng.gen_range(-1..1),
                    KOrder::Backward => rng.gen_range(0..2),
                };
                Expr::load(d, 0, 0, dk)
            }
            _ => Expr::load(
                ids[rng.gen_range(0..N_INPUTS)],
                rng.gen_range(-1..2),
                rng.gen_range(-1..2),
                rng.gen_range(-1..2),
            ),
        };
    }
    let sub = |rng: &mut SmallRng| random_expr(rng, depth - 1, ids, korder);
    if rng.gen_range(0..4) == 0 {
        // A long add / sub / mul chain, operators the lowering does not
        // fold between its links: tree instructions of every shape, fed
        // by fields, locals, scalars and registers.
        let links = rng.gen_range(2..8);
        return (0..links).fold(sub(rng), |acc, _| {
            let x = sub(rng);
            let (l, r) = if rng.gen_bool(0.5) { (acc, x) } else { (x, acc) };
            match rng.gen_range(0..9) {
                // The negated operand is finite: a negated NaN differs
                // in sign from the default NaN a `0 / 0` elsewhere makes,
                // and where two NaNs of different bits meet, the one
                // handed on is the compiler's choice per call site.
                0 => l + Expr::un(dataflow::UnOp::Neg, Expr::Param(ParamId(rng.gen_range(0..N_PARAMS)))) * r,
                1 => Expr::bin(BinOp::Min, l, r),
                2 => Expr::bin(BinOp::Max, l, r),
                3 => l / (r.clone() * r + Expr::c(0.5)),
                4 | 5 => l * r,
                6 => l + r,
                _ => l - r,
            }
        });
    }
    match rng.gen_range(0..9) {
        0 => Expr::un(dataflow::UnOp::Abs, sub(rng)),
        1 => Expr::un(dataflow::UnOp::Sqrt, Expr::un(dataflow::UnOp::Abs, sub(rng))),
        2 => Expr::bin(BinOp::Add, sub(rng), sub(rng)),
        3 => Expr::bin(BinOp::Mul, sub(rng), sub(rng)),
        4 => Expr::bin(BinOp::Sub, sub(rng), sub(rng)),
        5 => Expr::powi(Expr::un(dataflow::UnOp::Abs, sub(rng)), rng.gen_range(1..4)),
        6 => Expr::cmp(CmpOp::Lt, sub(rng), sub(rng)),
        // Unguarded: a zero divisor (a comparison, an index, a fresh
        // local) makes ±inf/NaN, and under a `Select` the tree walk skips
        // the untaken branch the tile VM computes.
        7 => Expr::bin(BinOp::Div, sub(rng), sub(rng)),
        _ => Expr::select(
            Expr::cmp(CmpOp::Gt, sub(rng), Expr::c(0.5)),
            sub(rng),
            sub(rng),
        ),
    }
}

fn random_interval(rng: &mut SmallRng) -> AxisInterval {
    match rng.gen_range(0..4) {
        0 => AxisInterval::FULL,
        1 => AxisInterval::at_start(rng.gen_range(0..2)),
        2 => AxisInterval::new(Anchor::End(-1), Anchor::End(0)),
        _ => AxisInterval::new(
            Anchor::Start(rng.gen_range(0..2)),
            Anchor::End(rng.gen_range(-1..1)),
        ),
    }
}

/// Build a random valid kernel over `ids` with `n_stmts` statements.
fn random_kernel(
    rng: &mut SmallRng,
    ids: &[DataId],
    domain: Domain,
    korder: KOrder,
    n_stmts: usize,
) -> Kernel {
    let mut k = Kernel::new("diff", domain, korder, Schedule::gpu_horizontal());
    k.n_locals = N_LOCALS;
    for _ in 0..n_stmts {
        let lvalue = if rng.gen_bool(0.25) {
            LValue::Local(LocalId(rng.gen_range(0..N_LOCALS)))
        } else {
            LValue::Field(ids[N_INPUTS + rng.gen_range(0..N_OUTPUTS)])
        };
        let depth = rng.gen_range(1..4);
        let mut expr = random_expr(rng, depth, ids, korder);
        if rng.gen_bool(0.3) {
            // In place: `x = x ∘ y` or `x = y ∘ x`, the destination is
            // also an operand (of a tree instruction when `y` folds).
            let own = match lvalue {
                LValue::Local(l) => Expr::Local(l),
                LValue::Field(d) => Expr::load(d, 0, 0, 0),
            };
            let op = [BinOp::Add, BinOp::Mul, BinOp::Max][rng.gen_range(0..3)];
            expr = if rng.gen_bool(0.5) {
                Expr::bin(op, own, expr)
            } else {
                Expr::bin(op, expr, own)
            };
        }
        let (region, extent) = if rng.gen_bool(0.3) {
            (
                Some(Region2 {
                    i: random_interval(rng),
                    j: random_interval(rng),
                }),
                Extent2::ZERO,
            )
        } else if rng.gen_bool(0.3) && matches!(lvalue, LValue::Field(_)) {
            (
                None,
                Extent2 {
                    i_lo: rng.gen_range(0..2),
                    i_hi: rng.gen_range(0..2),
                    j_lo: rng.gen_range(0..2),
                    j_hi: rng.gen_range(0..2),
                },
            )
        } else {
            (None, Extent2::ZERO)
        };
        let k_range = if rng.gen_bool(0.4) {
            random_interval(rng)
        } else {
            AxisInterval::FULL
        };
        k.stmts.push(Stmt {
            lvalue,
            expr,
            k_range,
            region,
            extent,
        });
    }
    k
}

/// Deterministic nonzero fill of container `n` covering compute domain
/// and halo.
fn fill_array(layout: Layout, n: usize) -> Array3 {
    Array3::from_fn(layout, |i, j, k| {
        0.2 + ((n as i64 * 41 + i * 17 + j * 13 + k * 7).rem_euclid(29)) as f64 * 0.13
    })
}

fn fill_store(g: &Sdfg, ids: &[DataId], store: &mut DataStore) {
    for (n, d) in ids.iter().enumerate() {
        *store.get_mut(*d) = fill_array(g.layout_of(*d), n);
    }
}

fn assert_stores_bit_identical(a: &DataStore, b: &DataStore, ids: &[DataId], label: &str) {
    for d in ids {
        let (x, y) = (a.get(*d), b.get(*d));
        for (n, (p, q)) in x.raw().iter().zip(y.raw()).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: container {d:?} flat index {n}: {p} vs {q}"
            );
        }
    }
}

/// Run one random program through both VM modes (and on stores that
/// share lent inputs) and require bit identity everywhere.
#[allow(clippy::too_many_arguments)]
fn check_case(
    ni: usize,
    nj: usize,
    nk: usize,
    orders: (StorageOrder, StorageOrder),
    korder: KOrder,
    n_stmts: usize,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Sdfg::new("vm_diff");
    let shape = [ni, nj, nk];
    let ids: Vec<DataId> = (0..N_INPUTS + N_OUTPUTS)
        .map(|n| {
            let order = if n % 2 == 0 { orders.0 } else { orders.1 };
            g.add_container(
                format!("f{n}"),
                Layout::new(shape, HALO, order, if n % 2 == 0 { 8 } else { 1 }),
                false,
            )
        })
        .collect();
    let domain = Domain::from_shape(shape);
    let kernel = random_kernel(&mut rng, &ids, domain, korder, n_stmts);
    if validate_kernel(&kernel).is_err() {
        // Offset draw hit an illegal self-dependency; skip this case.
        return;
    }
    let params: Vec<f64> = (0..N_PARAMS).map(|_| rng.gen_range(0.2..1.7)).collect();

    let mut scalar_store = DataStore::for_sdfg(&g);
    fill_store(&g, &ids, &mut scalar_store);
    let mut lanes_store = scalar_store.clone();

    let s = run_kernel_with(&kernel, &mut scalar_store, &params, VmMode::Scalar);
    let v = run_kernel_with(&kernel, &mut lanes_store, &params, VmMode::Lanes);
    assert_eq!(s.points, v.points);
    assert_eq!((v.lanes_vector, v.lanes_scalar), (s.lanes_scalar, 0));
    assert_stores_bit_identical(&scalar_store, &lanes_store, &ids, "lanes");

    // The same program with its inputs declared constant: two stores that
    // share one lent set of input arrays run to the bits of the store
    // that owns its own.
    let mut shared = Sdfg::new("vm_diff_shared");
    for (n, d) in ids.iter().enumerate() {
        let c = shared.add_container(format!("f{n}"), g.layout_of(*d), false);
        shared.containers[c.0].constant = n < N_INPUTS;
    }
    let lent: Vec<Arc<Array3>> = (0..N_INPUTS)
        .map(|n| Arc::new(fill_array(g.layout_of(ids[n]), n)))
        .collect();
    for label in ["shared, first store", "shared, second store"] {
        let mut store = DataStore::for_sdfg(&shared);
        for (d, a) in ids.iter().zip(&lent) {
            store.lend_constant(*d, a);
        }
        for (n, d) in ids.iter().enumerate().skip(N_INPUTS) {
            *store.get_mut(*d) = fill_array(g.layout_of(*d), n);
        }
        run_kernel_with(&kernel, &mut store, &params, VmMode::Lanes);
        assert_stores_bit_identical(&scalar_store, &store, &ids, label);
    }
}

/// Bit pattern no computation produces: marks cells a run left alone.
const UNTOUCHED: u64 = 0x7ff8_dead_beef_0001;

/// Run a random multi-kernel program (later kernels read what earlier
/// ones wrote, a whole-container copy in between) on a fresh store and on
/// a used one prepared as `reuse::clear_list` prescribes.
fn check_reuse(ni: usize, nj: usize, nk: usize, korders: [KOrder; 3], n_stmts: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Sdfg::new("reuse_diff");
    let shape = [ni, nj, nk];
    let ids: Vec<DataId> = (0..N_INPUTS + N_OUTPUTS)
        .map(|n| {
            // Inputs alternate padded and unpadded; the outputs copy into
            // each other and share one (padded) layout.
            let align = if n % 2 == 0 || n >= N_INPUTS { 8 } else { 1 };
            let layout = Layout::new(shape, HALO, StorageOrder::IContiguous, align);
            g.add_container(format!("f{n}"), layout, false)
        })
        .collect();
    let (inputs, outputs) = ids.split_at(N_INPUTS);
    let mut state = State::new("s");
    for korder in korders {
        let kernel = random_kernel(&mut rng, &ids, Domain::from_shape(shape), korder, n_stmts);
        if validate_kernel(&kernel).is_ok() {
            state.nodes.push(DataflowNode::Kernel(kernel));
        }
        if rng.gen_bool(0.2) {
            let (src, dst) = if rng.gen_bool(0.5) { (0, 1) } else { (1, 0) };
            state.nodes.push(DataflowNode::Copy { src: outputs[src], dst: outputs[dst] });
        }
    }
    g.add_state(state);
    let params: Vec<f64> = (0..N_PARAMS).map(|_| rng.gen_range(0.2..1.7)).collect();
    let run = |store: &mut DataStore| {
        fill_store(&g, inputs, store);
        Executor::serial().run(&g, store, &params, &mut NoHooks);
    };

    let mut fresh = DataStore::for_sdfg(&g);
    run(&mut fresh);

    // Which cells does the program write? Whatever a run changes in
    // outputs filled with a pattern it cannot compute. (`x = x + y` on an
    // untouched cell keeps the NaN payload and goes unseen; that cell is
    // then zeroed below instead of poisoned, which is what a store holds
    // where nothing was ever written.)
    let mut probe = DataStore::for_sdfg(&g);
    for d in outputs {
        probe.get_mut(*d).raw_mut().fill(f64::from_bits(UNTOUCHED));
    }
    run(&mut probe);

    let clear = dataflow::reuse::clear_list(&g, inputs);
    let mut used = DataStore::for_sdfg(&g);
    for d in outputs.iter().filter(|d| !clear.contains(d)) {
        for (v, p) in used.get_mut(*d).raw_mut().iter_mut().zip(probe.get(*d).raw()) {
            if p.to_bits() != UNTOUCHED {
                *v = f64::NAN;
            }
        }
    }
    run(&mut used);
    assert_stores_bit_identical(&fresh, &used, &ids, &format!("clear-list {clear:?}"));
}

const N_TRANSIENTS: usize = 8;

/// A random program of `n_kernels` kernels for the packing oracle: three
/// inputs, [`N_TRANSIENTS`] transients (two of them in a layout of their
/// own) and two accumulating outputs. Each kernel defines one transient
/// over the domain grown by its extent from inputs and transients defined
/// before (mostly the last few), at offsets they cover, and may update it
/// in place over part of the domain from one of them (read after the
/// transient was defined, in the same kernel); one kernel in three accumulates
/// transients into an output. Now and then a read reaches cells nobody
/// wrote first, or a copy moves a whole container: those transients must
/// stay out of the packing. A random run of consecutive nodes sits in a
/// loop of one to three trips.
fn packing_program(rng: &mut SmallRng, shape: [usize; 3], n_kernels: usize) -> (Sdfg, Vec<DataId>) {
    let mut g = Sdfg::new("packing_diff");
    let layout = |align| Layout::new(shape, HALO, StorageOrder::IContiguous, align);
    let inputs: Vec<DataId> =
        (0..N_INPUTS).map(|n| g.add_container(format!("in{n}"), layout(8), false)).collect();
    let temps: Vec<DataId> = (0..N_TRANSIENTS)
        .map(|n| g.add_container(format!("t{n}"), layout(if n < 2 { 1 } else { 8 }), true))
        .collect();
    let outputs: Vec<DataId> =
        (0..N_OUTPUTS).map(|n| g.add_container(format!("out{n}"), layout(8), false)).collect();
    let domain = Domain::from_shape(shape);
    // The horizontal extent each transient was last defined over.
    let mut defined: Vec<Option<i32>> = vec![None; N_TRANSIENTS];
    let mut next = 0;
    let mut nodes = Vec::new();
    for _ in 0..n_kernels {
        if rng.gen_bool(0.1) {
            let (src, dst) = match rng.gen_range(0..2) {
                0 => (inputs[rng.gen_range(0..N_INPUTS)], rng.gen_range(2..N_TRANSIENTS)),
                _ => (temps[rng.gen_range(2..N_TRANSIENTS)], rng.gen_range(2..N_TRANSIENTS)),
            };
            if src != temps[dst] {
                nodes.push(DataflowNode::Copy { src, dst: temps[dst] });
                defined[dst] = Some(2);
            }
            continue;
        }
        let korder = [KOrder::Parallel, KOrder::Forward][rng.gen_range(0..2)];
        let mut k = Kernel::new("pack", domain, korder, Schedule::gpu_horizontal());
        let accumulate = rng.gen_range(0..3) == 0;
        let (target, ext) = if accumulate {
            (outputs[rng.gen_range(0..N_OUTPUTS)], 0)
        } else {
            // Mostly the next transient in turn, so most die young.
            next = (next + rng.gen_range(1..3)) % N_TRANSIENTS;
            (temps[next], rng.gen_range(0..2))
        };
        let mut expr = Expr::load(inputs[rng.gen_range(0..N_INPUTS)], rng.gen_range(-1..2), 0, rng.gen_range(-1..2));
        for _ in 0..rng.gen_range(1..4) {
            // Mostly one of the two defined last.
            let s = match rng.gen_bool(0.8) {
                true => (next + N_TRANSIENTS - rng.gen_range(0..3)) % N_TRANSIENTS,
                false => rng.gen_range(0..N_TRANSIENTS),
            };
            if temps[s] == target {
                continue;
            }
            // Rarely, the whole halo: cells nobody may have written first.
            let reach = match defined[s] {
                _ if rng.gen_bool(0.03) => HALO[0] as i32 - ext,
                Some(e) => (e - ext).max(0),
                None => continue,
            };
            if reach < 0 {
                continue;
            }
            let load = Expr::load(temps[s], rng.gen_range(-reach..=reach), rng.gen_range(-reach..=reach), 0);
            expr = match rng.gen_range(0..3) {
                0 => expr + load,
                1 => expr * load,
                _ => Expr::bin(BinOp::Max, expr, load),
            };
        }
        if accumulate {
            expr = Expr::load(target, 0, 0, 0) + expr;
        }
        let mut def = Stmt::full(LValue::Field(target), expr);
        let e = ext as i64;
        def.extent = Extent2 { i_lo: e, i_hi: e, j_lo: e, j_hi: e };
        k.stmts.push(def);
        if rng.gen_bool(0.4) {
            // In place over part of the domain, from the column below when
            // the kernel marches upward.
            let dk = if korder == KOrder::Forward { -1 } else { 0 };
            let s = (next + N_TRANSIENTS - rng.gen_range(1..3)) % N_TRANSIENTS;
            let source = match defined[s] {
                Some(_) if temps[s] != target => temps[s],
                _ => inputs[rng.gen_range(0..N_INPUTS)],
            };
            let mut update = Stmt::full(
                LValue::Field(target),
                Expr::load(target, 0, 0, dk) * Expr::Param(ParamId(rng.gen_range(0..N_PARAMS)))
                    + Expr::load(source, 0, 0, 0),
            );
            update.k_range = AxisInterval::new(Anchor::Start(1), Anchor::End(0));
            if rng.gen_bool(0.5) {
                update.region = Some(Region2 { i: random_interval(rng), j: random_interval(rng) });
            }
            k.stmts.push(update);
        }
        if let Some(t) = temps.iter().position(|t| *t == target) {
            defined[t] = Some(ext);
        }
        nodes.push(DataflowNode::Kernel(k));
    }
    // Cut the nodes into before / loop body / after.
    let loop_at = rng.gen_range(0..nodes.len().max(1));
    let loop_end = rng.gen_range(loop_at..=nodes.len());
    let trips = rng.gen_range(1..4);
    let after = nodes.split_off(loop_end);
    let body = nodes.split_off(loop_at);
    for (name, part) in [("before", nodes), ("body", body), ("after", after)] {
        let mut st = State::new(name);
        st.nodes = part;
        g.states.push(st);
    }
    g.control = vec![
        ControlNode::State(0),
        ControlNode::Loop { trips, body: vec![ControlNode::State(1)] },
        ControlNode::State(2),
    ];
    g.touch();
    (g, inputs)
}

/// Run a random program on a packed store whose packed arrays start as
/// NaN, and on a store of the same graph with nothing transient: every
/// container that is not transient ends bit-identical. Returns whether
/// the packed store shared an array.
fn check_packing(shape: [usize; 3], n_kernels: usize, seed: u64) -> bool {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (g, inputs) = packing_program(&mut rng, shape, n_kernels);
    let params: Vec<f64> = (0..N_PARAMS).map(|_| rng.gen_range(0.2..1.7)).collect();
    let mut unpacked = g.clone();
    for c in &mut unpacked.containers {
        c.transient = false;
    }
    let run = |g: &Sdfg, store: &mut DataStore| {
        fill_store(g, &inputs, store);
        Executor::serial().run(g, store, &params, &mut NoHooks);
    };
    let mut reference = DataStore::for_sdfg(&unpacked);
    run(&unpacked, &mut reference);
    let kept: Vec<DataId> = (0..g.containers.len())
        .map(DataId)
        .filter(|d| !g.containers[d.0].transient)
        .collect();
    let unwritten = dataflow::reuse::reads_unwritten(&g);
    let mut packed = DataStore::for_sdfg(&g);
    for d in (0..g.containers.len()).map(DataId) {
        if g.containers[d.0].transient && !unwritten.contains(&d) {
            packed.get_mut(d).raw_mut().fill(f64::NAN);
        }
    }
    run(&g, &mut packed);
    assert_stores_bit_identical(&reference, &packed, &kept, "packed");
    DataStore::for_sdfg(&g).owned_arrays().0 < DataStore::for_sdfg(&unpacked).owned_arrays().0
}

/// The packing oracle packs: most random programs share an array.
#[test]
fn most_packing_programs_share_arrays() {
    let shared = (0..64).filter(|&seed| check_packing([5, 4, 3], 8, seed)).count();
    assert!(shared >= 48, "only {shared} of 64 programs shared an array");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Transients packed by their live intervals never see each other's
    /// values: extents, halo offsets, in-place updates, K marches, copies
    /// and loops of several trips.
    #[test]
    fn packed_stores_run_to_the_bits_of_unpacked_ones(
        ni in 1usize..10,
        nj in 1usize..10,
        nk in 1usize..4,
        n_kernels in 2usize..10,
        seed in 0u64..1u64 << 48,
    ) {
        check_packing([ni, nj, nk], n_kernels, seed);
    }

    /// The region check never leaves out a container the rerun needs
    /// zeroed: regions, K intervals, extents, solver self-reads and
    /// in-place updates all make reads that earlier writes only partly
    /// cover.
    #[test]
    fn clear_list_is_enough_to_reuse_a_store(
        ni in 1usize..12,
        nj in 1usize..12,
        nk in 1usize..5,
        korders in (arb_korder(), arb_korder(), arb_korder()),
        n_stmts in 1usize..5,
        seed in 0u64..1u64 << 48,
    ) {
        check_reuse(ni, nj, nk, [korders.0, korders.1, korders.2], n_stmts, seed);
    }

    /// The headline property: arbitrary domains (several j-row blocks,
    /// the last one short), storage orders, K orders, and statement
    /// shapes — scalar and tile VMs agree to the last bit.
    #[test]
    fn tiles_bit_identical_to_scalar_on_random_kernels(
        ni in 1usize..40,
        nj in 1usize..40,
        nk in 1usize..5,
        orders in (arb_order(), arb_order()),
        korder in arb_korder(),
        n_stmts in 1usize..5,
        seed in 0u64..1u64 << 48,
    ) {
        check_case(ni, nj, nk, orders, korder, n_stmts, seed);
    }

    /// Hulls around and beyond one tile register: i-widths straddling
    /// TILE_LANES run one-row tiles cut into a full chunk and a remainder.
    #[test]
    fn hulls_wider_than_a_tile_register(
        di in 0usize..40,
        nj in 1usize..4,
        orders in (arb_order(), arb_order()),
        korder in arb_korder(),
        seed in 0u64..1u64 << 48,
    ) {
        check_case(TILE_LANES - 8 + di, nj, 2, orders, korder, 3, seed);
    }

    /// Hulls 1–3 wide: tiles are tall and thin (up to TILE_LANES rows).
    #[test]
    fn narrow_hulls(
        ni in 1usize..4,
        nj in 1usize..300,
        nk in 1usize..4,
        orders in (arb_order(), arb_order()),
        korder in arb_korder(),
        seed in 0u64..1u64 << 48,
    ) {
        check_case(ni, nj, nk, orders, korder, 2, seed);
    }
}
