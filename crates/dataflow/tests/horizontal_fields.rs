//! Horizontal fields: one `(i, j)` plane with a K stride of 0
//! (`Layout::horizontal`), the layout of every grid metric.
//!
//! - The layout addresses each cell of the plane once and every level at
//!   the plane, whatever the storage order.
//! - Horizontal ⇒ constant: the executor refuses a non-constant container
//!   with a K stride of 0, and a kernel that writes a horizontal one, so
//!   no two `(block, k)` work items ever write one cell.
//! - The c8L3 dycore program gives the same bits on horizontal metrics
//!   as on metrics replicated over K.

use comm::CubeGeometry;
use dataflow::exec::{DataStore, Executor, NoHooks};
use dataflow::graph::{ExpansionAttrs, Sdfg, State};
use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
use dataflow::storage::{Array3, Layout, StorageOrder};
use dataflow::{DataId, DataflowNode, Expr};
use fv3::dyn_core::{build_dycore_program, extract_state, load_state, DycoreConfig};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use std::collections::HashSet;
use std::sync::Arc;

const ORDERS: [StorageOrder; 3] = [
    StorageOrder::IContiguous,
    StorageOrder::KContiguous,
    StorageOrder::JContiguous,
];

#[test]
fn a_horizontal_layout_holds_one_plane_that_every_level_reads() {
    for order in ORDERS {
        let (domain, halo) = ([5, 4, 3], [2, 1, 1]);
        let l = Layout::horizontal(domain, halo, order, 16);
        let full = Layout::new(domain, halo, order, 16);
        let plane = Layout::new([5, 4, 1], [2, 1, 0], order, 16);
        assert!(l.is_horizontal() && !full.is_horizontal(), "{order:?}");
        assert_eq!((l.len, l.base), (plane.len, plane.base), "{order:?}: one plane");
        assert_eq!((l.domain, l.halo), (full.domain, full.halo), "{order:?}");
        assert_eq!(l.strides[2], 0, "{order:?}");
        let mut seen = HashSet::new();
        for j in -1..5i64 {
            for i in -2..7i64 {
                let off = l.offset(i, j, 0);
                assert!(off < l.len, "{order:?}");
                assert!(seen.insert(off), "{order:?}: aliasing at ({i},{j})");
                for k in -1..4i64 {
                    assert!(l.contains(i, j, k));
                    assert_eq!(l.offset(i, j, k), off, "{order:?}: ({i},{j},{k})");
                }
            }
        }
        assert!(!l.contains(0, 0, 4) && !l.contains(0, 0, -2));
    }
}

/// `dst = src * 2` over `[4, 4, 2]`, with `metric` declared horizontal
/// and `constant` as given.
fn metric_program(metric_is_dst: bool, constant: bool) -> Sdfg {
    let mut g = Sdfg::new("t");
    let (domain, halo) = ([4, 4, 2], [1, 1, 0]);
    let metric = g.add_container(
        "metric",
        Layout::horizontal(domain, halo, StorageOrder::IContiguous, 1),
        false,
    );
    g.containers[metric.0].constant = constant;
    let out = g.add_container("out", Layout::new(domain, halo, StorageOrder::IContiguous, 1), false);
    let (dst, src) = if metric_is_dst { (metric, out) } else { (out, metric) };
    let mut k = Kernel::new("scale", Domain::from_shape(domain), KOrder::Parallel, Schedule::gpu_horizontal());
    k.stmts.push(Stmt::full(LValue::Field(dst), Expr::load(src, 0, 0, 0) * Expr::c(2.0)));
    let mut s = State::new("s");
    s.nodes.push(DataflowNode::Kernel(k));
    g.add_state(s);
    g
}

#[test]
#[should_panic(expected = "container 'metric' of kernel 'scale' has a k-stride of 0 but is not constant")]
fn a_non_constant_horizontal_container_is_refused() {
    let g = metric_program(false, false);
    Executor::serial().run(&g, &mut DataStore::for_sdfg(&g), &[], &mut NoHooks);
}

#[test]
#[should_panic(expected = "kernel 'scale' writes constant container 'metric'")]
fn a_kernel_that_writes_a_horizontal_container_is_refused() {
    let g = metric_program(true, true);
    Executor::serial().run(&g, &mut DataStore::for_sdfg(&g), &[], &mut NoHooks);
}

/// `metric` with its plane copied to every level of a full 3-D array.
fn replicated(metric: &Array3) -> Array3 {
    let l = metric.layout();
    let mut a = Array3::zeros(Layout::new(l.domain, l.halo, l.order, l.alignment));
    a.import_logical(&metric.export_logical());
    a
}

#[test]
fn the_c8l3_dycore_gives_the_same_bits_on_horizontal_and_replicated_metrics() {
    let (n, nk) = (8, 3);
    let prog = build_dycore_program(n, nk, DycoreConfig::default());
    let ids = &prog.ids;
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());

    // The program as built: six constant grid metrics, all horizontal.
    let mut horizontal = prog.sdfg.clone();
    horizontal.expand_libraries(&ExpansionAttrs::tuned());
    let metrics = [
        (ids.rdx, &grid.rdx),
        (ids.rdy, &grid.rdy),
        (ids.area, &grid.area),
        (ids.rarea, &grid.rarea),
        (ids.cosa, &grid.cosa),
        (ids.sina, &grid.sina),
    ];
    let constants = horizontal.containers.iter().filter(|c| c.constant).count();
    assert_eq!(constants, metrics.len());
    // The same program on metrics replicated over K.
    let mut full = horizontal.clone();
    for (d, metric) in metrics {
        assert!(horizontal.layout_of(d).is_horizontal());
        assert_eq!(metric.raw().len(), metric.layout().len, "one plane");
        full.containers[d.0].layout = replicated(metric).layout().clone();
    }

    let exec = Executor::serial();
    let mut hooks = RemapHooks { ids };
    let mut on_planes = DataStore::for_sdfg(&horizontal);
    load_state(&mut on_planes, ids, &state, &grid);
    let mut on_levels = DataStore::for_sdfg(&full);
    for (d, metric) in metrics {
        on_levels.lend_constant(d, &Arc::new(replicated(metric)));
    }
    for (d, (_, field)) in ids.loaded().into_iter().zip(state.fields()) {
        on_levels.get_mut(d).copy_from(field);
    }
    for _ in 0..2 {
        exec.run(&horizontal, &mut on_planes, &prog.params, &mut hooks);
        exec.run(&full, &mut on_levels, &prog.params, &mut hooks);
    }

    let mut compared = 0;
    for (c, container) in horizontal.containers.iter().enumerate() {
        if container.transient || container.constant {
            continue;
        }
        let d = DataId(c);
        let (a, b) = (on_planes.get(d).export_logical(), on_levels.get(d).export_logical());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "'{}' moved", container.name);
        }
        compared += 1;
    }
    assert!(compared >= ids.loaded().len(), "every prognostic compared ({compared})");
    let mut stepped = state.clone();
    extract_state(&on_planes, ids, &mut stepped);
    assert!(!stepped.has_nonfinite());
    assert!(stepped.max_abs_diff(&state) > 0.0, "the program stepped");
}
