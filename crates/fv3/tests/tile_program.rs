//! Deterministic executor counters on the expanded c24L8 tile graph (the
//! repo benchmark's main case). A silent fall-back to one-row tiles, to
//! leaf instructions, to programs without CSE or to one pass per operator
//! fails a count here, not a timing somewhere else; the operator-lanes
//! stand where they stood before trees folded, so no operator was dropped
//! or run twice.

use comm::CubeGeometry;
use dataflow::exec::{compile_kernel, DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use dataflow::{DataflowNode, Expr, Sdfg};
use fv3::dyn_core::{build_dycore_program, load_state, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};

const N: usize = 24;
const NK: usize = 8;

fn tile_graph() -> (DycoreProgram, Sdfg) {
    let config = DycoreConfig {
        n_split: 1,
        k_split: 1,
        dt: 30.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    let prog = build_dycore_program(N, NK, config);
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    (prog, g)
}

#[test]
fn tile_step_dispatches_are_pinned_and_cover_wide_tiles() {
    let (prog, g) = tile_graph();
    let geom = CubeGeometry::new(N);
    let grid = Grid::compute(&geom.faces[1], N, 0, 0, N, HALO, NK);
    let mut state = DycoreState::zeros(N, NK);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    let exec = Executor::serial();
    for step in 0..2 {
        let rep = exec.run(&g, &mut store, &prog.params, &mut hooks);
        assert_eq!(rep.launches, 25, "step {step}");
        assert_eq!(rep.lanes_scalar, 0, "step {step}");
        assert_eq!(rep.vm_dispatches, 3917, "step {step}");
        assert_eq!(rep.vm_lane_ops, 780_336, "step {step}");
        assert_eq!(rep.vm_operator_lanes, 1_224_584, "step {step}");
        assert!(rep.vm_lane_ops / rep.vm_dispatches >= 128);
    }
}

#[test]
fn interior_and_rind_dispatches_are_pinned() {
    // The parallel schedule runs the same step as two graphs. The rind's
    // W/E strips are a few columns wide in a hull as wide as the domain:
    // blocks sized to the hull cut each into slivers (15 224 dispatches
    // for the rind alone, 59 lanes each), blocks sized to the largest
    // statement rectangle run each strip as one tile.
    let (prog, g) = tile_graph();
    let split = dataflow::split_for_overlap(&g, N).expect("substep program splits");
    let geom = CubeGeometry::new(N);
    let grid = Grid::compute(&geom.faces[1], N, 0, 0, N, HALO, NK);
    let mut state = DycoreState::zeros(N, NK);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    let exec = Executor::serial();
    let interior = exec.run(&split.interior, &mut store, &prog.params, &mut hooks);
    let rind = exec.run(&split.rind, &mut store, &prog.params, &mut hooks);
    assert_eq!(interior.lanes_scalar + rind.lanes_scalar, 0);
    let counts = |r: &dataflow::exec::ExecReport| {
        (r.launches, r.vm_dispatches, r.vm_lane_ops, r.vm_operator_lanes)
    };
    assert_eq!(counts(&interior), (20, 1222, 210_140, 330_676));
    assert_eq!(counts(&rind), (25, 5340, 570_196, 893_908));
}

#[test]
fn expanded_dycore_lowers_to_few_instructions_in_few_registers() {
    let (_, g) = tile_graph();
    let (mut nodes, mut operators, mut lowered, mut applied, mut regs) = (0, 0, 0, 0, 0);
    for node in g.states.iter().flat_map(|s| &s.nodes) {
        if let DataflowNode::Kernel(k) = node {
            for s in &k.stmts {
                let mut leaves = 0;
                s.expr.visit(&mut |e| {
                    use Expr::*;
                    leaves += matches!(e, Const(_) | Param(_) | Load(..) | Local(_)) as usize;
                });
                nodes += s.expr.size();
                // Leaves as operands: one instruction per operator, one
                // move for a statement that is a single leaf.
                operators += (s.expr.size() - leaves).max(1);
            }
            let ck = compile_kernel(k);
            let (instrs, r) = ck.tile_shape();
            lowered += instrs;
            applied += ck.tile_operators();
            regs = regs.max(r);
        }
    }
    // 625 expression nodes, 293 of them operators; value numbering removes
    // 30 more, and the 263 left run as 170 instructions once add / sub /
    // mul trees fold. One register per node would cost `fv_tp_2d#3` alone
    // 82; CSE'd live ranges included, no tile program needs over 8.
    assert_eq!((nodes, operators, applied, lowered), (625, 293, 263, 170));
    assert!(regs <= 12, "{regs} registers");
}
