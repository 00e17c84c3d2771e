//! Counts, not clocks, on the graph the production build executes
//! (`fv3core::parallel::lower_substep`): §VI-C1's power reduction reaches
//! every bundle — tuned and untuned, run by either schedule — and costs
//! the tile VM nothing (a `Pow` becomes a `Powi` or a `Sqrt`, one
//! instruction each), so `fv3/tests/tile_program.rs`'s pins describe the
//! lowered graph as well as the hand-expanded one.

use comm::CubeGeometry;
use dataflow::exec::{DataStore, ExecReport, Executor};
use dataflow::graph::ExpansionAttrs;
use dataflow::Sdfg;
use fv3::dyn_core::{build_dycore_program, load_state, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use fv3core::parallel::lower_substep;
use fv3core::{CompiledSubstep, DriverConfig};

fn dycore(dt: f64) -> DycoreConfig {
    DycoreConfig {
        n_split: 1,
        k_split: 1,
        dt,
        dddmp: 0.02,
        nord4_damp: None,
    }
}

/// `(kernel, transcendentals)` of every statement that has any.
fn transcendental_stmts(g: &Sdfg) -> Vec<(String, u64)> {
    let kernels = g.states.iter().flat_map(|s| s.kernels());
    kernels
        .flat_map(|k| {
            k.stmts
                .iter()
                .map(move |s| (k.name.clone(), s.expr.transcendentals()))
        })
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// The substep graph without the lowering's power reduction.
fn hand_expanded(prog: &DycoreProgram) -> Sdfg {
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    g
}

#[test]
fn no_bundle_executes_a_general_pow() {
    for (n, nk) in [(24, 8), (8, 3)] {
        let prog = build_dycore_program(n, nk, dycore(4.0));
        // The source program still says `** 2.0` and `** 0.5`: three
        // general powers in d_sw's one Smagorinsky statement.
        let unreduced = transcendental_stmts(&hand_expanded(&prog));
        assert_eq!(unreduced.len(), 1, "c{n}L{nk}: {unreduced:?}");
        assert!(
            unreduced[0].0.starts_with("d_sw") && unreduced[0].1 == 3,
            "{unreduced:?}"
        );

        let cfg = DriverConfig::six_rank(n, nk, dycore(4.0));
        for tuned in [false, true] {
            let sub = CompiledSubstep::build_with_tune(&cfg, tuned);
            assert_eq!(
                transcendental_stmts(sub.graph()),
                [],
                "c{n}L{nk} tuned={tuned}"
            );
        }
    }
}

#[test]
fn lowering_is_two_rewrites_of_one_graph() {
    let prog = build_dycore_program(8, 3, dycore(4.0));
    let g = lower_substep(&prog);
    // A clone starts at generation 0: one bump for the expansion, one for
    // the power reduction, nothing else touched the graph.
    assert_eq!(g.generation(), 2);
    assert_eq!(transcendental_stmts(&g), []);
    assert_eq!(g.kernel_count(), hand_expanded(&prog).kernel_count());
}

fn run_tile(g: &Sdfg, prog: &DycoreProgram, n: usize, nk: usize) -> ExecReport {
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let mut store = DataStore::for_sdfg(g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    Executor::serial().run(g, &mut store, &prog.params, &mut hooks)
}

#[test]
fn the_reduced_tile_substep_costs_the_vm_what_the_unreduced_one_did() {
    let (n, nk) = (24, 8);
    let cfg = DriverConfig::six_rank(n, nk, dycore(30.0));
    let sub = CompiledSubstep::build_with_tune(&cfg, false);
    let prog = sub.program();
    // The graph a rank-substep runs under either schedule: a team rank
    // dispatches these 3 917 tiles, not the 1 222 + 5 340 of an interior
    // graph and a rind graph.
    let lowered = run_tile(sub.graph(), prog, n, nk);
    let unreduced = run_tile(&hand_expanded(prog), prog, n, nk);
    let counts = |r: &ExecReport| {
        let vm = (r.vm_dispatches, r.vm_lane_ops, r.vm_operator_lanes);
        (r.launches, vm, r.lanes_scalar)
    };
    assert_eq!(counts(&lowered), (25, (3917, 780_336, 1_224_584), 0));
    assert_eq!(counts(&lowered), counts(&unreduced));
    let names = |r: &ExecReport| -> Vec<(String, u64, u64)> {
        let row = |k: &dataflow::exec::KernelStat| (k.name.clone(), k.invocations, k.points);
        r.kernels.iter().map(row).collect()
    };
    assert_eq!(names(&lowered), names(&unreduced));
}
