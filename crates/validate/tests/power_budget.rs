//! The budgeted tier, held to its budget on the dycore itself.
//!
//! `power` is the one transform that may move a value
//! (`dataflow::transforms::tier`), and the production build applies it
//! (`fv3core::parallel::lower_substep`). This runs the single-tile c12L6
//! dycore 20 steps on the expanded graph with and without the reduction
//! and holds every prognostic to the tier's ULP budget and the conserved
//! masses to 1e-13 — and, since the 0-ULP contracts are contracts *of the
//! lowered graph*, holds the tile VM to `Expr::eval` on the reduced graph.

use comm::CubeGeometry;
use dataflow::exec::{DataStore, Executor, VmMode};
use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::transforms::power::optimize_powers;
use dataflow::transforms::tier;
use fv3::dyn_core::{build_dycore_program, extract_state, load_state, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use validate::{max_ulps_per_field, Savepoint};

const N: usize = 12;
const NK: usize = 6;
const STEPS: usize = 20;

fn case() -> (DycoreProgram, DycoreState, Grid) {
    let config = DycoreConfig {
        n_split: 2,
        k_split: 1,
        dt: 5.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    let geom = CubeGeometry::new(N);
    let grid = Grid::compute(&geom.faces[1], N, 0, 0, N, HALO, NK);
    let mut state = DycoreState::zeros(N, NK);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    (build_dycore_program(N, NK, config), state, grid)
}

fn expanded(prog: &DycoreProgram, reduce: bool) -> Sdfg {
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    if reduce {
        assert!(
            !optimize_powers(&mut g).is_empty(),
            "d_sw's pow sites reduce"
        );
    }
    g
}

fn run(
    g: &Sdfg,
    prog: &DycoreProgram,
    state0: &DycoreState,
    grid: &Grid,
    exec: &Executor,
) -> DycoreState {
    let mut store = DataStore::for_sdfg(g);
    load_state(&mut store, &prog.ids, state0, grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    for _ in 0..STEPS {
        exec.run(g, &mut store, &prog.params, &mut hooks);
    }
    let mut out = state0.clone();
    extract_state(&store, &prog.ids, &mut out);
    assert!(!out.has_nonfinite(), "run went non-finite");
    out
}

fn savepoint(state: &DycoreState) -> Savepoint {
    Savepoint::capture("t20.state", &state.fields())
}

#[test]
fn twenty_reduced_steps_stay_inside_the_power_tiers_budget() {
    let (prog, state0, grid) = case();
    let exec = Executor::serial();
    let plain = run(&expanded(&prog, false), &prog, &state0, &grid, &exec);
    let reduced = run(&expanded(&prog, true), &prog, &state0, &grid, &exec);
    assert!(
        plain.max_abs_diff(&state0) > 0.0,
        "the run integrated nothing"
    );

    let budget = tier("power").max_ulps();
    let observed = max_ulps_per_field(&savepoint(&plain), &savepoint(&reduced));
    println!("power reduction over {STEPS} steps of c{N}L{NK}, max ULP per prognostic: {observed:?} (budget {budget})");
    for (field, ulps) in &observed {
        assert!(
            *ulps <= budget,
            "{field}: {ulps} ULP from the unreduced run (budget {budget})"
        );
    }

    // What the model conserves, it conserves equally well either way.
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs();
    let masses = |s: &DycoreState| (s.air_mass(&grid.area), s.tracer_mass(&grid.area));
    let ((air0, tr0), (air1, tr1)) = (masses(&plain), masses(&reduced));
    assert!(rel(air0, air1) <= 1e-13, "air mass {air0} vs {air1}");
    assert!(rel(tr0, tr1) <= 1e-13, "tracer mass {tr0} vs {tr1}");
}

#[test]
fn the_tile_vm_matches_the_tree_walk_on_the_reduced_graph() {
    let (prog, state0, grid) = case();
    let g = expanded(&prog, true);
    let of = |mode| run(&g, &prog, &state0, &grid, &Executor::with_mode(mode));
    let (scalar, lanes) = (of(VmMode::Scalar), of(VmMode::Lanes));
    let observed = max_ulps_per_field(&savepoint(&scalar), &savepoint(&lanes));
    assert!(
        observed.iter().all(|(_, ulps)| *ulps == 0),
        "Scalar vs Lanes: {observed:?}"
    );
}
