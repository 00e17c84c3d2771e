//! Integration: the orchestrated whole-program dycore vs the composed
//! baselines, through expansion modes and optimization passes — "all
//! performance engineering was accomplished without modifying the
//! user-code" means numerics must survive every transformation.

use dataflow::exec::{DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::*;
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::DycoreState;

fn setup(n: usize, nk: usize) -> (DycoreState, Grid) {
    let geom = comm::CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[0], n, 0, 0, n, fv3::state::HALO, nk);
    let mut s = DycoreState::zeros(n, nk);
    init_baroclinic(&mut s, &grid, &BaroclinicConfig::default());
    (s, grid)
}

fn run_program(
    state0: &DycoreState,
    grid: &Grid,
    prog: &DycoreProgram,
    g: &dataflow::Sdfg,
) -> DycoreState {
    let mut store = DataStore::for_sdfg(g);
    load_state(&mut store, &prog.ids, state0, grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    Executor::serial().run(g, &mut store, &prog.params, &mut hooks);
    let mut out = state0.clone();
    extract_state(&store, &prog.ids, &mut out);
    out
}

#[test]
fn optimization_pipeline_preserves_numerics_exactly() {
    // Run the program at every pipeline stage and compare prognostics.
    use fv3core::pipeline::{run_pipeline, PipelineStage};
    let (n, nk) = (8, 5);
    let (state0, grid) = setup(n, nk);
    let config = DycoreConfig {
        n_split: 2,
        k_split: 1,
        dt: 4.0,
        dddmp: 0.03,
        nord4_damp: None,
    };
    let prog = build_dycore_program(n, nk, config);
    let model = fv3core::experiments::p100();

    let mut reference: Option<DycoreState> = None;
    for stage in [
        PipelineStage::Default,
        PipelineStage::ScheduleHeuristics,
        PipelineStage::LocalCaching,
        PipelineStage::PowerOperator,
        PipelineStage::SplitRegions,
        PipelineStage::Cleanup,
        PipelineStage::TransferTuning,
    ] {
        let report = run_pipeline(&prog.sdfg, &model, &|_| 0.0, stage);
        let result = run_program(&state0, &grid, &prog, &report.optimized);
        assert!(!result.has_nonfinite(), "{stage:?} produced non-finite");
        match &reference {
            None => reference = Some(result),
            Some(r) => {
                let diff = r.max_abs_diff(&result);
                assert!(
                    diff < 1e-9,
                    "{stage:?} changed numerics by {diff}"
                );
            }
        }
    }
}

#[test]
fn baseline_and_orchestrated_agree_over_multiple_steps() {
    let (n, nk) = (8, 5);
    let (state0, grid) = setup(n, nk);
    let config = DycoreConfig {
        n_split: 1,
        k_split: 1,
        dt: 3.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    // Three sequential program executions == three baseline steps.
    let prog = build_dycore_program(n, nk, config);
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());

    let mut dsl_state = state0.clone();
    for _ in 0..3 {
        dsl_state = run_program(&dsl_state, &grid, &prog, &g);
    }
    let mut base = state0.clone();
    let mut scratch = BaselineScratch::for_state(&base);
    for _ in 0..3 {
        baseline_step(&mut base, &grid, &mut scratch, &config, &mut |_| {});
    }
    let diff = base.max_abs_diff(&dsl_state);
    assert!(diff < 1e-8, "3-step divergence {diff}");
}

#[test]
fn dead_code_elimination_never_breaks_the_dycore() {
    let (n, nk) = (8, 4);
    let (state0, grid) = setup(n, nk);
    let prog = build_dycore_program(n, nk, DycoreConfig::default());
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let before = run_program(&state0, &grid, &prog, &g);
    dataflow::passes::eliminate_dead_writes(&mut g);
    dataflow::passes::eliminate_redundant_copies(&mut g);
    let after = run_program(&state0, &grid, &prog, &g);
    assert_eq!(before.max_abs_diff(&after), 0.0);
}
