//! Pipeline tier enforcement.
//!
//! The paper's claim — "all performance engineering was accomplished
//! without modifying the user-code" — is only honest if the optimization
//! stages leave the numbers alone, or say by how much they may not. This
//! harness makes that a checked property: it runs the orchestrated dycore
//! through every [`PipelineStage`] cutoff, *executes* each stage's
//! optimized graph on the same initial state, and holds the extracted
//! prognostics to the stage's declared tier ([`PipelineStage::tier`], read
//! from `dataflow::transforms::tier`) against the stage before it:
//! bit-identical for a bit-exact stage, within the ULP budget for the
//! budgeted one (the power operator) — so the stages after that one are
//! bit-identical to *it*, not to the unoptimized program. The first
//! diverging field and index are reported otherwise.

use crate::compare::{
    compare_savepoint, max_ulps_per_field, Divergence, Tolerance, Tolerances,
};
use crate::savepoint::{Capture, Savepoint};
use dataflow::exec::{validate_sdfg, DataStore, Executor, VmMode};
use dataflow::graph::ExpansionAttrs;
use dataflow::model::CostModel;
use fv3::dyn_core::{build_dycore_program, extract_state, load_state, DycoreConfig};
use fv3::grid::Grid;
use fv3::profiling::RemapHooks;
use fv3::state::DycoreState;
use fv3core::pipeline::{run_pipeline, PipelineStage};

/// Run the dycore program optimized *through* `stage` on `state0`,
/// returning the resulting prognostic state.
pub fn run_stage_on(
    state0: &DycoreState,
    grid: &Grid,
    config: DycoreConfig,
    model: &CostModel,
    stage: PipelineStage,
) -> DycoreState {
    let prog = build_dycore_program(state0.n, state0.nk, config);
    let report = run_pipeline(&prog.sdfg, model, &|_| 0.0, stage);
    let g = report.optimized;
    validate_sdfg(&g).unwrap_or_else(|e| panic!("stage {stage:?} graph invalid: {e}"));
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, state0, grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    Executor::serial().run(&g, &mut store, &prog.params, &mut hooks);
    let mut out = state0.clone();
    extract_state(&store, &prog.ids, &mut out);
    out
}

/// Run the tuned-expansion dycore on the seed-style case `(state0, grid)`
/// for `steps` timesteps under the given VM `mode`, savepointing the
/// prognostic state after every step. The per-step labels (`t{N}.state`)
/// line up between runs, so [`crate::compare_capture`] of a Scalar and a
/// Lanes capture yields a first-divergence report naming the exact step,
/// field, and index where the vectorized path first departed from the
/// scalar reference. (ISSUE 4 golden replay guard.)
pub fn capture_executed(
    state0: &DycoreState,
    grid: &Grid,
    config: DycoreConfig,
    steps: usize,
    mode: VmMode,
) -> Capture {
    let prog = build_dycore_program(state0.n, state0.nk, config);
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    validate_sdfg(&g).unwrap_or_else(|e| panic!("tuned graph invalid: {e}"));
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, state0, grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    let exec = Executor::with_mode(mode);
    let mut state = state0.clone();
    let mut capture = Capture::default();
    for step in 0..steps {
        exec.run(&g, &mut store, &prog.params, &mut hooks);
        extract_state(&store, &prog.ids, &mut state);
        capture
            .savepoints
            .push(Savepoint::capture(&format!("t{step}.state"), &state.fields()));
    }
    capture
}

/// Run the *distributed* dycore (all 6 cube tiles, real halo exchanges)
/// for `steps` timesteps under the given rank `schedule`, savepointing
/// every rank's prognostic state after every step as `t{N}.r{R}.state`.
/// The labels line up between runs, so [`crate::compare_capture`] of a
/// [`RankSchedule::Sequential`](fv3core::RankSchedule) and a
/// [`RankSchedule::Parallel`](fv3core::RankSchedule) capture yields a
/// first-divergence report naming the exact step, rank, field, and index
/// where the threaded schedule departed from the lock-step reference.
/// (ISSUE 6 schedule-equivalence guard.)
pub fn capture_executed_distributed(
    config: fv3core::DriverConfig,
    steps: usize,
    schedule: fv3core::RankSchedule,
) -> Capture {
    let mut d = fv3core::DistributedDycore::new(config, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    let mut capture = Capture::default();
    for step in 0..steps {
        d.step();
        for (r, state) in d.states.iter().enumerate() {
            capture.savepoints.push(Savepoint::capture(
                &format!("t{step}.r{r}.state"),
                &state.fields(),
            ));
        }
    }
    capture
}

/// Snapshot a state's prognostics under the stage's Table III label.
fn stage_savepoint(stage: PipelineStage, state: &DycoreState) -> Savepoint {
    Savepoint::capture(stage.label(), &state.fields())
}

/// One executed Table III stage: the state it produced and how far that
/// sits from the previous stage's.
pub struct StageOutcome {
    pub stage: PipelineStage,
    pub state: DycoreState,
    /// Largest ULP distance to the previous stage over every prognostic
    /// (0 for the first stage): 0 for a bit-exact stage, at most
    /// `stage.tier().max_ulps()` for a budgeted one.
    pub ulps_from_previous: u64,
}

/// Execute every pipeline stage on `state0` and hold each output to the
/// stage's tier against the stage before it. Returns the per-stage
/// outcomes on success; on failure, the [`Divergence`] names the first
/// stage (as the savepoint label), field, and worst index that left its
/// tier.
pub fn check_pipeline_bit_identity(
    state0: &DycoreState,
    grid: &Grid,
    config: DycoreConfig,
    model: &CostModel,
) -> Result<Vec<StageOutcome>, Divergence> {
    let mut out = Vec::with_capacity(PipelineStage::ALL.len());
    let mut reference: Option<Savepoint> = None;
    for stage in PipelineStage::ALL {
        let state = run_stage_on(state0, grid, config, model, stage);
        let sp = stage_savepoint(stage, &state);
        let mut ulps_from_previous = 0;
        if let Some(mut prev) = reference {
            // Compare against the previous stage under this stage's
            // label, so the report names the stage that diverged.
            prev.label = sp.label.clone();
            let tol = Tolerance::ulps(stage.tier().max_ulps());
            compare_savepoint(&prev, &sp, &Tolerances::all(tol))?;
            let per_field = max_ulps_per_field(&prev, &sp);
            ulps_from_previous = per_field.iter().map(|(_, u)| *u).max().unwrap_or(0);
        }
        reference = Some(sp);
        out.push(StageOutcome {
            stage,
            state,
            ulps_from_previous,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{seed_case, seed_config};
    use machine::{GpuModel, GpuSpec};

    fn model() -> CostModel {
        CostModel::Gpu(GpuModel::new(GpuSpec::p100()))
    }

    #[test]
    fn all_8_stages_keep_their_tier_on_the_baroclinic_wave() {
        let (state0, grid) = seed_case();
        let stages = check_pipeline_bit_identity(&state0, &grid, seed_config(), &model())
            .unwrap_or_else(|d| panic!("a pipeline stage left its tier: {d}"));
        assert_eq!(stages.len(), 8);
        for s in &stages {
            // The run actually integrated: outputs differ from the input.
            assert!(
                s.state.max_abs_diff(&state0) > 0.0,
                "{:?} produced the initial state",
                s.stage
            );
            assert!(s.ulps_from_previous <= s.stage.tier().max_ulps(), "{:?}", s.stage);
        }
        let power = &stages[3];
        assert_eq!(power.stage, PipelineStage::PowerOperator);
        println!(
            "power operator: {} ULP from local caching (budget {})",
            power.ulps_from_previous,
            power.stage.tier().max_ulps()
        );
    }

    #[test]
    fn stage_execution_matches_the_baseline_reference() {
        // The Default stage is the naive expansion of the same program
        // the baseline step mirrors; they must agree to tight tolerance
        // (baseline loop nests differ from kernel iteration order, so
        // bitwise equality is not required here — that is what the
        // stage-over-stage check above enforces).
        use fv3::dyn_core::{baseline_step, BaselineScratch};
        let (state0, grid) = seed_case();
        let config = seed_config();
        let mut sb = state0.clone();
        let mut scratch = BaselineScratch::for_state(&sb);
        baseline_step(&mut sb, &grid, &mut scratch, &config, &mut |_| {});
        let sd = run_stage_on(&state0, &grid, config, &model(), PipelineStage::Default);
        let diff = sb.max_abs_diff(&sd);
        assert!(diff < 1e-9, "default stage vs baseline: {diff}");
    }
}
