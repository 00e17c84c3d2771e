//! A count, not a clock: how many whole graphs a tuned build mints. Every
//! `Sdfg::new` / `clone` draws the next value of one process-wide uid
//! counter, so the difference between two probe graphs' uids is the number
//! of graphs created in between. This binary holds exactly one `#[test]`
//! so that nothing else draws from the counter.

use dataflow::graph::{ExpansionAttrs, Sdfg};
use fv3::dyn_core::{build_dycore_program, DycoreConfig};
use fv3core::experiments::p100;
use fv3core::parallel::{tune_model, TUNE_M_OTF};
use fv3core::pipeline::{run_pipeline, PipelineStage};

fn probe() -> u64 {
    Sdfg::new("probe").uid()
}

#[test]
fn candidates_are_planned_not_cloned() {
    let program = build_dycore_program(24, 8, DycoreConfig::default());
    let mut g = program.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let boundaries = g.states.len() as u64 - 1;
    assert_eq!(boundaries, 6);

    let before = probe();
    let report = tuning::autotune(&mut g, &tune_model(), TUNE_M_OTF);
    let after_autotune = probe();
    let pipeline = run_pipeline(
        &program.sdfg,
        &p100(),
        &|_| 0.0,
        PipelineStage::TransferTuning,
    );
    let after_pipeline = probe();

    // The search did not shrink: same candidates, same outcome.
    assert_eq!(report.search.configurations, 698);
    assert_eq!(report.kernels_after, 13);
    assert_eq!(pipeline.stages.len(), 8);

    // Each probe is itself one draw. Autotune may clone once per state
    // boundary it tries to fuse across (701 when every candidate was a
    // clone); the pipeline clones the program for its two expansions and
    // nothing else (63).
    let autotune_graphs = after_autotune - before - 1;
    let pipeline_graphs = after_pipeline - after_autotune - 1;
    assert!(
        autotune_graphs <= boundaries,
        "autotune minted {autotune_graphs} graphs"
    );
    assert!(
        pipeline_graphs <= 2,
        "run_pipeline minted {pipeline_graphs} graphs"
    );
}
