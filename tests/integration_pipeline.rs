//! Integration: the pipeline + tuning stack on the full dycore —
//! Table III shape invariants and transfer-tuning bookkeeping.

use fv3::dyn_core::{build_dycore_program, DycoreConfig};
use fv3core::experiments::{haswell, p100, table2_row, Module};
use fv3core::pipeline::{run_pipeline, PipelineStage};

#[test]
fn table3_shape_holds_on_the_production_domain() {
    let program = build_dycore_program(192, 80, DycoreConfig::default()).sdfg;
    let report = run_pipeline(&program, &p100(), &|_| 0.0, PipelineStage::TransferTuning);
    let default_t = report.stages[0].step_time;
    let final_t = report.final_time();
    // Heuristics must be the single largest improvement (paper: 1.50x ->
    // 2.94x, i.e. nearly 2x of the remaining gap in one stage).
    let heur_gain = default_t / report.stages[1].step_time;
    for w in report.stages.windows(2).skip(1) {
        let gain = w[0].step_time / w[1].step_time;
        assert!(
            gain <= heur_gain,
            "{:?} gain {gain} exceeds heuristics gain {heur_gain}",
            w[1].stage
        );
    }
    assert!(final_t < default_t / 2.0, "overall >2x from the pipeline");
    // Transfer tuning contributes a small, positive final gain
    // (paper: 3.47%).
    let tt_gain = report.stages[6].step_time / report.stages[7].step_time;
    assert!((1.0..1.2).contains(&tt_gain), "transfer tuning gain {tt_gain}");
}

#[test]
fn fortran_model_prefers_cpu_schedules() {
    // Pricing the naive GPU-scheduled expansion on the CPU model must be
    // worse than the k-blocked CPU expansion: schedules matter per
    // target, which is the whole point of schedule-free stencils.
    use dataflow::graph::ExpansionAttrs;
    use dataflow::model::model_sdfg;
    let program = build_dycore_program(96, 40, DycoreConfig::default()).sdfg;
    let mut cpu_sched = program.clone();
    cpu_sched.expand_libraries(&ExpansionAttrs::tuned_cpu());
    let mut gpu_sched = program.clone();
    gpu_sched.expand_libraries(&ExpansionAttrs::naive());
    let good = model_sdfg(&cpu_sched, &haswell(), &|_| 0.0).total_time;
    let bad = model_sdfg(&gpu_sched, &haswell(), &|_| 0.0).total_time;
    assert!(good < bad, "cpu-tuned {good} vs naive {bad}");
}

#[test]
fn table2_full_shape() {
    // The two modules' headline trends, on the paper's domain ladder.
    let sizes = [128usize, 192, 256, 384];
    let riem: Vec<_> = sizes
        .iter()
        .map(|&n| table2_row(Module::RiemannSolverC, n, 80))
        .collect();
    let fvt: Vec<_> = sizes
        .iter()
        .map(|&n| table2_row(Module::FiniteVolumeTransport, n, 80))
        .collect();
    // Riemann: speedup large (>4x) and non-decreasing.
    for w in riem.windows(2) {
        assert!(w[0].speedup() > 4.0);
        assert!(w[1].speedup() >= w[0].speedup() * 0.98);
    }
    // FVT: speedup small at 128 (cache regime), large at 384.
    assert!(fvt[0].speedup() < 4.0, "{}", fvt[0].speedup());
    assert!(fvt[3].speedup() > fvt[0].speedup() * 2.0);
    // FORTRAN FVT scales super-linearly somewhere along the ladder.
    let worst: f64 = fvt
        .windows(2)
        .map(|w| {
            (w[1].fortran_ms / w[0].fortran_ms)
                / ((w[1].n * w[1].n) as f64 / (w[0].n * w[0].n) as f64)
        })
        .fold(0.0, f64::max);
    assert!(worst > 1.3, "cache cliff factor {worst}");
}

#[test]
fn pipeline_stages_preserve_bit_identity_end_to_end() {
    // The module doc's tier claim, enforced: every bit-exact stage cutoff
    // executes the dycore to prognostics bitwise equal to the stage
    // before it, the budgeted power stage to within its ULP budget (the
    // harness lives in crates/validate; see its README).
    use validate::reference::{seed_case, seed_config};
    let (state0, grid) = seed_case();
    let stages =
        validate::check_pipeline_bit_identity(&state0, &grid, seed_config(), &p100())
            .unwrap_or_else(|d| panic!("a pipeline stage changed the numerics: {d}"));
    assert_eq!(stages.len(), PipelineStage::ALL.len());
}
