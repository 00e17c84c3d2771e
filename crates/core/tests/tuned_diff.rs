//! Tuned-pipeline differential suite (the closed Fig. 7 loop): the
//! whole-program autotune pipeline (cross-module fusion, cutout search
//! and pattern transfer) applied at substep-compile time must be invisible
//! to the numbers — bit-identical, 0 ULPs, every prognostic field, every
//! rank, every step — on the full c8L6 cubed sphere, under both rank
//! schedules, and against the checked-in distributed golden capture.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::build_dycore_program;
use fv3core::parallel::{tune_model, CompiledSubstep, TUNE_M_OTF};
use fv3core::{DistributedDycore, RankSchedule};
use std::sync::Arc;
use validate::reference::{
    distributed_golden_path, distributed_seed_config, DIST_SEED_STEPS,
};
use validate::{compare_capture, Capture, Savepoint, Tolerances};

/// Like `validate::capture_executed_distributed`, with the driver's
/// tuning decision pinned explicitly (no process-global environment).
fn capture_tuned(
    config: fv3core::DriverConfig,
    steps: usize,
    schedule: RankSchedule,
    tuned: bool,
) -> Capture {
    let mut d = DistributedDycore::new(config, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(tuned);
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

#[test]
fn autotune_fuses_the_real_dycore_tracer_chain() {
    // The empirical core of the tentpole: on the *real* expanded substep
    // program (not a synthetic motif), the pipeline must find fusions in
    // the tracer-advection chain — the Fig. 7 bottleneck ISSUE 9 names.
    let cfg = distributed_seed_config();
    let prog = build_dycore_program(cfg.tile_n, cfg.nk, fv3::dyn_core::DycoreConfig {
        n_split: 1,
        k_split: 1,
        ..cfg.dycore
    });
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let before = g.kernel_count();
    let report = tuning::autotune(&mut g, &tune_model(), TUNE_M_OTF);
    assert_eq!(report.kernels_before, before);
    assert!(
        report.kernels_after < report.kernels_before,
        "autotune found no fusion on the real dycore: {}",
        report.summary()
    );
    assert!(
        report.modeled_after < report.modeled_before,
        "fusions must lower the modeled cost: {}",
        report.summary()
    );
    // At least one surviving kernel is a fusion product involving the
    // tracer transport chain (fused labels join parts with '+' or '*').
    let fused_tracer = g.states.iter().flat_map(|s| &s.nodes).any(|n| match n {
        dataflow::graph::DataflowNode::Kernel(k) => {
            k.name.contains("fv_tp_2d") && (k.name.contains('+') || k.name.contains('*'))
        }
        _ => false,
    });
    assert!(
        fused_tracer,
        "no fused tracer kernel after autotune: {}",
        report.summary()
    );
}

#[test]
fn tuned_run_is_bit_identical_to_untuned_on_c8l6() {
    let cfg = distributed_seed_config();
    let untuned = capture_tuned(cfg, DIST_SEED_STEPS, RankSchedule::Sequential, false);
    let tuned = capture_tuned(cfg, DIST_SEED_STEPS, RankSchedule::Sequential, true);
    assert_eq!(untuned.savepoints.len(), 6 * DIST_SEED_STEPS);
    compare_capture(&untuned, &tuned, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("tuned pipeline changed the numbers: {d}")
    });
    // And the run actually integrated (not comparing frozen states).
    let first = &untuned.savepoints[0];
    let last = &untuned.savepoints[untuned.savepoints.len() - 6];
    let (a, b) = (
        first.field("u").expect("u captured").to_array(),
        last.field("u").expect("u captured").to_array(),
    );
    assert!(a.raw().iter().zip(b.raw()).any(|(x, y)| x != y));
}

#[test]
fn tuned_parallel_replay_matches_checked_in_distributed_golden() {
    // The strongest anchor: tuning + the overlapped parallel schedule
    // together must still reproduce the golden-era numbers bit for bit.
    let golden = Capture::load(&distributed_golden_path()).expect("golden data present");
    let tuned = capture_tuned(
        distributed_seed_config(),
        DIST_SEED_STEPS,
        RankSchedule::Parallel,
        true,
    );
    compare_capture(&golden, &tuned, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("tuned parallel schedule drifted from the distributed golden: {d}")
    });
}

#[test]
fn tuned_shared_bundle_is_adopted_and_stays_warm() {
    // Serving-path contract: a tuned shared bundle is adopted by tuned
    // tenants (the StepKey carries the flag), tenant N+1 pays zero
    // compilation, and an *untuned* tenant refuses the tuned bundle.
    let cfg = distributed_seed_config();
    let bundle = Arc::new(CompiledSubstep::build_with_tune(&cfg, true));
    assert!(bundle.is_tuned());
    let report = bundle.tune_report().expect("tuned bundle carries its report");
    assert!(report.kernels_after < report.kernels_before);

    let mut warm = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    warm.set_tuned(true);
    warm.set_shared_substep(Arc::clone(&bundle));
    warm.step();
    assert!(
        warm.tune_report().is_some(),
        "tuned tenant must adopt the tuned bundle"
    );
    let (_, misses) = warm.exec_cache_counters();
    assert!(misses > 0, "first tenant compiles the tuned kernels");

    let mut tenant = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    tenant.set_tuned(true);
    tenant.set_shared_substep(Arc::clone(&bundle));
    tenant.step();
    let (hits, misses) = tenant.exec_cache_counters();
    assert!(hits > 0);
    assert_eq!(misses, 0, "tenant N+1 of a tuned bundle pays zero compilation");

    let mut untuned = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    untuned.set_tuned(false);
    untuned.set_shared_substep(Arc::clone(&bundle));
    untuned.step();
    assert!(
        untuned.tune_report().is_none(),
        "untuned tenant must not adopt a tuned bundle"
    );
}
