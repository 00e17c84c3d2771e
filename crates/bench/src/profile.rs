//! Instrumented dycore profiling: one call runs the baroclinic case for
//! N timesteps under the flight recorder and returns everything the
//! bench binaries emit — a unified chrome trace (run → step → module →
//! kernel spans on one timeline), a metrics JSONL stream, a health
//! JSONL stream, and the `BENCH_dycore.json` summary (schema v2).
//!
//! The trace is unified by construction: the executor records its
//! kernel/copy/halo/callback spans into the same [`Tracer`] that holds
//! the open `run` and `timestep{N}` spans (one clock, one thread stack),
//! and after each step the [`module_spans`] grouping of that step's
//! events is appended beside them.

use comm::CubeGeometry;
use dataflow::exec::{DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use dataflow::profile::ProfileReport;
use dataflow::DataId;
use fv3::dyn_core::{build_dycore_program, extract_state, load_state, DycoreConfig};
use fv3::grid::Grid;
use fv3::health::HealthMonitor;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::{module_spans, rollup_modules, ModuleRollup, RemapHooks};
use fv3::state::DycoreState;
use fv3core::checkpoint::{step_path, Checkpoint};
use fv3core::DriverConfig;
use obs::json;
use obs::{MetricsRegistry, Tracer};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Everything one instrumented profiling run produced.
pub struct ProfileRun {
    /// Case label, e.g. `"c8L6_baroclinic"`.
    pub case_name: String,
    /// Timesteps executed.
    pub steps: usize,
    /// Cumulative kernel-profiler report over all steps.
    pub report: ProfileReport,
    /// Per-module rollup of `report`.
    pub rollup: Vec<ModuleRollup>,
    /// Unified trace: run/step/kernel spans plus derived module spans.
    pub tracer: Tracer,
    /// Kernel/store metrics sampled per step.
    pub metrics: MetricsRegistry,
    /// One health sample per timestep.
    pub monitor: HealthMonitor,
    /// Cumulative metrics snapshot emitted after every step.
    pub metrics_jsonl: String,
    /// Compiled-kernel cache hits over all steps.
    pub cache_hits: u64,
    /// Compiled-kernel cache misses (compilations) over all steps.
    pub cache_misses: u64,
    /// Compilations performed after the first step — nonzero means the
    /// cache is not reaching steady state.
    pub steady_state_misses: u64,
    /// `FV3CKPT1` checkpoints written (one per step when a checkpoint
    /// directory is configured, else 0).
    pub checkpoint_writes: u64,
    /// Bytes written across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Wall time spent capturing + atomically writing checkpoints.
    pub checkpoint_write_seconds: f64,
    /// Wall time of one verified restore (load + checksum + rebuild) of
    /// the final checkpoint, 0.0 when checkpointing is off.
    pub checkpoint_restore_seconds: f64,
    /// What the whole-program autotune pipeline did to the profiled
    /// graph (`None` for an untuned run).
    pub tune: Option<tuning::AutotuneReport>,
}

/// Run the baroclinic `c{n}L{nk}` case for `steps` timesteps under the
/// flight recorder (tuned expansion, serial host executor).
///
/// With a `checkpoint_dir`, one `FV3CKPT1` checkpoint of the profiled
/// state is written per step, and the final one is restored and verified,
/// so the summary carries the real write/restore cost the resilience
/// layer adds. When `tuned`, the expanded dycore graph is run through the
/// vetted autotune pipeline before the first step — exactly what the
/// serving path's `CompiledSubstep::build` does under `FV3_TUNE=1` — and
/// the report lands in [`ProfileRun::tune`] so [`tuned_ablation`] can
/// render the Table III analogue.
///
/// Reads no environment and installs nothing process-global: the tracer,
/// metrics registry, and health monitor are owned by the returned
/// [`ProfileRun`], so this is safe to call from parallel tests.
pub fn profile_case(
    n: usize,
    nk: usize,
    steps: usize,
    config: DycoreConfig,
    checkpoint_dir: Option<&Path>,
    tuned: bool,
) -> ProfileRun {
    let case = prepare_case(n, nk, config, tuned);
    profile_prepared(&case, steps, checkpoint_dir)
}

/// A profiled case prepared once: program built, graph expanded, and
/// (when `tuned`) run through the vetted whole-program autotune. Reps
/// that reuse a `PreparedCase` pay no build or tuning cost, which keeps
/// interleaved A/B arms symmetric — the tuned arm would otherwise start
/// every rep hot on the heels of the veto's measurement load — and makes
/// every rep execute the *same* committed fusion set.
pub struct PreparedCase {
    pub n: usize,
    pub nk: usize,
    pub config: DycoreConfig,
    prog: fv3::dyn_core::DycoreProgram,
    g: dataflow::Sdfg,
    /// What the autotune pipeline did (`None` for an untuned case).
    pub tune: Option<tuning::AutotuneReport>,
}

/// Build (and optionally tune) a case without running it.
pub fn prepare_case(n: usize, nk: usize, config: DycoreConfig, tuned: bool) -> PreparedCase {
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, fv3::state::HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let prog = build_dycore_program(n, nk, config);
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let tune = tuned.then(|| {
        // Seed the measured veto with the initialized state: candidate
        // fusions are priced on the data the run will actually execute
        // (the synthetic fill underprices OTF recompute on real
        // atmospheric magnitudes). The tuner never adds or removes
        // containers, so the seed store matches the tuned graph too.
        let mut seed = DataStore::for_sdfg(&g);
        load_state(&mut seed, &prog.ids, &state, &grid);
        let mut scorer = tuning::MeasuredScorer::with_seed(
            fv3core::parallel::TUNE_VET_REPEATS,
            prog.params.clone(),
            seed,
        );
        tuning::autotune_vetted_scored(
            &mut g,
            &fv3core::parallel::tune_model(),
            fv3core::parallel::TUNE_M_OTF,
            &mut scorer,
            fv3core::parallel::TUNE_VET_MARGIN,
        )
    });
    PreparedCase {
        n,
        nk,
        config,
        prog,
        g,
        tune,
    }
}

/// Run a [`PreparedCase`] for `steps` timesteps under the flight
/// recorder. The state is re-initialized from the baroclinic analytic
/// profile on every call, so repeated runs are independent reps.
pub fn profile_prepared(
    case: &PreparedCase,
    steps: usize,
    checkpoint_dir: Option<&Path>,
) -> ProfileRun {
    let (n, nk, config) = (case.n, case.nk, case.config);
    let case_name = format!("c{n}L{nk}_baroclinic");
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, fv3::state::HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let prog = &case.prog;
    let g = &case.g;
    let tune = case.tune.clone();
    let mut store = DataStore::for_sdfg(g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &prog.ids };

    let tracer = Tracer::new();
    let metrics = MetricsRegistry::new();
    let mut monitor = HealthMonitor::new().with_tracer(&tracer);

    let run_span = tracer.span("run", &case_name);
    let store_bytes: usize = (0..store.len()).map(|i| store.get(DataId(i)).layout().len * 8).sum();
    metrics.gauge_high_water("store_bytes", &[], store_bytes as f64);

    let mut metrics_jsonl = String::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut steady_state_misses = 0u64;
    let mut checkpoint_writes = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut checkpoint_write_seconds = 0.0f64;
    // The profiled case is one rank covering its own tile (rt = 1 in
    // checkpoint terms); the restorer-side rank check is skipped here
    // because the restore below targets the same single state.
    let ck_config = DriverConfig {
        tile_n: n,
        rt: 1,
        nk,
        dycore: config,
    };
    // One executor for the whole run: its compiled-kernel cache makes
    // every step after the first (and every acoustic sub-loop trip within
    // a step) execute with zero compilation.
    let exec = Executor::serial();
    for step in 0..steps {
        let step_span = tracer.span("step", &format!("timestep{step}"));
        let ev_before = tracer.len();
        let t0 = tracer.now_us();
        let exec_report = exec.run_profiled(g, &mut store, &prog.params, &mut hooks, &tracer);
        let dur_s = (tracer.now_us() - t0) / 1e6;

        // Per-step kernel metrics from this step's slice of the event
        // stream (everything the executor closed since the step span
        // opened), then a cumulative snapshot line per series.
        let slice = tracer.finished().split_off(ev_before);
        let mut launches = 0u64;
        let mut points = 0u64;
        let mut bytes = 0u64;
        for e in slice.iter().filter(|e| e.cat == "kernel") {
            launches += 1;
            points += e.points;
            bytes += e.bytes;
        }
        metrics.counter_add("kernel_launches", &[], launches);
        metrics.counter_add("kernel_points", &[], points);
        metrics.counter_add("kernel_bytes", &[], bytes);
        // Execution-engine counters: cache effectiveness, points per VM,
        // and the tile VM's dispatches with the lanes they covered.
        metrics.counter_add("kernel_cache_hits", &[], exec_report.cache_hits);
        metrics.counter_add("kernel_cache_misses", &[], exec_report.cache_misses);
        metrics.counter_add("vm_lanes_vector", &[], exec_report.lanes_vector);
        metrics.counter_add("vm_lanes_scalar", &[], exec_report.lanes_scalar);
        metrics.counter_add("vm_dispatches", &[], exec_report.vm_dispatches);
        metrics.counter_add("vm_lane_ops", &[], exec_report.vm_lane_ops);
        metrics.observe("step_seconds", &[], dur_s);
        cache_hits += exec_report.cache_hits;
        cache_misses += exec_report.cache_misses;
        if step > 0 {
            steady_state_misses += exec_report.cache_misses;
        }

        extract_state(&store, &prog.ids, &mut state);
        if let Some(dir) = checkpoint_dir {
            let t = Instant::now();
            let ck = Checkpoint {
                step: step as u64 + 1,
                config: ck_config,
                states: vec![state.clone()],
                basis: None,
            };
            let bytes = ck
                .write_atomic(&step_path(dir, ck.step))
                .expect("checkpoint write");
            checkpoint_write_seconds += t.elapsed().as_secs_f64();
            checkpoint_writes += 1;
            checkpoint_bytes += bytes;
            metrics.counter_add("checkpoint_writes", &[], 1);
            metrics.counter_add("checkpoint_bytes", &[], bytes);
        }
        monitor.sample(&fv3::health::health_input(&state, &grid, step as u64, config.dt));
        metrics_jsonl.push_str(&obs::emit_jsonl(&metrics, step as u64));

        // Grouped per step so module spans never straddle a step span.
        tracer.absorb_events(module_spans(&slice));
        drop(step_span);
    }
    drop(run_span);

    // One verified restore of the newest checkpoint: the recovery-path
    // cost (read + checksum verify + array rebuild), checked bit-exact
    // against the live state it mirrors.
    let mut checkpoint_restore_seconds = 0.0f64;
    if let Some(dir) = checkpoint_dir {
        if steps > 0 {
            let t = Instant::now();
            let back =
                Checkpoint::load(&step_path(dir, steps as u64)).expect("checkpoint restore");
            checkpoint_restore_seconds = t.elapsed().as_secs_f64();
            assert_eq!(back.states.len(), 1);
            for ((name, live), (_, restored)) in
                state.fields().iter().zip(back.states[0].fields().iter())
            {
                for (x, y) in live
                    .export_logical()
                    .iter()
                    .zip(&restored.export_logical())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "restore drift in {name}");
                }
            }
        }
    }

    let report = ProfileReport::from_events(&tracer.finished());
    let rollup = rollup_modules(&report);
    ProfileRun {
        case_name,
        steps,
        report,
        rollup,
        tracer,
        metrics,
        monitor,
        metrics_jsonl,
        cache_hits,
        cache_misses,
        steady_state_misses,
        checkpoint_writes,
        checkpoint_bytes,
        checkpoint_write_seconds,
        checkpoint_restore_seconds,
        tune,
    }
}

/// The tuned-vs-baseline ablation (ISSUE 9's Table III analogue): the
/// measured effect of the whole-program autotune pipeline on the same
/// case. `None` unless `tuned` actually carries an autotune report.
pub struct TunedAblation {
    /// Case the ablation was measured on (may differ from the main
    /// profiled case — fusion pays in memory traffic, so it is measured
    /// at a resolution whose working set exceeds the cache).
    pub case: String,
    /// Total kernel wall seconds of the untuned / tuned run.
    pub baseline_kernel_seconds: f64,
    pub tuned_kernel_seconds: f64,
    /// Wall seconds of the tracer module (the Fig. 7 bottleneck the
    /// cross-module fusions target) in each run.
    pub baseline_tracer_seconds: f64,
    pub tuned_tracer_seconds: f64,
    /// Static kernel count before/after the pipeline.
    pub kernels_before: usize,
    pub kernels_after: usize,
    /// Fusions applied across state (module) boundaries.
    pub cross_module_fusions: usize,
    /// Fusions landed by cutout search + pattern transfer.
    pub transferred: usize,
    /// Modeled speedup the cost model predicted.
    pub modeled_speedup: f64,
    /// One-line autotune provenance.
    pub summary: String,
}

impl TunedAblation {
    /// Measured whole-run kernel speedup (>= 1 when tuning helped).
    pub fn measured_speedup(&self) -> f64 {
        if self.tuned_kernel_seconds > 0.0 {
            self.baseline_kernel_seconds / self.tuned_kernel_seconds
        } else {
            1.0
        }
    }
}

fn tracer_seconds(run: &ProfileRun) -> f64 {
    run.rollup
        .iter()
        .find(|m| m.module == "tracer")
        .map_or(0.0, |m| m.wall_seconds)
}

/// Build the ablation from an untuned `baseline` run and a `tuned` run
/// of the same case. Returns `None` when `tuned` was not actually run
/// through the autotune pipeline.
pub fn tuned_ablation(baseline: &ProfileRun, tuned: &ProfileRun) -> Option<TunedAblation> {
    let report = tuned.tune.as_ref()?;
    Some(TunedAblation {
        case: tuned.case_name.clone(),
        baseline_kernel_seconds: baseline.report.kernel_seconds,
        tuned_kernel_seconds: tuned.report.kernel_seconds,
        baseline_tracer_seconds: tracer_seconds(baseline),
        tuned_tracer_seconds: tracer_seconds(tuned),
        kernels_before: report.kernels_before,
        kernels_after: report.kernels_after,
        cross_module_fusions: report.cross_module.len(),
        transferred: report.transfer.applied.len(),
        modeled_speedup: report.modeled_speedup(),
        summary: report.summary(),
    })
}

/// Render the `BENCH_dycore.json` summary (schema v2) for a run.
///
/// `attainable` is the roofline denominator in bytes/s; `stream_gib`
/// the measured STREAM copy bandwidth it came from. The three optional
/// studies embed as follows — only `modules` rows enter the >15%
/// per-module regression gate:
///
/// * `scaling` (weak-scaling overlap study): a top-level `weak_scaling`
///   array (one object per resolution point) and, when the study includes
///   the c48 point, `overlap_efficiency_c48` / `halo_wait_seconds_c48`
///   scalars; outside the gate.
/// * `serve` (forecast-service load study): a top-level `serve` object
///   (sustained requests/second, p50/p99/max submit-to-finish latency,
///   steady-state compile count); outside the gate — the serve-soak CI
///   job owns its regression story.
/// * `tuned` (tuned-vs-baseline ablation): lands twice — as a top-level
///   `tuned` object (full provenance, outside the gate) and as a
///   `tuned_kernels` pseudo-module row whose `wall_seconds` is the tuned
///   run's kernel total, *inside* the gate, so a tuning regression across
///   BENCH revisions fails CI exactly like a kernel regression would.
pub fn bench_json(
    run: &ProfileRun,
    attainable: f64,
    stream_gib: f64,
    scaling: &[crate::weak_scaling::OverlapPoint],
    serve: Option<&crate::serve_load::ServeLoadReport>,
    tuned: Option<&TunedAblation>,
) -> String {
    let report = &run.report;
    // Compute ceiling for the dual-ceiling roofline: the modeled host's
    // peak FP64 throughput (Table I), matching the cost model the tuner
    // ranks with.
    let attainable_flops = machine::CpuSpec::haswell_e5_2690v3().peak_flops;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {},", obs::BENCH_SCHEMA_VERSION);
    let _ = writeln!(out, "  \"case\": {},", json::string(&run.case_name));
    let _ = writeln!(out, "  \"executor\": \"serial_host\",");
    let _ = writeln!(out, "  \"steps\": {},", run.steps);
    let _ = writeln!(out, "  \"health_violations\": {},", run.monitor.total_violations());
    let _ = writeln!(out, "  \"stream_copy_gib_per_s\": {stream_gib},");
    let _ = writeln!(out, "  \"attainable_bandwidth_bytes_per_s\": {attainable},");
    let _ = writeln!(out, "  \"attainable_flops_per_s\": {attainable_flops},");
    let _ = writeln!(out, "  \"launches\": {},", report.launches);
    let _ = writeln!(out, "  \"kernel_seconds\": {},", report.kernel_seconds);
    let _ = writeln!(out, "  \"copy_seconds\": {},", report.copy_seconds);
    let _ = writeln!(out, "  \"halo_seconds\": {},", report.halo_seconds);
    let _ = writeln!(out, "  \"callback_seconds\": {},", report.callback_seconds);
    let _ = writeln!(out, "  \"checkpoint_writes\": {},", run.checkpoint_writes);
    let _ = writeln!(out, "  \"checkpoint_bytes\": {},", run.checkpoint_bytes);
    let _ = writeln!(
        out,
        "  \"checkpoint_write_seconds\": {},",
        run.checkpoint_write_seconds
    );
    let _ = writeln!(
        out,
        "  \"checkpoint_restore_seconds\": {},",
        run.checkpoint_restore_seconds
    );
    let _ = writeln!(
        out,
        "  \"roofline_fraction\": {},",
        report.roofline_fraction(attainable)
    );
    if !scaling.is_empty() {
        let _ = writeln!(
            out,
            "  \"weak_scaling\": {},",
            crate::weak_scaling::study_json(scaling)
        );
        if let Some(p) = scaling.iter().find(|p| p.tile_n == 48) {
            let _ = writeln!(out, "  \"overlap_efficiency_c48\": {},", p.overlap_efficiency);
            let _ = writeln!(out, "  \"halo_wait_seconds_c48\": {},", p.halo_wait_seconds);
        }
    }
    if let Some(s) = serve {
        let _ = writeln!(out, "  \"serve\": {},", s.to_json());
    }
    if let Some(t) = tuned {
        let _ = writeln!(
            out,
            "  \"tuned\": {{\"case\": {}, \"kernel_seconds\": {}, \
             \"baseline_kernel_seconds\": {}, \
             \"tracer_seconds\": {}, \"baseline_tracer_seconds\": {}, \
             \"kernels_before\": {}, \"kernels_after\": {}, \
             \"cross_module_fusions\": {}, \"transferred\": {}, \
             \"modeled_speedup\": {}, \"measured_speedup\": {}, \"summary\": {}}},",
            json::string(&t.case),
            t.tuned_kernel_seconds,
            t.baseline_kernel_seconds,
            t.tuned_tracer_seconds,
            t.baseline_tracer_seconds,
            t.kernels_before,
            t.kernels_after,
            t.cross_module_fusions,
            t.transferred,
            t.modeled_speedup,
            t.measured_speedup(),
            json::string(&t.summary)
        );
    }
    let _ = writeln!(out, "  \"modules\": [");
    let mut rows: Vec<String> = run
        .rollup
        .iter()
        .map(|m| {
            format!(
                "    {{\"module\": {}, \"kernels\": {}, \"invocations\": {}, \"points\": {}, \
                 \"wall_seconds\": {}, \"modeled_bytes\": {}, \"modeled_flops\": {}, \
                 \"bytes_per_s\": {}}}",
                json::string(&m.module),
                m.kernels,
                m.invocations,
                m.points,
                m.wall_seconds,
                m.modeled_bytes,
                m.modeled_flops,
                m.achieved_bandwidth()
            )
        })
        .collect();
    // The tuned run's kernel total rides through the same gate as the
    // module rows (cf. the checkpoint pseudo-rows below): present only
    // when the ablation ran, so tuning-off diffs stay clean.
    if let Some(t) = tuned {
        rows.push(format!(
            "    {{\"module\": \"tuned_kernels\", \"kernels\": {}, \"invocations\": 0, \
             \"points\": 0, \"wall_seconds\": {}, \"modeled_bytes\": 0, \
             \"modeled_flops\": 0, \"bytes_per_s\": 0}}",
            t.kernels_after, t.tuned_kernel_seconds
        ));
    }
    // Resilience overhead rides through the same per-module regression
    // gate as kernel times: pseudo-module rows, present only when
    // checkpointing was on (so checkpoint-off diffs stay clean).
    if run.checkpoint_writes > 0 {
        let bw = |secs: f64, bytes: u64| {
            if secs > 0.0 {
                bytes as f64 / secs
            } else {
                0.0
            }
        };
        rows.push(format!(
            "    {{\"module\": \"checkpoint_write\", \"kernels\": 0, \"invocations\": {}, \
             \"points\": 0, \"wall_seconds\": {}, \"modeled_bytes\": {}, \"bytes_per_s\": {}}}",
            run.checkpoint_writes,
            run.checkpoint_write_seconds,
            run.checkpoint_bytes,
            bw(run.checkpoint_write_seconds, run.checkpoint_bytes)
        ));
        let per_ck = run.checkpoint_bytes / run.checkpoint_writes;
        rows.push(format!(
            "    {{\"module\": \"checkpoint_restore\", \"kernels\": 0, \"invocations\": 1, \
             \"points\": 0, \"wall_seconds\": {}, \"modeled_bytes\": {}, \"bytes_per_s\": {}}}",
            run.checkpoint_restore_seconds,
            per_ck,
            bw(run.checkpoint_restore_seconds, per_ck)
        ));
    }
    let _ = writeln!(out, "{}", rows.join(",\n"));
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"kernels\": [");
    let ranked = report.ranked();
    for (i, k) in ranked.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"invocations\": {}, \"points\": {}, \"wall_seconds\": {}, \
             \"modeled_bytes\": {}, \"modeled_flops\": {}, \"bytes_per_s\": {}, \
             \"roofline_fraction\": {}, \"compute_bound\": {}}}{}",
            json::string(&k.name),
            k.invocations,
            k.points,
            k.wall_seconds,
            k.modeled_bytes,
            k.modeled_flops,
            k.achieved_bandwidth(),
            k.roofline_fraction_dual(attainable, attainable_flops),
            k.compute_bound(attainable, attainable_flops),
            if i + 1 < ranked.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DycoreConfig {
        DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 5.0,
            dddmp: 0.02,
            nord4_damp: None,
        }
    }

    #[test]
    fn bench_json_carries_schema_v2_and_diffs_clean_against_itself() {
        let run = profile_case(8, 4, 2, small_config(), None, false);
        let json = bench_json(&run, 1e9, 1.0, &[], None, None);
        assert_eq!(obs::regression::schema_version(&json), Ok(2));
        let report =
            obs::compare_runs(&json, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(json.contains("\"steps\": 2"));
        assert!(json.contains("\"health_violations\": 0"));
    }

    #[test]
    fn kernel_cache_reaches_steady_state_after_first_step() {
        let run = profile_case(8, 4, 3, small_config(), None, false);
        assert!(run.cache_misses > 0, "first step must compile kernels");
        assert!(run.cache_hits > 0, "later steps must hit the cache");
        assert_eq!(run.steady_state_misses, 0, "no recompiles after step 0");
        assert!(run.metrics.counter_value("kernel_cache_hits", &[]) > 0);
        assert!(run.metrics.counter_value("vm_lanes_vector", &[]) > 0);
    }

    #[test]
    fn checkpointed_profile_records_write_and_restore_cost() {
        let dir = std::env::temp_dir().join(format!("fv3_bench_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let run = profile_case(8, 4, 2, small_config(), Some(&dir), false);
        assert_eq!(run.checkpoint_writes, 2);
        assert!(run.checkpoint_bytes > 0);
        assert!(run.checkpoint_write_seconds > 0.0);
        assert!(run.checkpoint_restore_seconds > 0.0);
        assert_eq!(run.metrics.counter_value("checkpoint_writes", &[]), 2);
        let json = bench_json(&run, 1e9, 1.0, &[], None, None);
        assert!(json.contains("\"module\": \"checkpoint_write\""));
        assert!(json.contains("\"module\": \"checkpoint_restore\""));
        assert!(json.contains("\"checkpoint_writes\": 2"));
        // The pseudo-module rows flow through the regression gate like
        // any kernel module.
        let report =
            obs::compare_runs(&json, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncheckpointed_profile_emits_no_checkpoint_rows() {
        let run = profile_case(8, 4, 1, small_config(), None, false);
        assert_eq!(run.checkpoint_writes, 0);
        assert_eq!(run.checkpoint_restore_seconds, 0.0);
        let json = bench_json(&run, 1e9, 1.0, &[], None, None);
        assert!(!json.contains("checkpoint_write\""));
        assert!(json.contains("\"checkpoint_writes\": 0"));
    }

    #[test]
    fn serve_fields_embed_outside_the_module_gate() {
        let run = profile_case(8, 4, 1, small_config(), None, false);
        let serve = crate::serve_load::serve_load(crate::serve_load::ServeLoadConfig {
            requests: 2,
            slots: 2,
            steps: 1,
            tile_n: 8,
            nk: 3,
            streaming: true,
        });
        let json = bench_json(&run, 1e9, 1.0, &[], Some(&serve), None);
        assert!(json.contains("\"serve\": {\"requests\": 2"));
        assert_eq!(obs::regression::schema_version(&json), Ok(2));
        let report =
            obs::compare_runs(&json, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        // The serve object is top-level, like weak_scaling: adding it
        // must not perturb the per-module regression gate.
        let without = bench_json(&run, 1e9, 1.0, &[], None, None);
        let report =
            obs::compare_runs(&without, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(report.is_clean(), "serve fields leaked into the gate: {}", report.render());

        // The overload study nests under serve and stays outside the
        // gate the same way.
        let mut serve = serve;
        serve.overload = Some(crate::serve_load::OverloadReport {
            offered: 17,
            admitted: 15,
            completed: 5,
            failed: 0,
            cancelled: 2,
            evicted: 4,
            shed: 4,
            rejected_queue_full: 1,
            rejected_quota: 1,
            shed_rate: 4.0 / 15.0,
            goodput_rps: 3.2,
            total_seconds: 1.5,
            p99_latency_high_seconds: 0.2,
            p99_latency_normal_seconds: 0.3,
            eviction_p99_seconds: 0.4,
            eviction_past_deadline_p99_seconds: 0.35,
            events_published: 100,
            events_dropped: 0,
            metrics_jsonl: String::new(),
            events_jsonl: String::new(),
        });
        let json_ov = bench_json(&run, 1e9, 1.0, &[], Some(&serve), None);
        assert!(json_ov.contains("\"overload\": {\"offered\": 17"));
        assert!(json_ov.contains("\"shed_rate\": "));
        assert!(json_ov.contains("\"goodput_rps\": 3.2"));
        let report =
            obs::compare_runs(&without, &json_ov, &obs::RegressionPolicy::default()).unwrap();
        assert!(
            report.is_clean(),
            "overload fields leaked into the gate: {}",
            report.render()
        );
    }

    #[test]
    fn tuned_profile_fuses_kernels_and_embeds_the_gated_ablation() {
        let baseline = profile_case(8, 6, 2, small_config(), None, false);
        assert!(baseline.tune.is_none());
        let tuned = profile_case(8, 6, 2, small_config(), None, true);
        let report = tuned.tune.as_ref().expect("tuned run carries its report");
        // Which fusions commit is the measured veto's call — a wall-clock
        // decision this test must not depend on. Structurally: tuning never
        // adds kernels or modeled traffic, and the tuned graph still
        // reaches cache steady state.
        assert!(
            report.kernels_after <= report.kernels_before,
            "autotune grew the graph: {}",
            report.summary()
        );
        assert!(tuned.report.total_modeled_bytes() <= baseline.report.total_modeled_bytes());
        assert_eq!(tuned.steady_state_misses, 0);

        let ab = tuned_ablation(&baseline, &tuned).expect("ablation from a tuned run");
        assert_eq!(ab.kernels_after, report.kernels_after);
        assert!(ab.baseline_tracer_seconds > 0.0);
        assert!(tuned_ablation(&baseline, &baseline).is_none());

        let json = bench_json(&baseline, 1e9, 1.0, &[], None, Some(&ab));
        assert!(json.contains("\"tuned\": {\"case\""));
        assert!(json.contains("\"kernel_seconds\""));
        assert!(json.contains("\"module\": \"tuned_kernels\""));
        assert!(json.contains("\"attainable_flops_per_s\""));
        assert!(json.contains("\"compute_bound\""));
        // The tuned row is gated (diffs against itself stay clean) and
        // its absence elsewhere does not perturb the other module rows.
        let cmp = obs::compare_runs(&json, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(cmp.is_clean(), "{}", cmp.render());
        let without = bench_json(&baseline, 1e9, 1.0, &[], None, None);
        let cmp =
            obs::compare_runs(&without, &json, &obs::RegressionPolicy::default()).unwrap();
        assert!(cmp.is_clean(), "tuned object leaked into the gate: {}", cmp.render());
    }

    #[test]
    fn module_rows_carry_modeled_flops() {
        let run = profile_case(8, 4, 1, small_config(), None, false);
        let json = bench_json(&run, 1e9, 1.0, &[], None, None);
        // Kernel modules model real arithmetic; the flops land in the
        // module rows so the dual-ceiling roofline can rank them.
        let tracer = run.rollup.iter().find(|m| m.module == "tracer").unwrap();
        assert!(tracer.modeled_flops > 0);
        assert!(json.contains("\"modeled_flops\""));
    }

    #[test]
    fn health_stream_has_one_clean_sample_per_step() {
        let run = profile_case(8, 4, 3, small_config(), None, false);
        assert_eq!(run.monitor.samples().len(), 3);
        assert!(run.monitor.all_healthy());
        assert_eq!(run.monitor.to_jsonl().lines().count(), 3);
        // Metrics snapshot emitted after every step, several series each.
        assert!(run.metrics_jsonl.lines().count() >= 3 * 4);
        assert!(run.metrics.counter_value("kernel_launches", &[]) >= 3);
    }
}
