//! Measured dycore profile under the flight recorder: run the c8L6
//! baroclinic case for several timesteps and emit
//!
//! * `BENCH_dycore.json` — schema-v2 summary: per-module timings,
//!   per-kernel achieved bytes/s, roofline %-of-bound against the
//!   host's measured STREAM bandwidth, plus step count and health
//!   violations (the Fig. 7 "model-driven fine tuning" inputs).
//! * `BENCH_dycore_trace.json` — the unified chrome trace (run → step →
//!   module → kernel spans on one timeline; open in Perfetto).
//! * `RUN_health.jsonl` — one model-health sample per timestep.
//! * `RUN_metrics.jsonl` — cumulative metrics snapshot per timestep.
//!
//! With `FV3_CHECKPOINT_DIR` set, also writes an FV3CKPT1 checkpoint
//! after every step and folds the write/verified-restore wall time into
//! the summary as `checkpoint_write` / `checkpoint_restore` module rows
//! so the regression gate tracks resilience overhead.
//!
//! Refuses to clobber a `BENCH_dycore.json` written by a newer schema;
//! when an older compatible summary exists, prints the per-module
//! regression diff against it before overwriting. Exits nonzero if any
//! kernel reports zero iterations or a non-finite timing, or if any
//! health sample carries a violation, so CI can use it as a smoke
//! check.

use bench::profile::{bench_json, profile_case, tuned_ablation};
use bench::serve_load::{overload_study, serve_load, ServeLoadConfig};
use bench::weak_scaling::{study_table, weak_scaling_study};
use dataflow::report::roofline_table;
use fv3::dyn_core::DycoreConfig;
use obs::{compare_runs, RegressionPolicy, BENCH_SCHEMA_VERSION};
use std::process::ExitCode;

const N: usize = 8;
const NK: usize = 6;
const STEPS: usize = 4;
const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

fn main() -> ExitCode {
    // Satellite guard: never overwrite an artifact from a newer emitter.
    let previous = std::fs::read_to_string("BENCH_dycore.json").ok();
    if let Some(text) = &previous {
        match obs::regression::schema_version(text) {
            Ok(v) if v > BENCH_SCHEMA_VERSION => {
                eprintln!(
                    "error: existing BENCH_dycore.json has schema_version {v} > \
                     {BENCH_SCHEMA_VERSION}; refusing to overwrite (newer emitter?)"
                );
                return ExitCode::FAILURE;
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: existing BENCH_dycore.json unreadable ({e})"),
        }
    }

    let config = DycoreConfig {
        n_split: 2,
        k_split: 1,
        dt: 5.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    // The environment, read once: this bin honours `tune` and
    // `checkpoint_dir`.
    let env = machine::RunConfig::from_env();
    let run = profile_case(N, NK, STEPS, config, env.checkpoint_dir.as_deref(), env.tune);
    let report = &run.report;

    // Roofline denominator: measured host STREAM copy bandwidth.
    let stream = machine::stream::copy(4 << 20, 5);
    let attainable = stream.gib_per_s() * GIB;

    println!(
        "profile_dycore: {} x{STEPS} steps, tuned expansion, serial host executor",
        run.case_name
    );
    println!("host STREAM copy: {:.2} GiB/s\n", stream.gib_per_s());
    print!("{}", roofline_table(report, attainable, 20));

    println!("\n{:<16} {:>8} {:>12} {:>10}", "module", "inv", "time[us]", "GiB/s");
    for m in &run.rollup {
        println!(
            "{:<16} {:>8} {:>12.2} {:>10.2}",
            m.module,
            m.invocations,
            m.wall_seconds * 1e6,
            m.achieved_bandwidth() / GIB
        );
    }

    println!(
        "\nkernel cache: {} hits / {} misses ({} steady-state recompiles)",
        run.cache_hits, run.cache_misses, run.steady_state_misses
    );
    if run.checkpoint_writes > 0 {
        println!(
            "checkpointing: {} writes, {} bytes, write {:.2} ms total, verified restore {:.2} ms",
            run.checkpoint_writes,
            run.checkpoint_bytes,
            run.checkpoint_write_seconds * 1e3,
            run.checkpoint_restore_seconds * 1e3
        );
    }
    println!(
        "tile VM: {} points ({} on the scalar reference VM), {} dispatches over {} lanes",
        run.metrics.counter_value("vm_lanes_vector", &[]),
        run.metrics.counter_value("vm_lanes_scalar", &[]),
        run.metrics.counter_value("vm_dispatches", &[]),
        run.metrics.counter_value("vm_lane_ops", &[])
    );

    // Tuned-vs-baseline ablation (ISSUE 9's Table III analogue). Run at
    // c24 rather than the c8 smoke resolution: the fusions pay in saved
    // memory traffic, which the 8x8x6 subdomain (L1-resident) cannot
    // show. Wall clock at this scale is noisy (turbo, cache state,
    // neighbour load), so the arms are interleaved and each keeps its
    // minimum-kernel-seconds run — min-of-N is robust against the
    // one-sided slowdowns that plague back-to-back profiling.
    const ABLATION_N: usize = 24;
    const ABLATION_STEPS: usize = 2;
    const ABLATION_REPS: usize = 5;
    // Prepare each arm ONCE: the reps then interleave identical,
    // build-free runs. Re-preparing per rep would both re-roll the
    // vetted fusion set (the veto re-measures at build time) and run
    // every tuned rep straight after the veto's measurement load,
    // biasing the A/B comparison.
    let prepared: Vec<(bool, bench::profile::PreparedCase)> = [false, true]
        .into_iter()
        .map(|t| (t, bench::profile::prepare_case(ABLATION_N, NK, config, t)))
        .collect();
    let mut arms: Vec<(bool, bench::profile::ProfileRun)> = Vec::new();
    for _ in 0..ABLATION_REPS {
        for (t, case) in &prepared {
            arms.push((*t, bench::profile::profile_prepared(case, ABLATION_STEPS, None)));
        }
    }
    let best = |want: bool| {
        arms.iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, r)| r)
            .min_by(|a, b| a.report.kernel_seconds.total_cmp(&b.report.kernel_seconds))
            .expect("at least one run per arm")
    };
    let (baseline, tuned_run) = (best(false), best(true));
    let mut ablation =
        tuned_ablation(baseline, tuned_run).expect("tuned arm carries an autotune report");
    // Each gated scalar is the per-arm minimum across reps (not the
    // best-total run's value): min-of-N per metric is the robust
    // estimator of the achievable time, and the tuned arm's committed
    // fusion set can differ between reps (the measured veto re-runs at
    // build time), so a single run would conflate set choice with noise.
    let arm_min = |want: bool, f: &dyn Fn(&bench::profile::ProfileRun) -> f64| {
        arms.iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, r)| f(r))
            .fold(f64::INFINITY, f64::min)
    };
    let tracer = |r: &bench::profile::ProfileRun| {
        r.rollup
            .iter()
            .find(|m| m.module == "tracer")
            .map_or(0.0, |m| m.wall_seconds)
    };
    ablation.baseline_kernel_seconds = arm_min(false, &|r| r.report.kernel_seconds);
    ablation.tuned_kernel_seconds = arm_min(true, &|r| r.report.kernel_seconds);
    ablation.baseline_tracer_seconds = arm_min(false, &tracer);
    ablation.tuned_tracer_seconds = arm_min(true, &tracer);
    println!(
        "\ntuned ablation (c{ABLATION_N}L{NK} x{ABLATION_STEPS} steps, min of \
         {ABLATION_REPS}; {}):",
        ablation.summary
    );
    println!(
        "{:<16} {:>14} {:>14} {:>8}",
        "module", "base[us]", "tuned[us]", "ratio"
    );
    for b in &baseline.rollup {
        let t = tuned_run
            .rollup
            .iter()
            .find(|m| m.module == b.module)
            .map_or(0.0, |m| m.wall_seconds);
        let ratio = if t > 0.0 { b.wall_seconds / t } else { 0.0 };
        println!(
            "{:<16} {:>14.2} {:>14.2} {:>7.2}x",
            b.module,
            b.wall_seconds * 1e6,
            t * 1e6,
            ratio
        );
    }
    println!(
        "kernel totals: baseline {:.2} us, tuned {:.2} us ({:.2}x measured, {:.2}x modeled)",
        ablation.baseline_kernel_seconds * 1e6,
        ablation.tuned_kernel_seconds * 1e6,
        ablation.measured_speedup(),
        ablation.modeled_speedup
    );

    // Measured weak-scaling overlap study (ISSUE 6): c8/c48/c96 under
    // both rank schedules; the c48 overlap lands in BENCH_dycore.json as
    // top-level non-module fields.
    let scaling = weak_scaling_study(3, 2);
    println!("\nweak-scaling overlap study (nk=3, 2 steps, parallel rank schedule):");
    print!("{}", study_table(&scaling));

    // Forecast-as-a-service load study (ISSUE 7): a warmup request plus
    // a measured burst through the persistent engine; sustained req/s
    // and tail latency land in BENCH_dycore.json as the top-level
    // `serve` object (non-gated, like `weak_scaling`).
    let mut serve = serve_load(ServeLoadConfig::default());
    println!(
        "\nserve load ({} requests x {} steps over {} slots): {:.2} req/s, \
         p50 {:.1} ms, p99 {:.1} ms, {} steady-state recompiles, {} warm acquires",
        serve.requests,
        serve.steps,
        serve.slots,
        serve.requests_per_second,
        serve.p50_latency_seconds * 1e3,
        serve.p99_latency_seconds * 1e3,
        serve.steady_state_misses,
        serve.warm_acquires
    );

    // Overload study (ISSUE 10): the same service driven to 2x
    // saturation with mixed lanes, tight deadlines, and a tenant at its
    // cap; graceful-degradation numbers nest under `serve.overload`.
    serve.overload = Some(overload_study(ServeLoadConfig::default()));
    let ov = serve.overload.as_ref().unwrap();
    println!(
        "overload (2x saturation): {:.2} req/s goodput, shed_rate {:.2}, \
         {} evicted (p99 {:.0} ms past deadline), {} cancelled, {} refused",
        ov.goodput_rps,
        ov.shed_rate,
        ov.evicted,
        ov.eviction_past_deadline_p99_seconds * 1e3,
        ov.cancelled,
        ov.rejected_queue_full + ov.rejected_quota
    );

    // Self-validation: a profile with dead kernels, broken clocks, or an
    // unhealthy model is worse than no profile.
    let mut bad = Vec::new();
    if report.launches == 0 {
        bad.push("no kernel launches recorded".to_string());
    }
    for k in &report.kernels {
        if k.invocations == 0 {
            bad.push(format!("kernel '{}' reports zero iterations", k.name));
        }
        if !k.wall_seconds.is_finite() || k.wall_seconds < 0.0 {
            bad.push(format!("kernel '{}' has non-finite timing", k.name));
        }
    }
    for m in &run.rollup {
        if !m.wall_seconds.is_finite() {
            bad.push(format!("module '{}' has non-finite timing", m.module));
        }
    }
    if !attainable.is_finite() || attainable <= 0.0 {
        bad.push("host STREAM bandwidth is not positive/finite".to_string());
    }
    if run.monitor.samples().len() < STEPS {
        bad.push(format!(
            "only {} health samples for {STEPS} steps",
            run.monitor.samples().len()
        ));
    }
    if run.cache_hits == 0 {
        bad.push("compiled-kernel cache recorded no hits".to_string());
    }
    if run.steady_state_misses > 0 {
        bad.push(format!(
            "{} kernel recompilations after the first step (cache not in steady state)",
            run.steady_state_misses
        ));
    }
    if !run.monitor.all_healthy() {
        for s in run.monitor.samples().iter().filter(|s| !s.is_healthy()) {
            for v in &s.violations {
                bad.push(format!("health violation at step {}: {v}", s.step));
            }
        }
    }
    for p in &scaling {
        if p.halo_bytes == 0 || p.halo_messages == 0 {
            bad.push(format!("{}: parallel schedule posted no halo traffic", p.case));
        }
        if !(0.0..=1.0).contains(&p.overlap_efficiency) {
            bad.push(format!(
                "{}: overlap efficiency {} out of range",
                p.case, p.overlap_efficiency
            ));
        }
    }
    if ablation.kernels_after >= ablation.kernels_before {
        bad.push(format!(
            "autotune applied no fusion on the dycore: {}",
            ablation.summary
        ));
    }
    if env.tune {
        // The tuned-profile CI job runs with FV3_TUNE=1. The vetted
        // fusion wins on this host (riem/d_sw pointwise chains) are
        // ~1-2% of total kernel seconds — the same order as the
        // min-of-N noise floor at c24 — so a strict "tuned < baseline"
        // would flake on noise. The hard guarantees live elsewhere
        // (bit-identity in tuned_diff, the structural kernels_after <
        // kernels_before check above); here we gate on non-regression:
        // the tuned arm must stay within the noise floor of baseline.
        if ablation.tuned_kernel_seconds > ablation.baseline_kernel_seconds * 1.02 {
            bad.push(format!(
                "tuned kernel_seconds {} regressed past untuned {} by >2%",
                ablation.tuned_kernel_seconds, ablation.baseline_kernel_seconds
            ));
        }
        // The tracer chain is where the static model's fusion advice is
        // wrong on this host (OTF recompute at offset load sites loses
        // measurably on real data), so the vetted pipeline's job is to
        // *refuse* those fusions: tuned tracer time must not regress
        // beyond measurement noise. An un-vetted pipeline fails this
        // check by several percent.
        if ablation.tuned_tracer_seconds > ablation.baseline_tracer_seconds * 1.02 {
            bad.push(format!(
                "tuning regressed tracer module wall time: {} vs {} s",
                ablation.tuned_tracer_seconds, ablation.baseline_tracer_seconds
            ));
        }
    }
    if !serve.is_clean() {
        bad.push(format!(
            "serve load broke the service contract: completed {}/{}, {} failed, \
             {} steady-state recompiles, {:.2} req/s, p99 {:.4}s",
            serve.completed,
            serve.requests,
            serve.failed,
            serve.steady_state_misses,
            serve.requests_per_second,
            serve.p99_latency_seconds
        ));
    }
    if let Some(ov) = &serve.overload {
        if !ov.is_clean() {
            bad.push(format!(
                "overload study did not degrade gracefully: {} of {} admitted \
                 reached a terminal ({} completed / {} failed / {} cancelled / \
                 {} evicted / {} shed), {} refusals",
                ov.completed + ov.failed + ov.cancelled + ov.evicted + ov.shed,
                ov.admitted,
                ov.completed,
                ov.failed,
                ov.cancelled,
                ov.evicted,
                ov.shed,
                ov.rejected_queue_full + ov.rejected_quota
            ));
        }
    }

    let json = bench_json(
        &run,
        attainable,
        stream.gib_per_s(),
        &scaling,
        Some(&serve),
        Some(&ablation),
    );
    let writes = [
        ("BENCH_dycore.json", json.clone()),
        ("BENCH_dycore_trace.json", run.tracer.to_chrome_trace()),
        ("RUN_health.jsonl", run.monitor.to_jsonl()),
        ("RUN_metrics.jsonl", run.metrics_jsonl.clone()),
    ];
    for (path, contents) in &writes {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "\nwrote BENCH_dycore.json, BENCH_dycore_trace.json, RUN_health.jsonl, RUN_metrics.jsonl"
    );

    // Regression diff against the summary this run replaced.
    if let Some(before) = &previous {
        match compare_runs(before, &json, &RegressionPolicy::default()) {
            Ok(cmp) => {
                println!("\nregression diff vs previous BENCH_dycore.json:");
                print!("{}", cmp.render());
            }
            Err(e) => println!("\nno regression diff (previous summary: {e})"),
        }
    }

    if !bad.is_empty() {
        for b in &bad {
            eprintln!("error: {b}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
