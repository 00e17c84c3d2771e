//! Acceptance tests for the flight-recorder bench integration: one
//! profiled run yields a single chrome trace whose run → step → module
//! → kernel spans nest by time containment, a clean health stream with
//! one sample per timestep, and schema-v2 summaries that `compare_runs`
//! diffs cleanly; the `profile_dycore` binary emits all four artifacts
//! and refuses to clobber a newer-schema summary.

use bench::profile::{bench_json, profile_case};
use fv3::dyn_core::DycoreConfig;
use obs::tracing::parse_chrome_trace;
use obs::{compare_runs, RegressionPolicy, TraceEvent};
use std::path::PathBuf;
use std::process::Command;

fn config() -> DycoreConfig {
    DycoreConfig {
        n_split: 2,
        k_split: 1,
        dt: 5.0,
        dddmp: 0.02,
        nord4_damp: None,
    }
}

fn contained(inner: &TraceEvent, outer: &TraceEvent) -> bool {
    outer.ts_us <= inner.ts_us && inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us
}

#[test]
fn unified_trace_nests_run_step_module_kernel() {
    let steps = 2;
    let run = profile_case(8, 4, steps, config(), None, false);
    let events = run.tracer.finished();
    let of = |cat: &str| events.iter().filter(|e| e.cat == cat).collect::<Vec<_>>();

    let runs = of("run");
    assert_eq!(runs.len(), 1);
    let step_spans = of("step");
    assert_eq!(step_spans.len(), steps);
    for s in &step_spans {
        assert!(contained(s, runs[0]), "step {} outside run span", s.name);
    }

    // Every module span sits inside exactly one timestep, and every
    // executed kernel/copy/callback event inside some module span.
    let modules = of("module");
    assert!(!modules.is_empty());
    for m in &modules {
        let owners = step_spans.iter().filter(|s| contained(m, s)).count();
        assert_eq!(owners, 1, "module {} in {owners} steps", m.name);
    }
    for cat in ["kernel", "copy", "callback"] {
        for e in of(cat) {
            assert!(
                modules.iter().any(|m| contained(e, m)),
                "{cat} event {} outside all module spans",
                e.name
            );
        }
    }

    // The unified trace round-trips through the chrome-trace parser.
    let parsed = parse_chrome_trace(&run.tracer.to_chrome_trace()).unwrap();
    assert_eq!(parsed.len(), events.len());

    // Health: one clean sample per timestep.
    assert_eq!(run.monitor.samples().len(), steps);
    assert!(run.monitor.all_healthy());
    for line in run.monitor.to_jsonl().lines() {
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains("blowup"));
    }
}

#[test]
fn consecutive_runs_produce_comparable_schema_v2_summaries() {
    let a = bench_json(&profile_case(8, 4, 2, config(), None, false), 1e9, 1.0, &[], None, None);
    let b = bench_json(&profile_case(8, 4, 2, config(), None, false), 1e9, 1.0, &[], None, None);
    assert_eq!(obs::regression::schema_version(&a), Ok(2));
    assert_eq!(obs::regression::schema_version(&b), Ok(2));

    // Same program, so the module sets line up exactly; wall-clock
    // jitter is judged with a lenient policy to keep the test stable.
    let report = compare_runs(&a, &b, &RegressionPolicy::default()).unwrap();
    assert!(report.added.is_empty() && report.removed.is_empty());
    assert!(!report.deltas.is_empty());
    let lenient = RegressionPolicy {
        slowdown: 1e6,
        min_seconds: 1e-3,
    };
    assert!(compare_runs(&a, &b, &lenient).unwrap().is_clean());
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_unified_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bin_refuses_to_overwrite_newer_schema_summary() {
    let dir = scratch_dir("refuse");
    let sentinel = "{\"schema_version\": 99, \"modules\": []}\n";
    std::fs::write(dir.join("BENCH_dycore.json"), sentinel).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_profile_dycore"))
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to overwrite"), "{stderr}");
    // The newer artifact survives untouched.
    let kept = std::fs::read_to_string(dir.join("BENCH_dycore.json")).unwrap();
    assert_eq!(kept, sentinel);
}

#[test]
fn bin_emits_all_artifacts_and_diffs_second_run() {
    let dir = scratch_dir("emit");
    let bin = env!("CARGO_BIN_EXE_profile_dycore");
    let out = Command::new(bin).current_dir(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [
        "BENCH_dycore.json",
        "BENCH_dycore_trace.json",
        "RUN_health.jsonl",
        "RUN_metrics.jsonl",
    ] {
        assert!(dir.join(f).exists(), "missing {f}");
    }
    let summary = std::fs::read_to_string(dir.join("BENCH_dycore.json")).unwrap();
    assert_eq!(obs::regression::schema_version(&summary), Ok(2));
    let health = std::fs::read_to_string(dir.join("RUN_health.jsonl")).unwrap();
    assert!(health.lines().count() >= 4);
    assert!(!health.contains("blowup"));
    let trace = std::fs::read_to_string(dir.join("BENCH_dycore_trace.json")).unwrap();
    assert!(!parse_chrome_trace(&trace).unwrap().is_empty());

    // Second run in the same directory diffs against the first.
    let out2 = Command::new(bin).current_dir(&dir).output().unwrap();
    assert!(
        out2.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let stdout = String::from_utf8_lossy(&out2.stdout);
    assert!(stdout.contains("regression diff vs previous"), "{stdout}");
}
