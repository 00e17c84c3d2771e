//! The benchmark's own tests: `cargo test --release --offline` in this
//! directory. No assertion here depends on wall-clock time.

use super::*;

/// `(name, unit)` of every object in `BENCHMARK.json`'s array `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = obs::json::parse(&text).expect("BENCHMARK.json parses");
    let field = |o: &obs::json::Value, f: &str| {
        o.get(f)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    json.get(key)
        .and_then(|v| v.as_array())
        .expect("section is an array")
        .iter()
        .map(|o| (field(o, "name"), field(o, "unit")))
        .collect()
}

fn as_pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), as_pairs(&PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        assert!(
            ok(name, "_.-") && name.len() <= 64,
            "bad metric name {name}"
        );
        assert!(ok(unit, "_/%.-") && unit.len() <= 16, "bad unit {unit}");
    }
}

#[test]
fn args_reject_what_the_driver_never_sends() {
    let parse = |s: &str| Args::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
    let a = parse("--workload serve_open --seed 7 --seconds 20 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve_open", 7, 20.0, true)
    );
    assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload serve_open --trace 2").is_err());
    assert!(parse("--workload serve_open --seconds 0").is_err());
    assert!(parse("--workload serve_open --seed").is_err());
}

#[test]
fn result_json_has_exactly_the_contract_keys() {
    let s = result_json(3, 1, &[("op_s", "s", 0.25), ("n", "count", 7.0)]);
    assert_eq!(
        s,
        "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
         {\"op_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
    );
}

#[test]
fn timed_loop_alternates_arms_honours_the_minimum_and_runs_every_setup_block() {
    let mut rec = trace::Recorder::new(true);
    let mut setups = 0;
    let timed = TimedLoop {
        rec: &mut rec,
        budget: Duration::ZERO,
        block: 3,
        trace: true,
        setup_blocks: 2,
    };
    let (s, setup_s) = timed.run(|| setups += 1, |_, i, _| i as f64);
    assert_eq!(s.plain, vec![0.0, 1.0, 2.0, 6.0, 7.0, 8.0]);
    assert_eq!(s.traced, vec![3.0, 4.0, 5.0, 9.0, 10.0, 11.0]);
    assert_eq!(setups, 2 * SETUP_BLOCK);
    assert!(setup_s >= 0.0);
    assert_eq!(
        rec.spans().iter().filter(|s| s.name == "setup").count(),
        setups
    );

    let timed = TimedLoop {
        rec: &mut rec,
        budget: Duration::ZERO,
        block: 2,
        trace: false,
        setup_blocks: 1,
    };
    let (s, _) = timed.run(
        || (),
        |_, i, traced| {
            assert!(!traced);
            i as f64
        },
    );
    assert_eq!((s.plain.len(), s.traced.len()), (4, 0));
}

/// Exact-count metrics that must hold on this commit for the smoke
/// sizes, by workload.
fn expected_counts(workload: &str) -> Vec<(&'static str, f64)> {
    let mut v = vec![
        ("validate.state_hash_mismatches", 0.0),
        ("dataflow.cache_misses_steady", 0.0),
        ("dataflow.launches_per_step", 25.0),
        ("stencil.states", 7.0),
        ("dataflow.kernels_expanded", 25.0),
        ("fv3core.pipeline_kernels_after", 28.0),
        ("tuning.kernels_after", 12.0),
        ("dataflow.kernels_compiled", 12.0),
    ];
    match workload {
        "dycore_seq" => v.extend([
            ("fv3core.cache_misses_steady", 0.0),
            ("comm.halo_messages_per_step", 0.0),
            ("comm.halo_bytes_per_step", 0.0),
        ]),
        "dycore_par" => v.extend([
            ("fv3core.cache_misses_steady", 0.0),
            ("comm.halo_messages_per_step", 24.0),
            ("comm.halo_bytes_per_step", 110592.0),
        ]),
        "serve_open" => v.extend([
            ("engine.cache_misses_steady", 0.0),
            ("engine.requests_sent", 20.0),
            ("engine.requests_completed", 20.0),
            ("engine.requests_failed", 0.0),
            ("obs.events_dropped", 0.0),
        ]),
        _ => {}
    }
    v
}

/// `--smoke` for all four workloads in both modes: every declared metric
/// is emitted exactly once with a unit and a finite value, exact counts
/// hold, nothing failed — and ambient `FV3_*` knobs are gone before the
/// first workload starts.
#[test]
fn smoke_emits_every_declared_metric_and_nothing_fails() {
    for (k, v) in [
        ("FV3_TUNE", "1"),
        ("FV3_RANK_SCHEDULE", "parallel"),
        ("FV3_WORKERS", "8"),
    ] {
        std::env::set_var(k, v);
    }
    let cleared = host::clear_fv3_env();
    assert!(cleared.len() >= 3);
    assert!(std::env::vars().all(|(k, _)| !k.starts_with("FV3_")));

    for workload in WORKLOADS {
        for trace in [false, true] {
            let (attempted, failed, metrics) = run(Args {
                workload: workload.to_string(),
                seed: 11,
                seconds: 1.0,
                trace,
                smoke: true,
            });
            let what = format!("{workload} trace={trace}");
            assert!(attempted >= 1, "{what}");
            assert_eq!(failed, 0, "{what}");
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> = metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
            assert_eq!(emitted, table, "{what}");
            for (name, _, v) in &metrics {
                assert!(v.is_finite(), "{what}: {name} = {v}");
            }
            if trace {
                for (name, want) in expected_counts(workload) {
                    let got = metrics.iter().find(|(n, _, _)| *n == name).expect(name).2;
                    assert_eq!(got, want, "{what}: {name}");
                }
                let path = format!("perf_trace.{workload}.json");
                let text = std::fs::read_to_string(&path).expect("trace file written");
                let trace = obs::json::parse(&text).expect("trace file is JSON");
                let events = trace.get("traceEvents").and_then(|v| v.as_array());
                assert!(events.is_some_and(|e| e.len() > 5), "{what}");
                let _ = std::fs::remove_file(path);
            } else {
                for (name, _, v) in &metrics {
                    assert!(*v > 0.0, "{what}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

/// Every span of a real traced run has a parent or is the root, and each
/// parent's children plus its unattributed time equal its duration.
#[test]
fn traced_run_spans_reconcile() {
    let mut ctx = Ctx::new(Args {
        workload: "toolchain_cold".to_string(),
        seed: 3,
        seconds: 1.0,
        trace: true,
        smoke: true,
    });
    let root = ctx.rec.open("run");
    toolchain::run(&mut ctx);
    ctx.rec.close(root);
    let spans = ctx.rec.spans();
    assert!(spans.len() > 10);
    assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
    let selfs = trace::self_times_us(spans);
    for (id, s) in spans.iter().enumerate() {
        let covered: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us - c.start_us)
            .sum();
        // Children recorded by `open`/`close` on one thread never overlap.
        let dur = s.end_us - s.start_us;
        assert!(
            (covered + selfs[id] - dur).abs() <= 1e-6 * dur.max(1.0),
            "span {id} {}",
            s.name
        );
        assert!(selfs[id] >= 0.0);
    }
}
