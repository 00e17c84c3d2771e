//! Integration: the flight recorder threaded through the distributed
//! driver — spans from step/acoustic/rank/halo/kernel levels, halo byte
//! counters per edge orientation, and per-rank health sampling, all
//! through the tracer and registry of the context the dycore runs under.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::driver::{DistributedDycore, DriverConfig};
use fv3core::RankSchedule;
use machine::RunContext;

#[test]
fn driver_step_records_spans_metrics_and_health() {
    let cfg = DriverConfig {
        tile_n: 8,
        rt: 1,
        nk: 4,
        dycore: DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    };
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    // The span hierarchy asserted below (one halo span per exchanged
    // field set, oriented halo_bytes counters) is the sequential central
    // exchange's shape; pin it so `FV3_RANK_SCHEDULE=parallel` in the
    // environment (the CI tier-1 parallel gate) can't change what this
    // phase measures. The parallel schedule's own observability is
    // asserted in a second phase at the end of this test.
    d.set_rank_schedule(RankSchedule::Sequential);

    let tracer = obs::Tracer::new();
    let metrics = obs::MetricsRegistry::new();
    d.set_run(RunContext {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        ..RunContext::default()
    });
    let mut monitor = fv3::health::HealthMonitor::new().with_tracer(&tracer);

    d.step();
    assert!(d.sample_health(&mut monitor, 0));
    d.set_run(RunContext::default());

    // Span hierarchy: one driver step, n_split acoustic substeps, one
    // rank span per rank per substep, one halo-exchange span per
    // exchanged field set per substep (u+v vector pair = 2 exchanges,
    // + 4 scalars). The rank programs run under the same context, so
    // their `kernel` spans (and the `halo` span of the marker node each
    // program carries) sit inside the rank spans.
    let events = tracer.finished();
    let count = |cat: &str| events.iter().filter(|e| e.cat == cat).count();
    let exchanges: Vec<_> = events
        .iter()
        .filter(|e| e.cat == "halo" && e.name == "halo_exchange")
        .collect();
    assert_eq!(count("step"), 1);
    assert_eq!(count("acoustic"), 2);
    assert_eq!(count("rank"), 2 * d.partition.ranks());
    assert_eq!(exchanges.len(), 2 * 6);
    assert_eq!(count("halo"), 2 * 6 + 2 * d.partition.ranks());
    // Every halo span is tagged with its traffic.
    for e in events.iter().filter(|e| e.cat == "halo") {
        assert!(e.bytes > 0 && e.points > 0);
    }
    // Every kernel span lies inside a rank span of its thread.
    assert!(count("kernel") >= 2 * d.partition.ranks());
    for k in events.iter().filter(|e| e.cat == "kernel") {
        assert!(events.iter().any(|r| r.cat == "rank"
            && r.tid == k.tid
            && r.ts_us <= k.ts_us
            && k.ts_us + k.dur_us <= r.ts_us + r.dur_us));
    }
    // Spans nest: every acoustic span inside the step span's interval.
    let step = events.iter().find(|e| e.cat == "step").unwrap();
    for e in events.iter().filter(|e| e.cat == "acoustic") {
        assert!(step.ts_us <= e.ts_us && e.ts_us + e.dur_us <= step.ts_us + step.dur_us);
    }

    // Metrics: halo bytes per orientation, counters, high-water mark.
    let mut oriented_total = 0;
    for o in comm::Orientation::ALL {
        oriented_total += metrics.counter_value("halo_bytes", &[("orientation", o.label())]);
    }
    let span_total: u64 = exchanges.iter().map(|e| e.bytes).sum();
    assert_eq!(oriented_total, span_total);
    assert!(oriented_total > 0);
    // rt=1: corner blocks are all cube corners, so no corner traffic.
    assert_eq!(
        metrics.counter_value("halo_bytes", &[("orientation", "corner")]),
        0
    );
    assert_eq!(metrics.counter_value("halo_exchanges", &[]), 2 * 6);
    assert_eq!(metrics.counter_value("driver_steps", &[]), 1);
    assert_eq!(
        metrics.counter_value("rank_runs", &[]),
        2 * d.partition.ranks() as u64
    );
    assert!(metrics.gauge_value("store_bytes", &[]).unwrap_or(0.0) > 0.0);

    // Health: one sample per rank, all healthy, JSONL emits.
    assert_eq!(monitor.samples().len(), d.partition.ranks());
    assert!(monitor.all_healthy());
    let jsonl = obs::emit_jsonl(&metrics, 0);
    assert!(jsonl.lines().count() >= 4);

    // The chrome trace round-trips through the parser.
    let parsed = obs::tracing::parse_chrome_trace(&tracer.to_chrome_trace()).unwrap();
    assert_eq!(parsed.len(), events.len());

    // Phase 2: the parallel schedule. Halo traffic moves to per-channel
    // mailbox posts accounted by the overlap stats rather than central
    // halo spans, but step/acoustic/rank spans and the rank_runs counter
    // keep the same shape (rank spans now come from worker threads).
    d.set_rank_schedule(RankSchedule::Parallel);
    let ptracer = obs::Tracer::new();
    let pmetrics = obs::MetricsRegistry::new();
    d.set_run(RunContext {
        tracer: Some(ptracer.clone()),
        metrics: Some(pmetrics.clone()),
        ..RunContext::default()
    });
    d.step();

    let pevents = ptracer.finished();
    let pcount = |cat: &str| pevents.iter().filter(|e| e.cat == cat).count();
    assert_eq!(pcount("step"), 1);
    assert_eq!(pcount("acoustic"), 2);
    assert_eq!(pcount("rank"), 2 * d.partition.ranks());
    assert_eq!(pmetrics.counter_value("parallel_substeps", &[]), 2);
    assert_eq!(
        pmetrics.counter_value("rank_runs", &[]),
        2 * d.partition.ranks() as u64
    );
    // Every rank's substep timings were folded in and published.
    let stats = d.overlap_stats();
    assert_eq!(stats.substeps, 2 * d.partition.ranks() as u64);
    assert!(pmetrics.gauge_value("overlap_efficiency", &[]).is_some());
    let (bytes_posted, messages_posted) = d.halo_traffic_posted();
    assert!(bytes_posted > 0 && messages_posted > 0);
    // Nothing of phase 2 reached phase 1's tracer or registry.
    assert_eq!(tracer.len(), events.len());
    assert_eq!(metrics.counter_value("driver_steps", &[]), 1);
}
