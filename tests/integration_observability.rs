//! Integration: the flight recorder threaded through the distributed
//! driver — spans from step/acoustic/rank/halo/kernel levels, halo
//! traffic counters, and per-rank health sampling, all through the tracer
//! and registry of the context the dycore runs under. A team of one and a
//! team of six rank threads record the same shape.

use comm::{ExchangePlan, Orientation};
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3::state::HALO;
use fv3core::driver::{DistributedDycore, DriverConfig};
use fv3core::RankSchedule;
use machine::{Pool, RunContext};

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
    let ranks = d.partition.ranks();
    // rt=1: corner blocks are all cube corners, so no corner traffic; the
    // plan still splits the wire by orientation.
    let wire = ExchangePlan::new(&d.partition, HALO).stats(cfg.nk);
    assert_eq!(wire.bytes_for(Orientation::Corner), 0);
    assert!(wire.bytes_for(Orientation::West) > 0);

    let mut earlier: Option<(obs::Tracer, obs::MetricsRegistry, usize)> = None;
    for (schedule, workers) in [(RankSchedule::Sequential, 1), (RankSchedule::Parallel, 6)] {
        let what = format!("{schedule:?} team of {workers}");
        d.set_rank_schedule(schedule);
        d.set_pool(Some(Pool::new(workers)));
        let tracer = obs::Tracer::new();
        let metrics = obs::MetricsRegistry::new();
        d.set_run(RunContext {
            tracer: Some(tracer.clone()),
            metrics: Some(metrics.clone()),
            ..RunContext::default()
        });
        let mut monitor = fv3::health::HealthMonitor::new().with_tracer(&tracer);
        let before = d.halo_traffic_posted();

        d.step();
        assert!(d.sample_health(&mut monitor, 0), "{what}");
        d.set_run(RunContext::default());
        let after = d.halo_traffic_posted();
        let bytes = metrics.counter_value("halo_bytes", &[]);
        let messages = metrics.counter_value("halo_messages", &[]);
        // What crossed between rank threads; a team of one posts only to
        // itself.
        let between_threads = match schedule {
            RankSchedule::Sequential => (0, 0),
            RankSchedule::Parallel => (bytes, messages),
        };
        assert_eq!((after.0 - before.0, after.1 - before.1), between_threads, "{what}");

        // Span hierarchy: one driver step, n_split acoustic substeps, one
        // rank span per rank per substep, and inside each rank span one
        // halo-exchange span (receive, unpack, fold). The rank programs
        // run under the same context, so their `kernel` spans (and the
        // `halo` span of the marker node each program carries) sit inside
        // the rank spans too.
        let events = tracer.finished();
        let count = |cat: &str| events.iter().filter(|e| e.cat == cat).count();
        let exchanges: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "halo" && e.name == "halo_exchange")
            .collect();
        assert_eq!(count("step"), 1, "{what}");
        assert_eq!(count("acoustic"), 2, "{what}");
        assert_eq!(count("rank"), 2 * ranks, "{what}");
        assert_eq!(exchanges.len(), 2 * ranks, "{what}");
        assert_eq!(count("halo"), 2 * 2 * ranks, "{what}");
        // Every halo span is tagged with its traffic, and what the
        // exchange spans received is what the team posted: six packed
        // fields over every channel, each substep.
        for e in events.iter().filter(|e| e.cat == "halo") {
            assert!(e.bytes > 0 && e.points > 0, "{what}: {e:?}");
        }
        assert_eq!(exchanges.iter().map(|e| e.bytes).sum::<u64>(), bytes, "{what}");
        assert_eq!(exchanges.iter().map(|e| e.points).sum::<u64>(), messages, "{what}");
        let posted = (2 * 6 * wire.total_bytes, 2 * wire.total_messages);
        assert_eq!((bytes, messages), posted, "{what}");
        // Every exchange and kernel span lies inside a rank span of its
        // thread.
        assert!(count("kernel") >= 2 * ranks, "{what}");
        for k in events.iter().filter(|e| e.cat == "kernel" || e.name == "halo_exchange") {
            assert!(
                events.iter().any(|r| r.cat == "rank"
                    && r.tid == k.tid
                    && r.ts_us <= k.ts_us
                    && k.ts_us + k.dur_us <= r.ts_us + r.dur_us),
                "{what}: {k:?}"
            );
        }
        // Spans nest: every acoustic span inside the step span's interval.
        let step = events.iter().find(|e| e.cat == "step").unwrap();
        for e in events.iter().filter(|e| e.cat == "acoustic") {
            assert!(step.ts_us <= e.ts_us && e.ts_us + e.dur_us <= step.ts_us + step.dur_us);
        }

        // Metrics: counters, timings, high-water mark.
        assert_eq!(metrics.counter_value("team_substeps", &[]), 2, "{what}");
        assert_eq!(metrics.counter_value("driver_steps", &[]), 1, "{what}");
        assert_eq!(metrics.counter_value("rank_runs", &[]), 2 * ranks as u64, "{what}");
        assert!(metrics.gauge_value("store_bytes", &[]).unwrap_or(0.0) > 0.0, "{what}");
        assert!(metrics.gauge_value("overlap_efficiency", &[]).is_some(), "{what}");
        assert_eq!(d.take_overlap_stats().substeps, 2 * ranks as u64, "{what}");

        // Health: one sample per rank, all healthy, JSONL emits.
        assert_eq!(monitor.samples().len(), ranks);
        assert!(monitor.all_healthy());
        let jsonl = obs::emit_jsonl(&metrics, 0);
        assert!(jsonl.lines().count() >= 4);

        // The chrome trace round-trips through the parser.
        let parsed = obs::tracing::parse_chrome_trace(&tracer.to_chrome_trace()).unwrap();
        assert_eq!(parsed.len(), events.len());

        // Nothing of this step reached the earlier team's recorder.
        if let Some((tracer, metrics, len)) = &earlier {
            assert_eq!(tracer.len(), *len, "{what}");
            assert_eq!(metrics.counter_value("driver_steps", &[]), 1, "{what}");
        }
        earlier = Some((tracer, metrics, events.len()));
    }
}
