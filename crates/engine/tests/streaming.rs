//! Live telemetry plane through the engine (ISSUE 8): lifecycle events
//! stream in order per request, `status()` tracks a concurrent burst,
//! drop-oldest backpressure never blocks a slot, and a streaming-off
//! engine publishes nothing while still introspecting.

use engine::{EngineConfig, EngineStatus, ForecastEngine, ForecastRequest, Scenario};
use fv3::dyn_core::DycoreConfig;
use fv3core::DriverConfig;
use machine::pool::Pool;
use obs::stream::RunEvent;
use std::time::Duration;

fn small_request(steps: u64) -> ForecastRequest {
    let config = DriverConfig::six_rank(
        8,
        3,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    ForecastRequest::new(Scenario::BaroclinicWave, config, steps)
}

fn engine(cfg: EngineConfig) -> ForecastEngine {
    ForecastEngine::start(EngineConfig {
        pool: Some(Pool::new(1)),
        ..cfg
    })
}

#[test]
fn single_tenant_lifecycle_streams_every_event_in_order() {
    let e = engine(EngineConfig {
        slots: 1,
        ..EngineConfig::default()
    });
    // Subscribe before submitting so the full lifecycle (starting with
    // RequestQueued, which is published under the queue lock) is seen.
    let stream = e.subscribe_all().expect("streaming engine has a bus");
    let id = e.submit(small_request(3).with_label("solo"));
    let out = e.wait(id);
    assert!(out.result.is_completed(), "{:?}", out.result.terminal());

    let events = stream.drain();
    assert_eq!(stream.dropped(), 0, "single tenant must drop nothing");
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

    let rid = id.to_string();
    let kinds: Vec<&'static str> = events
        .iter()
        .filter(|ev| ev.request.as_deref() == Some(rid.as_str()))
        .map(|ev| ev.body.kind())
        .collect();
    assert_eq!(kinds.first(), Some(&"request_queued"));
    assert_eq!(kinds.get(1), Some(&"request_started"));
    assert_eq!(kinds.last(), Some(&"request_completed"));

    // Every per-step completion streamed, in order.
    let steps: Vec<u64> = events
        .iter()
        .filter_map(|ev| match ev.body {
            RunEvent::StepCompleted { step, .. } => Some(step),
            _ => None,
        })
        .collect();
    assert_eq!(steps, vec![1, 2, 3]);
    // And the supervisor's health verdicts rode along, all healthy.
    let verdicts: Vec<(u64, bool)> = events
        .iter()
        .filter_map(|ev| match ev.body {
            RunEvent::HealthSample { step, healthy, .. } => Some((step, healthy)),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts, vec![(1, true), (2, true), (3, true)]);
    e.shutdown();
}

#[test]
fn subscribe_by_id_sees_only_that_request() {
    let e = engine(EngineConfig {
        slots: 1,
        ..EngineConfig::default()
    });
    let first = e.submit(small_request(2));
    let second = e.submit(small_request(2));
    // The single slot is busy with `first`, so `second` is still queued:
    // its per-request subscription starts before any of its events fire.
    let stream = e.subscribe(second).expect("streaming engine has a bus");
    let _ = e.wait(first);
    let out = e.wait(second);
    assert!(out.result.is_completed());

    let events = stream.drain();
    assert!(!events.is_empty(), "second request must have streamed");
    let rid = second.to_string();
    for ev in &events {
        assert_eq!(
            ev.request.as_deref(),
            Some(rid.as_str()),
            "filtered stream leaked a foreign event: {}",
            ev.to_json()
        );
    }
    assert_eq!(events.last().map(|ev| ev.body.kind()), Some("request_completed"));
    e.shutdown();
}

fn assert_status_invariants(st: &EngineStatus, total: u64) {
    assert!(st.slots_busy <= st.slots);
    assert_eq!(st.running.len(), st.slots_busy, "running set matches busy slots");
    let s = &st.stats;
    let done = s.completed + s.failed + s.cancelled + s.evicted + s.shed;
    assert_eq!(
        st.queue_depth() as u64 + st.running.len() as u64 + done,
        s.submitted,
        "conservation: queued {} + running {} + done {done} != submitted",
        st.queue_depth(),
        st.running.len()
    );
    assert!(s.submitted <= total);
    for r in &st.running {
        assert!(r.steps_done <= r.steps_budget);
    }
    // The aggregate occupancy is this snapshot's, not a later re-read.
    assert_eq!(st.stats.slots_busy, st.slots_busy as u64);
    assert_eq!(st.stats.queue_depth, st.queue_depth() as u64);
    assert_eq!(st.stats.lane_depths.iter().sum::<u64>(), st.stats.queue_depth);
}

#[test]
fn status_tracks_occupancy_under_concurrent_submit_burst() {
    let total = 6u64;
    let e = engine(EngineConfig {
        slots: 2,
        queue_cap: total as usize,
        ..EngineConfig::default()
    });
    let ids: Vec<_> = (0..total).map(|_| e.submit(small_request(2))).collect();

    // Poll while the burst drains: invariants must hold on every
    // snapshot, and the burst must be observed actually occupying slots.
    let mut saw_busy = false;
    let mut saw_queued = false;
    loop {
        let st = e.status();
        assert_status_invariants(&st, total);
        saw_busy |= st.slots_busy > 0;
        saw_queued |= st.queue_depth() > 0;
        if st.stats.completed + st.stats.failed >= total {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_busy, "never observed a busy slot during a 6-request burst");
    assert!(saw_queued, "6 requests over 2 slots never queued");

    for id in ids {
        assert!(e.wait(id).result.is_completed());
    }
    // Quiescent snapshot: empty queue, idle slots, warm instances parked,
    // and the stats occupancy fields agree.
    let st = e.status();
    assert_eq!(st.queue_depth(), 0);
    assert_eq!(st.slots_busy, 0);
    assert_eq!(st.running.len(), 0);
    assert_eq!(st.slots, 2);
    assert!(st.warm_pool >= 1, "completed tenants park warm instances");
    assert!(st.events_published > 0);
    let stats = st.stats;
    assert_eq!(stats.completed, total);
    assert_eq!(stats.slots, 2);
    assert_eq!(stats.slots_busy, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.warm_pool, st.warm_pool as u64);
    e.shutdown();
}

/// Two threads snapshot as fast as they can while 40 requests drain over
/// two slots: every snapshot is one consistent view. A `slots_busy`
/// counter read apart from the running set, or a terminal counted before
/// its request left the set, fails an invariant within a few thousand
/// snapshots; a request read as queued and, later in the same snapshot,
/// as done breaks conservation.
#[test]
fn status_is_one_consistent_view_under_a_two_thread_hammer() {
    let total = 40u64;
    let e = engine(EngineConfig {
        slots: 2,
        queue_cap: total as usize,
        ..EngineConfig::default()
    });
    let snapshots = std::thread::scope(|s| {
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut n = 0u64;
                    loop {
                        let st = e.status();
                        assert_status_invariants(&st, total);
                        n += 1;
                        if st.stats.completed + st.stats.failed >= total {
                            return n;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        let ids: Vec<_> = (0..total).map(|_| e.submit(small_request(1))).collect();
        for id in ids {
            assert!(e.wait(id).result.is_completed());
        }
        hammers
            .into_iter()
            .map(|h| h.join().expect("a snapshot broke an invariant"))
            .sum::<u64>()
    });
    assert!(snapshots >= total, "{snapshots} snapshots of a {total}-request burst");
    let st = e.status();
    assert_eq!((st.queue_depth(), st.slots_busy, st.running.len()), (0, 0, 0));
    assert_eq!(st.stats.completed, total);
    e.shutdown();
}

#[test]
fn tiny_buffer_drops_oldest_and_never_stalls_the_run() {
    let e = engine(EngineConfig {
        slots: 1,
        stream_buffer: 2,
        ..EngineConfig::default()
    });
    let stream = e.subscribe_all().expect("bus");
    let id = e.submit(small_request(4));
    let out = e.wait(id);
    assert!(out.result.is_completed(), "slow subscriber must not fail the run");

    // The subscriber held at most 2 events; everything older was
    // dropped and counted — the publisher never blocked.
    assert!(stream.len() <= 2);
    assert!(stream.dropped() > 0, "a 4-step run overflows a 2-event buffer");
    let dropped = stream.dropped();
    let events = stream.drain();
    let st = e.status();
    // Drop-oldest: what survives is the *newest* tail of the stream —
    // the last retained event is the last one published.
    assert_eq!(
        events.last().map(|ev| ev.seq),
        Some(st.events_published - 1)
    );
    assert_eq!(st.events_dropped, dropped);
    e.shutdown();
}

#[test]
fn streaming_off_publishes_nothing_and_status_still_works() {
    let e = engine(EngineConfig {
        slots: 1,
        streaming: false,
        ..EngineConfig::default()
    });
    assert!(e.subscribe_all().is_none());
    let id = e.submit(small_request(2));
    assert!(e.subscribe(id).is_none());
    let out = e.wait(id);
    assert!(out.result.is_completed());
    let st = e.status();
    assert_eq!(st.events_published, 0);
    assert_eq!(st.events_dropped, 0);
    assert_eq!(st.stats.completed, 1);
    assert_eq!(st.slots, 1);
    e.shutdown();
}

#[test]
fn ticker_emits_engine_ticks_at_cadence() {
    let e = engine(EngineConfig {
        slots: 1,
        tick_every: Some(Duration::from_millis(20)),
        ..EngineConfig::default()
    });
    let stream = e.subscribe_all().expect("bus");
    let id = e.submit(small_request(2));
    let _ = e.wait(id);
    std::thread::sleep(Duration::from_millis(60));
    let ticks = stream
        .drain()
        .into_iter()
        .filter(|ev| matches!(ev.body, RunEvent::EngineTick { .. }))
        .count();
    assert!(ticks >= 2, "expected periodic ticks, saw {ticks}");
    e.shutdown();
}
