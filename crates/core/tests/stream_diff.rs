//! Streaming differential suite (ISSUE 8): installing a live telemetry
//! sink must not change the numbers. The streamed c8L6 run must be
//! bit-identical — 0 ULPs, every prognostic field, every rank, every
//! step — to the unstreamed run *and* to the checked-in distributed
//! golden capture, while a subscriber observes every per-step event in
//! order with nothing dropped. With no sink installed, nothing is ever
//! published.

use dataflow::graph::ExpansionAttrs;
use fv3core::DistributedDycore;
use machine::RunContext;
use obs::stream::{EventBus, EventSink, RunEvent};
use validate::reference::{distributed_golden_path, distributed_seed_config, DIST_SEED_STEPS};
use validate::{compare_capture, Capture, Savepoint, Tolerances};

/// The same per-step capture `validate::capture_executed_distributed`
/// produces, but with an optional telemetry sink installed first.
fn capture_with_sink(sink: Option<EventSink>) -> Capture {
    let mut d = DistributedDycore::new(distributed_seed_config(), &ExpansionAttrs::tuned());
    if let Some(s) = sink {
        d.set_run(RunContext {
            sink: s,
            ..RunContext::default()
        });
    }
    let mut capture = Capture::default();
    for step in 0..DIST_SEED_STEPS {
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
fn streamed_run_is_bit_identical_to_unstreamed_and_golden_on_c8l6() {
    let plain = capture_with_sink(None);

    let bus = EventBus::new(1024);
    let stream = bus.subscribe_all();
    let streamed = capture_with_sink(Some(EventSink::for_request(&bus, "r1")));

    // 0 ULPs against the unstreamed run: events carry copies, never
    // borrows, so observation cannot perturb the physics.
    compare_capture(&plain, &streamed, &Tolerances::exact())
        .unwrap_or_else(|d| panic!("streamed run diverged from unstreamed: {d}"));

    // And against the checked-in golden-era numbers.
    let golden = Capture::load(&distributed_golden_path()).expect("golden data present");
    compare_capture(&golden, &streamed, &Tolerances::exact())
        .unwrap_or_else(|d| panic!("streamed run drifted from the distributed golden: {d}"));

    // The subscriber observed every per-step event, in order, with
    // nothing dropped: step indices 1..=N, seq strictly increasing.
    let events = stream.drain();
    assert_eq!(stream.dropped(), 0, "sized buffer must drop nothing");
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    let steps: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.body {
            RunEvent::StepCompleted { step, .. } => Some(step),
            _ => None,
        })
        .collect();
    let want: Vec<u64> = (1..=DIST_SEED_STEPS as u64).collect();
    assert_eq!(steps, want, "every step streamed exactly once, in order");
    for e in &events {
        assert_eq!(e.request.as_deref(), Some("r1"));
        if let RunEvent::StepCompleted { wall_seconds, .. } = e.body {
            assert!(wall_seconds > 0.0, "step wall time must be measured");
        }
    }
}

#[test]
fn without_a_sink_nothing_is_published() {
    // A bus with a live subscriber but no installed sink: running the
    // model must publish zero events — the off state is truly off.
    let bus = EventBus::new(64);
    let stream = bus.subscribe_all();
    let _ = capture_with_sink(None);
    assert_eq!(bus.events_published(), 0);
    assert_eq!(stream.len(), 0);
    assert_eq!(stream.dropped(), 0);
    // The default sink is inert: no progress mirror, no bus.
    let sink = EventSink::default();
    assert!(!sink.is_active());
    assert!(!sink.is_streaming());
    assert!(sink.progress().is_none());
}

#[test]
fn progress_only_sink_tracks_without_publishing() {
    // The engine's streaming-off mode: a progress mirror with no bus.
    let sink = EventSink::progress_only("r9");
    let mut d = DistributedDycore::new(distributed_seed_config(), &ExpansionAttrs::tuned());
    d.set_run(RunContext {
        sink: sink.clone(),
        ..RunContext::default()
    });
    d.step();
    d.step();
    let prog = sink.progress().expect("progress-only sink mirrors");
    assert_eq!(prog.steps_done, 2);
    assert!(prog.last_step_seconds > 0.0);
    assert!(sink.is_active() && !sink.is_streaming());
}
