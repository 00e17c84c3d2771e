//! The admission shell, threaded: each semantic wired end to end through
//! real slots, counters and the event stream. The rules themselves —
//! lanes, quotas, shedding, deadlines, cancel, one terminal each — are
//! enumerated exhaustively in `src/admission.rs`; here a single run slot
//! is plugged with a request that never finishes, so what queues behind
//! it is observed at leisure, and released with `cancel`. Every wait is
//! on an event or an outcome, never on a sleep.

use engine::{
    EngineConfig, ForecastEngine, ForecastRequest, ForecastResult, Priority, Rejected, RequestId,
    SubmitOptions,
};
use machine::cancel::CancelCause;
use obs::stream::RunEvent;
use std::time::Duration;

/// Hitting this means a hang, not a slow machine.
const DEADLINE: Duration = Duration::from_secs(120);

/// A step budget no test machine finishes before the test cancels it.
const FOREVER: u64 = 100_000;

/// One slot, warmed up: the case's compile bill is paid, so cancellation
/// below interrupts stepping, not compilation.
fn engine(cfg: EngineConfig) -> ForecastEngine {
    let engine = ForecastEngine::start(EngineConfig { slots: 1, ..cfg });
    let warm = engine.submit(ForecastRequest::c8l6(1).with_label("warmup"));
    engine.wait(warm).result.expect("warmup");
    engine
}

fn req(label: &str) -> ForecastRequest {
    ForecastRequest::c8l6(1).with_label(label)
}

/// Submit and return once a slot has started the request.
fn start(engine: &ForecastEngine, req: ForecastRequest, opts: SubmitOptions) -> RequestId {
    let events = engine.subscribe_all().expect("streaming engine has a bus");
    let id = engine.submit_with(req, opts);
    loop {
        let ev = events
            .next_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("{id} never took a slot"));
        if ev.request == Some(id.to_string()) && matches!(ev.body, RunEvent::RequestStarted { .. })
        {
            return id;
        }
    }
}

/// Occupy the only slot until cancelled.
fn plug(engine: &ForecastEngine) -> RequestId {
    let forever = ForecastRequest::c8l6(FOREVER).with_label("plug");
    start(engine, forever, SubmitOptions::default())
}

fn unplug(engine: &ForecastEngine, plug: RequestId) {
    assert!(engine.cancel(plug), "the plug is running");
    engine.wait(plug);
}

fn shed_lane(engine: &ForecastEngine, id: RequestId) -> Priority {
    match engine.wait(id).result {
        ForecastResult::Shed { lane } => lane,
        other => panic!("expected shed, got '{}'", other.terminal()),
    }
}

#[test]
fn cancel_running_request_releases_slot_and_keeps_partial_progress() {
    let engine = engine(EngineConfig::default());
    let id = plug(&engine);
    assert!(engine.cancel(id), "a running request has a live token");
    let c = match engine.wait(id).result {
        ForecastResult::Cancelled(c) => c,
        other => panic!("expected cancelled, got '{}'", other.terminal()),
    };
    assert_eq!(c.cause, CancelCause::Requested);
    let run = c.run.expect("a mid-run cancel keeps the partial report");
    assert_eq!(run.steps, c.steps_done, "partial report counts completed steps");
    assert!(c.steps_done < FOREVER, "the budget was never reachable");
    assert_eq!(run.cancelled, Some(CancelCause::Requested));

    // The slot is released and nothing downstream is poisoned: a
    // follow-up request completes clean on the shared compile bundle.
    let after = engine.submit(ForecastRequest::c8l6(2).with_label("after"));
    let rep = engine.wait(after).result.expect("request after a cancel");
    assert_eq!(rep.cache_misses, 0, "the shared bundle survives the discard");
    assert!(rep.run.clean(), "no recovery events leak from a cancelled tenant");

    // A terminal id has no token left to fire.
    assert!(!engine.cancel(id), "cancel after the terminal is a no-op");

    let stats = engine.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 2, "warmup + follow-up");
    assert_eq!(stats.failed, 0, "cancellation is not a failure");
}

#[test]
fn cancel_queued_request_finalizes_without_waiting_for_a_slot() {
    let engine = engine(EngineConfig::default());
    let plug_id = plug(&engine);
    let victim = engine.submit(req("victim"));
    assert_eq!(engine.queue_depth(), 1);
    assert!(engine.cancel(victim));
    let out = engine
        .wait_timeout(victim, DEADLINE)
        .expect("resolved while the plug holds the slot");
    match out.result {
        ForecastResult::Cancelled(c) => {
            assert_eq!(c.cause, CancelCause::Requested);
            assert_eq!(c.steps_done, 0);
            assert!(c.run.is_none(), "never started, so no partial report");
        }
        other => panic!("expected cancelled, got '{}'", other.terminal()),
    }
    assert_eq!(out.run_seconds, 0.0, "no slot time was spent");
    assert!(
        engine.status().running.iter().any(|r| r.id == plug_id),
        "the plug kept its slot throughout"
    );
    assert_eq!(engine.queue_depth(), 0);
    unplug(&engine, plug_id);
    assert_eq!(engine.shutdown().cancelled, 2);
}

#[test]
fn expired_deadline_evicts_queued_request_without_starting_it() {
    let engine = engine(EngineConfig::default());
    let plug_id = plug(&engine);
    // A zero budget has lapsed by the time any slot looks at it.
    let expiring = SubmitOptions::default().deadline(Duration::ZERO);
    let id = engine.submit_with(req("expiring"), expiring);
    unplug(&engine, plug_id);
    let out = engine.wait(id);
    match out.result {
        ForecastResult::Evicted {
            past_deadline_seconds,
        } => assert!(past_deadline_seconds > 0.0, "eviction reports how late"),
        other => panic!("expected evicted, got '{}'", other.terminal()),
    }
    assert_eq!(out.run_seconds, 0.0, "an evicted request never ran");
    let stats = engine.shutdown();
    assert_eq!(stats.evicted, 1);
    assert_eq!(stats.failed, 0, "eviction is not a failure");
}

#[test]
fn deadline_cancels_running_request_at_a_step_boundary() {
    let engine = engine(EngineConfig::default());
    let id = engine.submit_with(
        ForecastRequest::c8l6(FOREVER).with_label("budgeted"),
        SubmitOptions::default().deadline(Duration::from_millis(300)),
    );
    match engine.wait(id).result {
        ForecastResult::Cancelled(c) => {
            assert_eq!(c.cause, CancelCause::Deadline);
            assert!(c.steps_done < FOREVER);
            assert!(c.run.is_some(), "the deadline fired mid-run, not in the queue");
        }
        other => panic!("expected a deadline cancel, got '{}'", other.terminal()),
    }
    assert_eq!(engine.shutdown().cancelled, 1);
}

#[test]
fn high_lane_overtakes_normal_and_batch() {
    let engine = engine(EngineConfig {
        stream_buffer: 4096,
        ..EngineConfig::default()
    });
    let stream = engine.subscribe_all().expect("streaming engine has a bus");
    let plug_id = plug(&engine);
    // Arrival order is the inverse of lane order.
    let lane = |p| SubmitOptions::default().priority(p);
    let batch = engine.submit_with(req("batch"), lane(Priority::Batch));
    let normal = engine.submit(req("normal"));
    let high = engine.submit_with(req("high"), lane(Priority::High));
    let st = engine.status();
    assert_eq!((st.stats.lane_depths, st.stats.queue_depth), ([1, 1, 1], 3));
    let queued: Vec<RequestId> = st.queued.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        queued,
        [high, normal, batch],
        "status lists scheduling order"
    );

    unplug(&engine, plug_id);
    for id in [batch, normal, high] {
        engine.wait(id).result.expect("drained request");
    }
    let started: Vec<String> = stream
        .drain()
        .into_iter()
        .filter(|ev| matches!(ev.body, RunEvent::RequestStarted { .. }))
        .filter_map(|ev| ev.request)
        .collect();
    let expect: Vec<String> = [plug_id, high, normal, batch]
        .iter()
        .map(|id| id.to_string())
        .collect();
    assert_eq!(started, expect, "lanes must be served High > Normal > Batch");
    engine.shutdown();
}

#[test]
fn tenant_quota_caps_inflight_plus_queued_and_releases_on_terminal() {
    let engine = engine(EngineConfig {
        tenant_cap: Some(2),
        ..EngineConfig::default()
    });
    let acme = || SubmitOptions::default().tenant("acme");
    // Running work counts against the cap, not just queued work.
    let plug_id = start(
        &engine,
        ForecastRequest::c8l6(FOREVER).with_label("acme-plug"),
        acme(),
    );
    let queued = engine.submit_with(req("acme-queued"), acme());
    match engine.try_submit_with(req("acme-over"), acme()) {
        Err(Rejected::QuotaExceeded { tenant, req }) => {
            assert_eq!(tenant, "acme");
            assert_eq!(req.label, "acme-over", "the refused request is handed back");
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    let rival = SubmitOptions::default().tenant("rival");
    let other = engine
        .try_submit_with(req("rival"), rival)
        .expect("rival has its own cap");
    let tenants = engine.status().tenants;
    assert_eq!(tenants, [("acme".to_string(), 2), ("rival".to_string(), 1)]);

    // A terminal releases occupancy.
    unplug(&engine, plug_id);
    let retry = engine
        .try_submit_with(req("acme-retry"), acme())
        .expect("quota released");
    for id in [queued, other, retry] {
        engine.wait(id).result.expect("admitted request completes");
    }
    assert!(engine.status().tenants.is_empty(), "all occupancy released");
    assert_eq!(engine.shutdown().rejected, 1);
}

#[test]
fn overload_sheds_newest_batch_first_and_never_sheds_own_lane() {
    let engine = engine(EngineConfig {
        queue_cap: 2,
        ..EngineConfig::default()
    });
    let plug_id = plug(&engine);
    let lane = |p| SubmitOptions::default().priority(p);
    let b0 = engine.submit_with(req("b0"), lane(Priority::Batch));
    let b1 = engine.submit_with(req("b1"), lane(Priority::Batch));
    // Normal into the full queue sheds the newest Batch, then the older.
    let n0 = engine
        .try_submit_with(req("n0"), lane(Priority::Normal))
        .expect("admitted by shedding");
    assert_eq!(shed_lane(&engine, b1), Priority::Batch);
    let n1 = engine
        .try_submit_with(req("n1"), lane(Priority::Normal))
        .expect("admitted by shedding");
    assert_eq!(shed_lane(&engine, b0), Priority::Batch);
    // Full of Normal: Normal cannot shed its own lane, Batch has nothing below.
    for (label, p) in [("n2", Priority::Normal), ("b2", Priority::Batch)] {
        match engine.try_submit_with(req(label), lane(p)) {
            Err(Rejected::QueueFull(req)) => assert_eq!(req.label, label),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }
    // High still gets in: it sheds the newest Normal.
    let h0 = engine
        .try_submit_with(req("h0"), lane(Priority::High))
        .expect("High sheds Normal");
    assert_eq!(shed_lane(&engine, n1), Priority::Normal);

    unplug(&engine, plug_id);
    engine.wait(n0).result.expect("surviving normal request");
    engine.wait(h0).result.expect("high request");
    let stats = engine.shutdown();
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.failed, 0, "shedding is not a failure");
}

/// An expired `wait_timeout` leaves the outcome claimable; once claimed,
/// a further wait finds nothing, at once.
#[test]
fn expired_wait_timeout_leaves_the_outcome_claimable() {
    let engine = engine(EngineConfig::default());
    let plug_id = plug(&engine);
    let id = engine.submit(req("slow"));
    assert!(
        engine.wait_timeout(id, Duration::from_millis(30)).is_none(),
        "the request cannot finish while the slot is plugged"
    );
    unplug(&engine, plug_id);
    let out = engine
        .wait_timeout(id, DEADLINE)
        .expect("outcome claimable after an expired wait");
    out.result.expect("request completes once the plug is gone");
    assert!(engine.wait_timeout(id, DEADLINE).is_none(), "taken exactly once");
    engine.shutdown();
}

/// `EngineStats::rejected` counts each refusal once; the `Rejected`
/// value says why.
#[test]
fn rejections_count_exactly_once_per_refusal() {
    let engine = engine(EngineConfig {
        queue_cap: 1,
        tenant_cap: Some(1),
        ..EngineConfig::default()
    });
    assert_eq!(engine.stats().rejected, 0);
    let t = || SubmitOptions::default().tenant("t");
    let plug_id = start(
        &engine,
        ForecastRequest::c8l6(FOREVER).with_label("t-plug"),
        t(),
    );
    // Quota is checked before queue capacity.
    let over = engine.try_submit_with(req("t-over"), t());
    assert!(matches!(over, Err(Rejected::QuotaExceeded { .. })));
    assert_eq!(engine.stats().rejected, 1);
    let batch = || SubmitOptions::default().priority(Priority::Batch);
    let filler = engine.submit_with(req("filler"), batch());
    let full = engine.try_submit_with(req("refused"), batch());
    assert!(matches!(full, Err(Rejected::QueueFull(_))));
    assert_eq!(engine.stats().rejected, 2);

    unplug(&engine, plug_id);
    engine.wait(filler).result.expect("admitted filler completes");
    let stats = engine.shutdown();
    assert_eq!(stats.rejected, 2, "refusals never double-count");
    assert_eq!(stats.submitted, stats.completed + stats.cancelled);
}
