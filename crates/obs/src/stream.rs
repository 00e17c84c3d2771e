//! `obs::stream`: the live telemetry plane — a bounded, drop-oldest
//! broadcast bus carrying typed [`RunEvent`]s while a forecast runs.
//!
//! The rest of the obs stack is report-at-end: `ForecastReport` and
//! `RUN_health.jsonl` only materialize after a request finishes. This
//! module is the streaming rung: producers (the dycore driver's step
//! loop, the supervisor, the serving engine) publish events through an
//! [`EventSink`]; consumers subscribe to an [`EventBus`] and tail the
//! run live (`forecast_serve watch`).
//!
//! Three invariants keep it safe on the hot path:
//!
//! * **Streaming off ⇒ zero cost.** A default ([`EventSink::default`])
//!   sink is one `Option` check: no events, no timestamps, no
//!   allocations. Producers carry their instrumentation points
//!   unconditionally, exactly like the global tracer.
//! * **Slow subscribers can never stall a producer.** Every subscriber
//!   owns a bounded queue; when it is full the *oldest* event is dropped
//!   and counted ([`EventStream::dropped`], [`EventBus::events_dropped`]).
//!   Publishing never blocks on a consumer.
//! * **Events carry copies, never borrows into live state.** A streamed
//!   run is bit-identical to a non-streamed run (the `stream_diff`
//!   suite in `fv3core` proves 0 ULP against the c8L6 golden).
//!
//! Events serialize one-per-line via [`Event::to_json`] (the
//! `RUN_events.jsonl` channel) and parse back with [`Event::parse`].

use crate::json;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

/// What happened. Every variant carries owned copies of its payload —
/// nothing in an event borrows into live model state.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A request entered the submission queue.
    RequestQueued {
        label: String,
        steps: u64,
        queue_depth: u64,
    },
    /// A run slot picked the request up.
    RequestStarted { queued_seconds: f64 },
    /// The request finished successfully.
    RequestCompleted { steps: u64, run_seconds: f64 },
    /// The request failed for good (supervision exhausted or panic).
    RequestFailed { step: u64, detail: String },
    /// The request was cancelled — explicitly (`cause: "requested"`) or
    /// by deadline expiry (`"deadline"`) — while queued or running.
    /// `steps_done` counts the steps that completed first (0: never
    /// started).
    RequestCancelled { cause: String, steps_done: u64 },
    /// A queued request's deadline expired before a slot picked it up;
    /// it was evicted without ever starting.
    RequestEvicted { past_deadline_seconds: f64 },
    /// The queue shed this request under overload pressure to admit
    /// higher-priority work (`lane`: the shed request's lane).
    RequestShed { lane: String },
    /// One driver step finished.
    StepCompleted { step: u64, wall_seconds: f64 },
    /// Per-step health verdict (aggregated over ranks: worst wind/CFL).
    HealthSample {
        step: u64,
        healthy: bool,
        max_wind: f64,
        cfl: f64,
    },
    /// The supervisor rolled back and is retrying a failed step.
    SupervisorRetry {
        step: u64,
        kind: String,
        retry: u32,
        backed_off: bool,
        rolled_back_to: u64,
    },
    /// A rollback basis for `step` is in place: captured, or handed to the
    /// supervisor by its caller (bytes > 0 when persisted to disk).
    CheckpointWritten { step: u64, bytes: u64 },
    /// Halo exchanges overran the stall deadline during this step.
    HaloStall { step: u64, stalls: u64 },
    /// Periodic engine snapshot: queue depth, slot occupancy, warm pool.
    EngineTick {
        queue_depth: u64,
        slots: u64,
        slots_busy: u64,
        warm_pool: u64,
        events_dropped: u64,
    },
}

impl RunEvent {
    /// Stable kind tag used as the JSON `"event"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            RunEvent::RequestQueued { .. } => "request_queued",
            RunEvent::RequestStarted { .. } => "request_started",
            RunEvent::RequestCompleted { .. } => "request_completed",
            RunEvent::RequestFailed { .. } => "request_failed",
            RunEvent::RequestCancelled { .. } => "request_cancelled",
            RunEvent::RequestEvicted { .. } => "request_evicted",
            RunEvent::RequestShed { .. } => "request_shed",
            RunEvent::StepCompleted { .. } => "step_completed",
            RunEvent::HealthSample { .. } => "health_sample",
            RunEvent::SupervisorRetry { .. } => "supervisor_retry",
            RunEvent::CheckpointWritten { .. } => "checkpoint_written",
            RunEvent::HaloStall { .. } => "halo_stall",
            RunEvent::EngineTick { .. } => "engine_tick",
        }
    }
}

/// One published event: bus-assigned sequence number, microseconds since
/// the bus epoch, the request tag (engine events are tagged `"rN"`;
/// untagged events are engine-wide), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub t_us: f64,
    pub request: Option<String>,
    pub body: RunEvent,
}

impl Event {
    /// One JSON object (no trailing newline) for `RUN_events.jsonl`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"seq\":{},\"t_us\":{}", self.seq, self.t_us);
        if let Some(r) = &self.request {
            let _ = write!(s, ",\"request\":{}", json::string(r));
        }
        let _ = write!(s, ",\"event\":\"{}\"", self.body.kind());
        match &self.body {
            RunEvent::RequestQueued {
                label,
                steps,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"label\":{},\"steps\":{steps},\"queue_depth\":{queue_depth}",
                    json::string(label)
                );
            }
            RunEvent::RequestStarted { queued_seconds } => {
                let _ = write!(s, ",\"queued_seconds\":{queued_seconds}");
            }
            RunEvent::RequestCompleted { steps, run_seconds } => {
                let _ = write!(s, ",\"steps\":{steps},\"run_seconds\":{run_seconds}");
            }
            RunEvent::RequestFailed { step, detail } => {
                let _ = write!(s, ",\"step\":{step},\"detail\":{}", json::string(detail));
            }
            RunEvent::RequestCancelled { cause, steps_done } => {
                let _ = write!(
                    s,
                    ",\"cause\":{},\"steps_done\":{steps_done}",
                    json::string(cause)
                );
            }
            RunEvent::RequestEvicted {
                past_deadline_seconds,
            } => {
                let _ = write!(s, ",\"past_deadline_seconds\":{past_deadline_seconds}");
            }
            RunEvent::RequestShed { lane } => {
                let _ = write!(s, ",\"lane\":{}", json::string(lane));
            }
            RunEvent::StepCompleted { step, wall_seconds } => {
                let _ = write!(s, ",\"step\":{step},\"wall_seconds\":{wall_seconds}");
            }
            RunEvent::HealthSample {
                step,
                healthy,
                max_wind,
                cfl,
            } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"healthy\":{healthy},\"max_wind\":{max_wind},\"cfl\":{cfl}"
                );
            }
            RunEvent::SupervisorRetry {
                step,
                kind,
                retry,
                backed_off,
                rolled_back_to,
            } => {
                let _ = write!(
                    s,
                    ",\"step\":{step},\"kind\":{},\"retry\":{retry},\"backed_off\":{backed_off},\"rolled_back_to\":{rolled_back_to}",
                    json::string(kind)
                );
            }
            RunEvent::CheckpointWritten { step, bytes } => {
                let _ = write!(s, ",\"step\":{step},\"bytes\":{bytes}");
            }
            RunEvent::HaloStall { step, stalls } => {
                let _ = write!(s, ",\"step\":{step},\"stalls\":{stalls}");
            }
            RunEvent::EngineTick {
                queue_depth,
                slots,
                slots_busy,
                warm_pool,
                events_dropped,
            } => {
                let _ = write!(
                    s,
                    ",\"queue_depth\":{queue_depth},\"slots\":{slots},\"slots_busy\":{slots_busy},\"warm_pool\":{warm_pool},\"events_dropped\":{events_dropped}"
                );
            }
        }
        s.push('}');
        s
    }

    /// Parse one `RUN_events.jsonl` line back into an [`Event`].
    pub fn parse(line: &str) -> Result<Event, String> {
        let v = json::parse(line)?;
        let seq = v
            .get("seq")
            .and_then(|x| x.as_u64())
            .ok_or("missing seq")?;
        let t_us = v
            .get("t_us")
            .and_then(|x| x.as_f64())
            .ok_or("missing t_us")?;
        let request = v
            .get("request")
            .and_then(|x| x.as_str())
            .map(str::to_string);
        let kind = v
            .get("event")
            .and_then(|x| x.as_str())
            .ok_or("missing event kind")?;
        let u = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("{kind}: missing {k}"))
        };
        let f = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("{kind}: missing {k}"))
        };
        let s = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("{kind}: missing {k}"))
        };
        let b = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_bool())
                .ok_or_else(|| format!("{kind}: missing {k}"))
        };
        let body = match kind {
            "request_queued" => RunEvent::RequestQueued {
                label: s("label")?,
                steps: u("steps")?,
                queue_depth: u("queue_depth")?,
            },
            "request_started" => RunEvent::RequestStarted {
                queued_seconds: f("queued_seconds")?,
            },
            "request_completed" => RunEvent::RequestCompleted {
                steps: u("steps")?,
                run_seconds: f("run_seconds")?,
            },
            "request_failed" => RunEvent::RequestFailed {
                step: u("step")?,
                detail: s("detail")?,
            },
            "request_cancelled" => RunEvent::RequestCancelled {
                cause: s("cause")?,
                steps_done: u("steps_done")?,
            },
            "request_evicted" => RunEvent::RequestEvicted {
                past_deadline_seconds: f("past_deadline_seconds")?,
            },
            "request_shed" => RunEvent::RequestShed { lane: s("lane")? },
            "step_completed" => RunEvent::StepCompleted {
                step: u("step")?,
                wall_seconds: f("wall_seconds")?,
            },
            "health_sample" => RunEvent::HealthSample {
                step: u("step")?,
                healthy: b("healthy")?,
                max_wind: f("max_wind")?,
                cfl: f("cfl")?,
            },
            "supervisor_retry" => RunEvent::SupervisorRetry {
                step: u("step")?,
                kind: s("kind")?,
                retry: u("retry")? as u32,
                backed_off: b("backed_off")?,
                rolled_back_to: u("rolled_back_to")?,
            },
            "checkpoint_written" => RunEvent::CheckpointWritten {
                step: u("step")?,
                bytes: u("bytes")?,
            },
            "halo_stall" => RunEvent::HaloStall {
                step: u("step")?,
                stalls: u("stalls")?,
            },
            "engine_tick" => RunEvent::EngineTick {
                queue_depth: u("queue_depth")?,
                slots: u("slots")?,
                slots_busy: u("slots_busy")?,
                warm_pool: u("warm_pool")?,
                events_dropped: u("events_dropped")?,
            },
            other => return Err(format!("unknown event kind '{other}'")),
        };
        Ok(Event {
            seq,
            t_us,
            request,
            body,
        })
    }
}

/// One subscriber's shared state: its bounded queue, its filter, and its
/// drop counter.
struct SubState {
    /// Deliver only events tagged with this request (None: everything,
    /// including untagged engine-wide events).
    filter: Option<String>,
    cap: usize,
    queue: Mutex<VecDeque<Event>>,
    cv: Condvar,
    dropped: AtomicU64,
    /// Set when the producer side closes (engine shutdown): receivers
    /// drain what is buffered, then stop waiting.
    closed: AtomicBool,
}

struct BusInner {
    epoch: Instant,
    /// Per-subscriber queue capacity.
    cap: usize,
    seq: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
    nsubs: AtomicUsize,
    subs: Mutex<Vec<Weak<SubState>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The broadcast bus. Cheap to clone (shared handle). Publishing walks
/// the live subscribers and copies the event into each matching bounded
/// queue, dropping that queue's oldest event when full — a slow (or
/// absent) subscriber never stalls the publisher.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("cap", &self.inner.cap)
            .field("published", &self.events_published())
            .field("dropped", &self.events_dropped())
            .field("subscribers", &self.inner.nsubs.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventBus {
    /// A bus whose subscribers each buffer at most `cap` events.
    pub fn new(cap: usize) -> Self {
        EventBus {
            inner: Arc::new(BusInner {
                epoch: Instant::now(),
                cap: cap.max(1),
                seq: AtomicU64::new(0),
                published: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                nsubs: AtomicUsize::new(0),
                subs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Microseconds since the bus was created (the `t_us` timebase).
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Subscribe to every event on the bus.
    pub fn subscribe_all(&self) -> EventStream {
        self.subscribe_inner(None)
    }

    /// Subscribe to events tagged with `request` only.
    pub fn subscribe(&self, request: &str) -> EventStream {
        self.subscribe_inner(Some(request.to_string()))
    }

    fn subscribe_inner(&self, filter: Option<String>) -> EventStream {
        let sub = Arc::new(SubState {
            filter,
            cap: self.inner.cap,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let mut subs = lock(&self.inner.subs);
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&sub));
        self.inner.nsubs.store(subs.len(), Ordering::Release);
        EventStream {
            state: sub,
            bus: Arc::clone(&self.inner),
        }
    }

    /// Publish one event. Non-blocking: each full subscriber queue drops
    /// its oldest event and counts it.
    pub fn publish(&self, request: Option<&str>, body: RunEvent) -> Event {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
        let request = request.map(str::to_string);
        // With subscribers, an event is numbered and stamped under their
        // lock, so every stream receives events in `seq` order whatever
        // the publishers' interleaving; with none, nothing is locked.
        let subs = (self.inner.nsubs.load(Ordering::Acquire) != 0).then(|| lock(&self.inner.subs));
        let ev = Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            t_us: self.now_us(),
            request,
            body,
        };
        let Some(mut subs) = subs else {
            return ev;
        };
        let mut pruned = false;
        subs.retain(|w| {
            let Some(sub) = w.upgrade() else {
                pruned = true;
                return false;
            };
            let wanted = match &sub.filter {
                None => true,
                Some(f) => ev.request.as_deref() == Some(f.as_str()),
            };
            if wanted {
                let mut q = lock(&sub.queue);
                if q.len() >= sub.cap {
                    q.pop_front();
                    sub.dropped.fetch_add(1, Ordering::Relaxed);
                    self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
                q.push_back(ev.clone());
                drop(q);
                sub.cv.notify_one();
            }
            true
        });
        if pruned {
            self.inner.nsubs.store(subs.len(), Ordering::Release);
        }
        ev
    }

    /// Signal end-of-stream: blocked receivers wake, drain their buffers,
    /// and then read `None`.
    pub fn close(&self) {
        let subs = lock(&self.inner.subs);
        for w in subs.iter() {
            if let Some(sub) = w.upgrade() {
                sub.closed.store(true, Ordering::Release);
                sub.cv.notify_all();
            }
        }
    }

    /// Total events published on this bus.
    pub fn events_published(&self) -> u64 {
        self.inner.published.load(Ordering::Relaxed)
    }

    /// Total events dropped across all subscribers (drop-oldest).
    pub fn events_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Live subscriber count (approximate; pruned on publish/subscribe).
    #[cfg(test)]
    fn subscriber_count(&self) -> usize {
        self.inner.nsubs.load(Ordering::Relaxed)
    }
}

/// A subscription handle: a bounded queue the bus copies events into.
/// Dropping the handle unsubscribes.
pub struct EventStream {
    state: Arc<SubState>,
    bus: Arc<BusInner>,
}

impl EventStream {
    /// Next event, waiting up to `timeout`. `None` on expiry or when the
    /// bus closed and the buffer is drained.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Event> {
        let deadline = Instant::now() + timeout;
        let mut q = lock(&self.state.queue);
        loop {
            if let Some(ev) = q.pop_front() {
                return Some(ev);
            }
            if self.state.closed.load(Ordering::Acquire) {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (g, _) = self
                .state
                .cv
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            q = g;
        }
    }

    /// Take every buffered event.
    pub fn drain(&self) -> Vec<Event> {
        lock(&self.state.queue).drain(..).collect()
    }

    /// Events dropped from *this* subscriber's queue (drop-oldest).
    pub fn dropped(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }

    /// Buffered (undelivered) events right now.
    pub fn len(&self) -> usize {
        lock(&self.state.queue).len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer side closed the bus.
    pub fn closed(&self) -> bool {
        self.state.closed.load(Ordering::Acquire)
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        let mut subs = lock(&self.bus.subs);
        let me = Arc::as_ptr(&self.state);
        subs.retain(|w| {
            w.upgrade()
                .is_some_and(|s| !std::ptr::eq(Arc::as_ptr(&s), me))
        });
        self.bus.nsubs.store(subs.len(), Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Producer side: the sink installed on drivers and supervisors.

/// Live progress mirror a serving engine reads for
/// [`status`](EventSink::progress) snapshots — updated by the producer on
/// every step regardless of whether anyone subscribed.
struct SinkShared {
    bus: Option<EventBus>,
    /// Request tag stamped on every event this sink publishes.
    request: Option<String>,
    steps_done: AtomicU64,
    /// f64 bits of the last step's wall seconds.
    last_step_us: AtomicU64,
    /// 0 = no verdict yet, 1 = healthy, 2 = unhealthy.
    last_healthy: AtomicU8,
}

/// Live per-request progress, read from [`EventSink::progress`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamProgress {
    /// Driver steps completed so far.
    pub steps_done: u64,
    /// Wall seconds of the most recent step (0 before the first).
    pub last_step_seconds: f64,
    /// Latest health verdict, if a supervisor sampled one.
    pub last_healthy: Option<bool>,
}

/// The producer handle carried by `fv3core`'s driver and
/// `resilience`'s supervisor. The default sink is *off*: one `Option`
/// check, no events, no timestamps, no allocations — the
/// zero-cost-when-off guarantee of the telemetry plane.
#[derive(Clone, Default)]
pub struct EventSink {
    shared: Option<Arc<SinkShared>>,
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            None => f.write_str("EventSink(off)"),
            Some(s) => f
                .debug_struct("EventSink")
                .field("request", &s.request)
                .field("streaming", &s.bus.is_some())
                .finish(),
        }
    }
}

impl EventSink {
    /// A sink that publishes to `bus`, untagged.
    pub fn new(bus: &EventBus) -> Self {
        Self::build(Some(bus.clone()), None)
    }

    /// A sink that publishes to `bus`, tagging every event with
    /// `request` (the engine's `"rN"` ids).
    pub fn for_request(bus: &EventBus, request: &str) -> Self {
        Self::build(Some(bus.clone()), Some(request.to_string()))
    }

    /// A sink that tracks progress ([`progress`](Self::progress)) but
    /// publishes nothing — a serving engine with streaming disabled still
    /// gets live status snapshots.
    pub fn progress_only(request: &str) -> Self {
        Self::build(None, Some(request.to_string()))
    }

    fn build(bus: Option<EventBus>, request: Option<String>) -> Self {
        EventSink {
            shared: Some(Arc::new(SinkShared {
                bus,
                request,
                steps_done: AtomicU64::new(0),
                last_step_us: AtomicU64::new(0f64.to_bits()),
                last_healthy: AtomicU8::new(0),
            })),
        }
    }

    /// True when the sink is installed at all (progress tracking on).
    /// Producers gate their timestamping on this.
    pub fn is_active(&self) -> bool {
        self.shared.is_some()
    }

    /// True when events actually reach a bus.
    pub fn is_streaming(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.bus.is_some())
    }

    /// The request tag, if any.
    pub fn request(&self) -> Option<&str> {
        self.shared.as_ref().and_then(|s| s.request.as_deref())
    }

    /// Publish `body` (tagged with this sink's request). No-op when off.
    pub fn emit(&self, body: RunEvent) {
        if let Some(s) = &self.shared {
            if let Some(bus) = &s.bus {
                bus.publish(s.request.as_deref(), body);
            }
        }
    }

    /// Record one completed step: bumps the live progress mirror, then
    /// publishes [`RunEvent::StepCompleted`].
    pub fn step_completed(&self, step: u64, wall_seconds: f64) {
        if let Some(s) = &self.shared {
            s.steps_done.store(step, Ordering::Release);
            s.last_step_us
                .store(wall_seconds.to_bits(), Ordering::Relaxed);
            if let Some(bus) = &s.bus {
                bus.publish(
                    s.request.as_deref(),
                    RunEvent::StepCompleted { step, wall_seconds },
                );
            }
        }
    }

    /// Record one per-step health verdict: updates the progress mirror,
    /// then publishes [`RunEvent::HealthSample`].
    pub fn health_sample(&self, step: u64, healthy: bool, max_wind: f64, cfl: f64) {
        if let Some(s) = &self.shared {
            s.last_healthy
                .store(if healthy { 1 } else { 2 }, Ordering::Release);
            if let Some(bus) = &s.bus {
                bus.publish(
                    s.request.as_deref(),
                    RunEvent::HealthSample {
                        step,
                        healthy,
                        max_wind,
                        cfl,
                    },
                );
            }
        }
    }

    /// The live progress mirror (None when the sink is off).
    pub fn progress(&self) -> Option<StreamProgress> {
        self.shared.as_ref().map(|s| StreamProgress {
            steps_done: s.steps_done.load(Ordering::Acquire),
            last_step_seconds: f64::from_bits(s.last_step_us.load(Ordering::Relaxed)),
            last_healthy: match s.last_healthy.load(Ordering::Acquire) {
                1 => Some(true),
                2 => Some(false),
                _ => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n: u64) -> RunEvent {
        RunEvent::StepCompleted {
            step: n,
            wall_seconds: 0.001 * n as f64,
        }
    }

    #[test]
    fn broadcast_reaches_every_subscriber_in_order() {
        let bus = EventBus::new(64);
        let a = bus.subscribe_all();
        let b = bus.subscribe_all();
        for n in 0..5 {
            bus.publish(None, step(n));
        }
        for sub in [&a, &b] {
            let got = sub.drain();
            assert_eq!(got.len(), 5);
            for (i, ev) in got.iter().enumerate() {
                assert_eq!(ev.seq, i as u64);
                assert_eq!(ev.body, step(i as u64));
            }
            assert_eq!(sub.dropped(), 0);
        }
        assert_eq!(bus.events_published(), 5);
        assert_eq!(bus.events_dropped(), 0);
    }

    #[test]
    fn full_subscriber_drops_oldest_and_counts() {
        let bus = EventBus::new(3);
        let sub = bus.subscribe_all();
        for n in 0..10 {
            bus.publish(None, step(n));
        }
        assert_eq!(sub.dropped(), 7);
        assert_eq!(bus.events_dropped(), 7);
        let got = sub.drain();
        // Drop-oldest: the newest `cap` events survive.
        assert_eq!(
            got.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn request_filter_selects_tagged_events_only() {
        let bus = EventBus::new(16);
        let mine = bus.subscribe("r1");
        let all = bus.subscribe_all();
        bus.publish(Some("r1"), step(0));
        bus.publish(Some("r2"), step(1));
        bus.publish(None, step(2));
        let got = mine.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].request.as_deref(), Some("r1"));
        assert_eq!(all.drain().len(), 3);
    }

    #[test]
    fn publish_without_subscribers_is_counted_but_unbuffered() {
        let bus = EventBus::new(4);
        bus.publish(None, step(0));
        assert_eq!(bus.events_published(), 1);
        assert_eq!(bus.subscriber_count(), 0);
        // A late subscriber sees only what is published after it joins.
        let sub = bus.subscribe_all();
        bus.publish(None, step(1));
        let got = sub.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body, step(1));
    }

    #[test]
    fn dropped_stream_unsubscribes() {
        let bus = EventBus::new(4);
        let sub = bus.subscribe_all();
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        bus.publish(None, step(0));
        assert_eq!(bus.events_dropped(), 0);
    }

    #[test]
    fn close_wakes_blocked_receivers_after_drain() {
        let bus = EventBus::new(4);
        let sub = bus.subscribe_all();
        bus.publish(None, step(0));
        bus.close();
        // Buffered event still delivered, then end-of-stream.
        assert!(sub.next_timeout(Duration::from_secs(5)).is_some());
        assert!(sub.next_timeout(Duration::from_secs(5)).is_none());
        assert!(sub.closed());
    }

    #[test]
    fn blocking_receive_sees_events_from_another_thread() {
        let bus = EventBus::new(16);
        let sub = bus.subscribe_all();
        let pb = bus.clone();
        let t = std::thread::spawn(move || {
            for n in 0..3 {
                pb.publish(Some("r9"), step(n));
            }
            pb.close();
        });
        let mut got = Vec::new();
        while let Some(ev) = sub.next_timeout(Duration::from_secs(10)) {
            got.push(ev);
        }
        t.join().unwrap();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|e| e.request.as_deref() == Some("r9")));
    }

    /// Long enough runs that the publishers overlap (500 events are over
    /// before the next thread starts): numbered outside the subscriber
    /// lock, every hand-over of the lock delivered an inversion.
    #[test]
    fn concurrent_publishers_deliver_in_seq_order() {
        const EACH: u64 = 20_000;
        let bus = EventBus::new(4 * EACH as usize);
        let sub = bus.subscribe_all();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| (0..EACH).for_each(|n| drop(bus.publish(None, step(n)))));
            }
        });
        let seqs: Vec<u64> = sub.drain().iter().map(|e| e.seq).collect();
        assert_eq!((seqs.len() as u64, sub.dropped()), (4 * EACH, 0));
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "delivered out of seq order");
    }

    #[test]
    fn jsonl_codec_round_trips_every_variant() {
        let bodies = vec![
            RunEvent::RequestQueued {
                label: "load-1 \"q\"".into(),
                steps: 4,
                queue_depth: 2,
            },
            RunEvent::RequestStarted {
                queued_seconds: 0.125,
            },
            RunEvent::RequestCompleted {
                steps: 4,
                run_seconds: 1.5,
            },
            RunEvent::RequestFailed {
                step: 3,
                detail: "blowup in pt".into(),
            },
            RunEvent::RequestCancelled {
                cause: "deadline".into(),
                steps_done: 2,
            },
            RunEvent::RequestEvicted {
                past_deadline_seconds: 0.75,
            },
            RunEvent::RequestShed {
                lane: "batch".into(),
            },
            RunEvent::StepCompleted {
                step: 2,
                wall_seconds: 0.25,
            },
            RunEvent::HealthSample {
                step: 2,
                healthy: false,
                max_wind: 98.5,
                cfl: 1.25,
            },
            RunEvent::SupervisorRetry {
                step: 3,
                kind: "blowup".into(),
                retry: 2,
                backed_off: true,
                rolled_back_to: 2,
            },
            RunEvent::CheckpointWritten { step: 2, bytes: 4096 },
            RunEvent::HaloStall { step: 1, stalls: 3 },
            RunEvent::EngineTick {
                queue_depth: 5,
                slots: 4,
                slots_busy: 3,
                warm_pool: 2,
                events_dropped: 0,
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let ev = Event {
                seq: i as u64,
                t_us: 1234.5,
                request: if i % 2 == 0 { Some(format!("r{i}")) } else { None },
                body,
            };
            let line = ev.to_json();
            let back = Event::parse(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev, "round-trip mismatch for {line}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Event::parse("{}").is_err());
        assert!(Event::parse("{\"seq\":0,\"t_us\":1,\"event\":\"nope\"}").is_err());
        assert!(
            Event::parse("{\"seq\":0,\"t_us\":1,\"event\":\"step_completed\"}").is_err(),
            "missing payload fields must be rejected"
        );
    }

    #[test]
    fn off_sink_is_inert_and_progressless() {
        let sink = EventSink::default();
        assert!(!sink.is_active());
        assert!(!sink.is_streaming());
        sink.step_completed(1, 0.5);
        sink.emit(step(1));
        assert!(sink.progress().is_none());
    }

    #[test]
    fn sink_mirrors_progress_and_tags_events() {
        let bus = EventBus::new(16);
        let sub = bus.subscribe("r7");
        let sink = EventSink::for_request(&bus, "r7");
        sink.step_completed(1, 0.25);
        sink.health_sample(1, true, 12.0, 0.1);
        sink.step_completed(2, 0.5);
        let p = sink.progress().unwrap();
        assert_eq!(p.steps_done, 2);
        assert_eq!(p.last_step_seconds, 0.5);
        assert_eq!(p.last_healthy, Some(true));
        let got = sub.drain();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|e| e.request.as_deref() == Some("r7")));
        assert_eq!(
            got.iter().map(|e| e.body.kind()).collect::<Vec<_>>(),
            vec!["step_completed", "health_sample", "step_completed"]
        );
    }

    #[test]
    fn progress_only_sink_tracks_without_publishing() {
        let sink = EventSink::progress_only("r3");
        assert!(sink.is_active());
        assert!(!sink.is_streaming());
        sink.step_completed(5, 0.1);
        sink.health_sample(5, false, 300.0, 2.0);
        let p = sink.progress().unwrap();
        assert_eq!(p.steps_done, 5);
        assert_eq!(p.last_healthy, Some(false));
    }
}
