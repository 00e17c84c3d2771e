//! Forecast-as-a-service: a persistent multi-tenant run engine.
//!
//! The one-shot binaries pay the whole productivity-infrastructure bill
//! — program build, library expansion, kernel compilation, grid
//! computation — for exactly one forecast. [`ForecastEngine`] amortizes
//! it the way the paper's compiled-backend story intends: a long-lived
//! process accepts [`ForecastRequest`]s on a submission queue, schedules
//! them across a bounded set of *run slots* (one OS thread each), and
//! shares per-(scenario, config) machinery across tenants:
//!
//! * **one compiled program instance** — a
//!   [`fv3core::CompiledSubstep`] bundle per case, so every tenant runs
//!   the *same* `Sdfg` (one `(uid, generation)` cache namespace) through
//!   the same pinned executors. Request N+1 pays zero kernel
//!   compilation; the engine's `kernel_cache_{hits,misses}` counters
//!   prove it per request.
//! * **one grid-metadata set** — per-rank [`fv3::grid::Grid`]s behind an
//!   `Arc`, computed once per case.
//! * **one worker team** — every slot's kernels drain through the shared
//!   [`machine::pool::Pool`]; its region lock is the admission control
//!   that keeps concurrent tenants from oversubscribing the host.
//! * **warm instances** — completed tenants park their
//!   [`DistributedDycore`] (grids, halo updater, mailboxes) in a bounded
//!   per-case pool; the next request rewinds it to the step-0 template
//!   checkpoint instead of rebuilding, which is bit-identical to a fresh
//!   build (`tests/multi_tenant.rs`).
//!
//! **Isolation.** Each request runs under its own
//! [`resilience::Supervisor`]: a tenant that blows up rolls back and
//! retries within its own instance, and a tenant that fails for good is
//! *discarded* — its outcome carries a
//! [`SupervisedError`](resilience::SupervisedError) tagged with its
//! [`RequestId`], its neighbours never observe the fault, and the shared
//! compile bundle (held by `Arc`) survives the discard
//! (`tests/fault_isolation.rs`).
//!
//! **Observability.** The engine owns a [`MetricsRegistry`]: aggregate
//! counters (`requests_{submitted,started,completed,failed}`,
//! `kernel_cache_{hits,misses}`, `warm_acquires`, `cold_builds`) plus
//! per-request series labelled `request="rN"`. Each request runs under
//! its own [`RunContext`] — request id, cancel token, event sink, its
//! scope of [`EngineConfig::faults`], [`EngineConfig::tracer`] — so its
//! `request` span encloses its own `driver_step` / `rank` / `kernel`
//! spans and nobody else's, and it returns its full per-step health
//! history and final field snapshot in the [`ForecastReport`].
//!
//! **Admission.** Lanes, quotas, shedding, deadlines, cancellation and
//! the five terminals are one value, `admission::Admission`, behind the
//! engine's one request lock; its transitions are pure and take the clock
//! as an argument. This file is the thread shell around it: it reads the
//! clock, runs requests on the slots, and counts, publishes and wakes on
//! what each transition returns.

mod admission;
mod api;

pub use api::{
    CancelledRun, EngineConfig, EngineFailure, EngineStats, EngineStatus, ForecastOutcome,
    ForecastReport, ForecastRequest, ForecastResult, Priority, Rejected, RequestId,
    RequestProgress, Scenario, SubmitOptions,
};

use admission::{Admission, Admitted, Cancel, Job, Pop};
use dataflow::graph::ExpansionAttrs;
use fv3core::{Checkpoint, CompiledSubstep, DistributedDycore};
use machine::cancel::CancelCause;
use machine::pool::Pool;
use machine::{Faults, RunConfig, RunContext};
use obs::stream::{EventBus, EventSink, EventStream, RunEvent};
use obs::MetricsRegistry;
use resilience::{Supervisor, SupervisorPolicy};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that must agree for two requests to share one compile
/// bundle, grid set, and warm-instance pool. Floats are keyed by bits
/// (the same discipline as the driver's internal step key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CaseKey {
    scenario: Scenario,
    tile_n: usize,
    rt: usize,
    nk: usize,
    n_split: u32,
    k_split: u32,
    dt: u64,
    dddmp: u64,
    nord4: Option<u64>,
}

impl CaseKey {
    fn of(req: &ForecastRequest) -> Self {
        let c = req.config;
        CaseKey {
            scenario: req.scenario,
            tile_n: c.tile_n,
            rt: c.rt,
            nk: c.nk,
            n_split: c.dycore.n_split,
            k_split: c.dycore.k_split,
            dt: c.dycore.dt.to_bits(),
            dddmp: c.dycore.dddmp.to_bits(),
            nord4: c.dycore.nord4_damp.map(f64::to_bits),
        }
    }
}

/// Per-case shared machinery plus the warm-instance pool.
struct CaseCache {
    substep: Arc<CompiledSubstep>,
    grids: Option<Arc<Vec<fv3::grid::Grid>>>,
    /// Step-0 template; rewinding a warm instance through it is
    /// bit-identical to a fresh build.
    reset: Option<Checkpoint>,
    warm: Vec<DistributedDycore>,
}

struct EngineInner {
    warm_cap: usize,
    policy: SupervisorPolicy,
    pool: Pool,
    /// Rank schedule, tuning and team size of every instance this engine
    /// builds: the environment as it was when the engine started.
    run: RunConfig,
    /// [`EngineConfig::faults`], armed (inert without one).
    faults: Faults,
    tracer: Option<obs::Tracer>,
    /// Every request's state: the engine's one request lock.
    admission: Mutex<Admission>,
    /// Whoever waits on request state waits here — slots for work,
    /// blocking submitters for room, `wait` for an outcome — and every
    /// transition wakes them all to re-check.
    changed: Condvar,
    /// The ticker waits here for its period or for shutdown.
    tick_cv: Condvar,
    cases: Mutex<HashMap<CaseKey, CaseCache>>,
    metrics: MetricsRegistry,
    /// The live telemetry bus (`None`: streaming disabled — nothing is
    /// ever published and runs pay zero event cost).
    bus: Option<EventBus>,
    /// Total run slots.
    slots_n: usize,
}

impl EngineInner {
    /// Warm instances parked across all cases right now.
    fn warm_pool_size(&self) -> usize {
        lock(&self.cases).values().map(|c| c.warm.len()).sum()
    }

    /// A request's telemetry sink: streams to the bus when the engine has
    /// one, and keeps the progress mirror `status()` reads either way.
    fn sink(&self, id: RequestId) -> EventSink {
        match &self.bus {
            Some(bus) => EventSink::for_request(bus, &id.to_string()),
            None => EventSink::progress_only(&id.to_string()),
        }
    }

    /// Publish one engine-wide tick snapshot (no-op when streaming is
    /// off). Called after request transitions, without the request lock,
    /// and by the tick thread.
    fn emit_tick(&self) {
        let Some(bus) = &self.bus else { return };
        let (queued, busy) = lock(&self.admission).occupancy();
        let tick = RunEvent::EngineTick {
            queue_depth: queued as u64,
            slots: self.slots_n as u64,
            slots_busy: busy as u64,
            warm_pool: self.warm_pool_size() as u64,
            events_dropped: bus.events_dropped(),
        };
        bus.publish(None, tick);
    }

    /// What a terminal owes the outside besides its deposit: the
    /// `requests_<terminal>` counter, a labelled counter or histogram, and
    /// the event. `steps_done` is how far a run that failed got. Called
    /// before the outcome can be taken, so a waiter that has it sees it
    /// counted.
    fn account(&self, o: &ForecastOutcome, steps_done: u64) {
        let m = &self.metrics;
        let rid = o.id.to_string();
        m.counter_add(&format!("requests_{}", o.result.terminal()), &[], 1);
        let event = match &o.result {
            ForecastResult::Completed(rep) => {
                m.observe("request_run_seconds", &[], o.run_seconds);
                m.counter_add("request_steps", &[("request", &rid)], rep.steps);
                RunEvent::RequestCompleted {
                    steps: rep.steps,
                    run_seconds: o.run_seconds,
                }
            }
            ForecastResult::Failed(e) => {
                m.counter_add("request_failed", &[("request", &rid)], 1);
                RunEvent::RequestFailed {
                    step: steps_done,
                    detail: e.to_string(),
                }
            }
            ForecastResult::Cancelled(c) => {
                m.counter_add("requests_cancelled", &[("cause", c.cause.label())], 1);
                RunEvent::RequestCancelled {
                    cause: c.cause.label().to_string(),
                    steps_done: c.steps_done,
                }
            }
            ForecastResult::Evicted {
                past_deadline_seconds: late,
            } => {
                m.observe("eviction_past_deadline_seconds", &[], *late);
                RunEvent::RequestEvicted {
                    past_deadline_seconds: *late,
                }
            }
            ForecastResult::Shed { lane } => {
                m.counter_add("requests_shed", &[("lane", lane.label())], 1);
                RunEvent::RequestShed {
                    lane: lane.label().to_string(),
                }
            }
        };
        if let Some(bus) = &self.bus {
            bus.publish(Some(&rid), event);
        }
    }

    /// A terminal was deposited: wake its waiter and any submitter its
    /// queue room or tenant quota admits, and tick. Without the lock.
    fn settled(&self) {
        self.changed.notify_all();
        self.emit_tick();
    }
}

/// The persistent multi-tenant run engine. See the crate docs.
pub struct ForecastEngine {
    inner: Arc<EngineInner>,
    slots: Vec<JoinHandle<()>>,
    /// Periodic [`RunEvent::EngineTick`] emitter (only when
    /// `tick_every` is set and streaming is on).
    ticker: Option<JoinHandle<()>>,
}

impl ForecastEngine {
    /// Start the engine: read the environment once
    /// ([`RunConfig::from_env`] — no request re-reads it), arm
    /// [`EngineConfig::faults`], spawn the run slots.
    pub fn start(cfg: EngineConfig) -> Self {
        let run = RunConfig::from_env();
        let pool = cfg.pool.unwrap_or_else(|| Pool::new(run.host_workers()));
        let slots_n = cfg.slots.max(1);
        let inner = Arc::new(EngineInner {
            warm_cap: cfg.warm_cap,
            policy: cfg.policy,
            pool,
            run,
            faults: cfg.faults.map_or_else(Faults::inert, |p| p.arm()),
            tracer: cfg.tracer,
            admission: Mutex::new(Admission::new(cfg.queue_cap, cfg.tenant_cap)),
            changed: Condvar::new(),
            tick_cv: Condvar::new(),
            cases: Mutex::new(HashMap::new()),
            metrics: MetricsRegistry::new(),
            bus: cfg.streaming.then(|| EventBus::new(cfg.stream_buffer)),
            slots_n,
        });
        // Pre-register every aggregate counter (at 0) so the exported
        // series set is the same for an idle, a failure-free, and a
        // fully exercised engine — consumers never special-case absence.
        for name in [
            "requests_submitted",
            "requests_started",
            "requests_completed",
            "requests_failed",
            "requests_rejected",
            "requests_cancelled",
            "requests_evicted",
            "requests_shed",
            "kernel_cache_hits",
            "kernel_cache_misses",
            "warm_acquires",
            "warm_parks",
            "cold_builds",
            "instances_discarded",
        ] {
            inner.metrics.counter_add(name, &[], 0);
        }
        let slots = (0..slots_n)
            .map(|i| {
                let inner = Arc::clone(&inner);
                spawn(format!("fv3-serve-{i}"), move || slot_loop(&inner))
            })
            .collect();
        let ticker = cfg.tick_every.filter(|_| inner.bus.is_some()).map(|period| {
            let inner = Arc::clone(&inner);
            // Ticks go on through a shutdown's drain. Drained is checked
            // under the lock the wait releases, so the notify after the
            // last slot's join cannot slip in between.
            let tick = move || loop {
                let a = lock(&inner.admission);
                if a.drained() {
                    return;
                }
                drop(inner.tick_cv.wait_timeout(a, period));
                inner.emit_tick();
            };
            spawn("fv3-serve-tick".to_string(), tick)
        });
        ForecastEngine {
            inner,
            slots,
            ticker,
        }
    }

    /// Submit a request in the Normal lane, blocking while the queue is
    /// at capacity.
    pub fn submit(&self, req: ForecastRequest) -> RequestId {
        self.submit_with(req, SubmitOptions::default())
    }

    /// Submit with admission options (lane, deadline, tenant), blocking
    /// while the queue — or the tenant's quota — has no room. Under
    /// queue pressure a queued request from a *lower* lane is shed to
    /// admit this one; only when nothing lower exists does the call
    /// block.
    pub fn submit_with(&self, mut req: ForecastRequest, opts: SubmitOptions) -> RequestId {
        let mut a = lock(&self.inner.admission);
        loop {
            match self.admit(&mut a, req, &opts) {
                Ok(id) => return id,
                Err(Rejected::QueueFull(r) | Rejected::QuotaExceeded { req: r, .. }) => req = r,
            }
            a = wait(&self.inner.changed, a);
        }
    }

    /// Submit with admission options, without blocking. Refusals are
    /// typed — [`Rejected::QuotaExceeded`] when the tenant is at its
    /// cap, [`Rejected::QueueFull`] when the queue is full and no
    /// lower-lane request could be shed — and hand the request back.
    /// Every refusal increments `requests_rejected` exactly once.
    pub fn try_submit_with(
        &self,
        req: ForecastRequest,
        opts: SubmitOptions,
    ) -> Result<RequestId, Rejected> {
        let admitted = self.admit(&mut lock(&self.inner.admission), req, &opts);
        if let Err(refused) = &admitted {
            let reason = match refused {
                Rejected::QueueFull(_) => "queue_full",
                Rejected::QuotaExceeded { .. } => "quota",
            };
            let m = &self.inner.metrics;
            m.counter_add("requests_rejected", &[], 1);
            m.counter_add("requests_rejected", &[("reason", reason)], 1);
        }
        admitted
    }

    /// The one admission decision of both submit paths, and what the
    /// shell owes it: the shed victim's terminal, the counters, the
    /// `RequestQueued` event and a slot's wake-up.
    fn admit(
        &self,
        a: &mut Admission,
        req: ForecastRequest,
        opts: &SubmitOptions,
    ) -> Result<RequestId, Rejected> {
        let inner = &self.inner;
        let steps = req.steps;
        let Admitted { id, label, shed } = a.submit(Instant::now(), req, opts)?;
        if let Some(victim) = shed {
            inner.account(a.outcome(victim), 0);
        }
        let (m, queue_depth) = (&inner.metrics, a.queued() as u64);
        m.counter_add("requests_submitted", &[], 1);
        m.gauge_high_water("queue_depth_high_water", &[], queue_depth as f64);
        // Published under the request lock: no slot can pop this request
        // and publish RequestStarted before RequestQueued is on the bus.
        if let Some(bus) = &inner.bus {
            let event = RunEvent::RequestQueued {
                label,
                steps,
                queue_depth,
            };
            bus.publish(Some(&id.to_string()), event);
        }
        inner.changed.notify_all();
        Ok(id)
    }

    /// Cancel a queued or running request. Queued: removed and terminal
    /// `Cancelled` immediately. Running: its token fires and the run
    /// stops at the next step (or acoustic-substep) boundary; the
    /// outcome then carries the partial run history, and the instance is
    /// discarded like a failed one — never parked warm. Returns false
    /// when the id is unknown or already terminal.
    pub fn cancel(&self, id: RequestId) -> bool {
        let mut a = lock(&self.inner.admission);
        match a.cancel(Instant::now(), id) {
            Cancel::Unknown => return false,
            Cancel::Running(token) => token.cancel(),
            Cancel::Queued => {
                self.inner.account(a.outcome(id), 0);
                drop(a);
                self.inner.settled();
            }
        }
        true
    }

    /// Submit with a guard that cancels the request when dropped before
    /// [`SubmitGuard::wait`] or [`SubmitGuard::detach`] — opt-in
    /// abandon-stops-the-run semantics for callers that would otherwise
    /// leak a slot-burning orphan on an early return.
    pub fn submit_guarded(&self, req: ForecastRequest, opts: SubmitOptions) -> SubmitGuard<'_> {
        let id = self.submit_with(req, opts);
        SubmitGuard {
            engine: self,
            id,
            armed: true,
        }
    }

    /// Block until `id`'s outcome is available and take it. Each outcome
    /// can be taken exactly once.
    ///
    /// # Panics
    ///
    /// When `id` was never issued, or its outcome was already taken:
    /// nothing could ever end the wait.
    pub fn wait(&self, id: RequestId) -> ForecastOutcome {
        self.wait_inner(id, None)
            .unwrap_or_else(|| panic!("wait({id}): never issued, or its outcome was already taken"))
    }

    /// Like [`wait`](Self::wait) with a deadline; `None` on expiry (the
    /// request stays queued/running and can be waited on again), and at
    /// once for an id that was never issued or whose outcome was taken.
    pub fn wait_timeout(&self, id: RequestId, timeout: Duration) -> Option<ForecastOutcome> {
        self.wait_inner(id, Some(Instant::now() + timeout))
    }

    fn wait_inner(&self, id: RequestId, deadline: Option<Instant>) -> Option<ForecastOutcome> {
        let mut a = lock(&self.inner.admission);
        loop {
            if let Some(o) = a.take(id) {
                return Some(o);
            }
            if !a.live(id) {
                return None;
            }
            a = match deadline {
                None => wait(&self.inner.changed, a),
                Some(d) => {
                    // Expired: `None`, and the outcome stays claimable.
                    let left = d.checked_duration_since(Instant::now()).filter(|l| !l.is_zero())?;
                    self.inner.changed.wait_timeout(a, left).unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    /// Requests currently queued (not yet picked up by a slot).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.admission).queued()
    }

    /// The engine's metrics registry (aggregate + per-request series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Aggregate counters so far, plus point-in-time occupancy (queue
    /// depth, busy slots, warm-pool size): [`status`](Self::status)'s
    /// `stats`.
    pub fn stats(&self) -> EngineStats {
        self.status().stats
    }

    /// Subscribe to the live event stream of one request (every event
    /// tagged with its id: lifecycle, per-step completions, health
    /// samples, supervisor recoveries). `None` when the engine was
    /// started with `streaming: false`.
    ///
    /// Subscribing is valid at any time; events published before the
    /// subscription are not replayed, so subscribe before (or right
    /// after) submitting to observe the full lifecycle.
    pub fn subscribe(&self, id: RequestId) -> Option<EventStream> {
        self.inner.bus.as_ref().map(|b| b.subscribe(&id.to_string()))
    }

    /// Subscribe to every event the engine publishes (all requests plus
    /// engine-wide ticks). `None` when streaming is disabled.
    pub fn subscribe_all(&self) -> Option<EventStream> {
        self.inner.bus.as_ref().map(|b| b.subscribe_all())
    }

    /// A point-in-time snapshot of the whole engine: queued requests in
    /// order, running requests with live progress (steps done / budget,
    /// last step wall time, last health verdict), slot and warm-pool
    /// occupancy, and bus health. Works with streaming on or off — the
    /// progress mirror is maintained either way.
    ///
    /// One consistent view: queue, running set and terminal counts are
    /// read under one lock, so `queued + running + terminals` equals
    /// `stats.submitted`, and `slots_busy` is the length of `running`.
    pub fn status(&self) -> EngineStatus {
        let mut st = lock(&self.inner.admission).snapshot();
        let inner = &self.inner;
        st.slots = inner.slots_n;
        st.warm_pool = inner.warm_pool_size();
        if let Some(bus) = &inner.bus {
            (st.events_published, st.events_dropped) =
                (bus.events_published(), bus.events_dropped());
        }
        let m = &inner.metrics;
        st.stats = EngineStats {
            rejected: m.counter_value("requests_rejected", &[]),
            warm_acquires: m.counter_value("warm_acquires", &[]),
            cold_builds: m.counter_value("cold_builds", &[]),
            cache_hits: m.counter_value("kernel_cache_hits", &[]),
            cache_misses: m.counter_value("kernel_cache_misses", &[]),
            slots: st.slots as u64,
            warm_pool: st.warm_pool as u64,
            ..st.stats
        };
        st
    }

    /// Stop accepting work, drain the queue, join every slot, and return
    /// the final counters. Outcomes not yet taken with
    /// [`wait`](Self::wait) are dropped.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        lock(&self.inner.admission).close();
        self.inner.changed.notify_all();
        for h in self.slots.drain(..) {
            let _ = h.join();
        }
        self.inner.tick_cv.notify_all();
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        // Close the bus so live subscribers drain what is buffered and
        // then observe end-of-stream instead of blocking forever.
        if let Some(bus) = &self.inner.bus {
            bus.close();
        }
    }
}

impl Drop for ForecastEngine {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

/// RAII submission handle from [`ForecastEngine::submit_guarded`]:
/// dropping it without [`wait`](Self::wait) or
/// [`detach`](Self::detach) cancels the request.
pub struct SubmitGuard<'a> {
    engine: &'a ForecastEngine,
    id: RequestId,
    armed: bool,
}

impl SubmitGuard<'_> {
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Wait for the outcome (disarms the guard).
    pub fn wait(mut self) -> ForecastOutcome {
        self.armed = false;
        self.engine.wait(self.id)
    }

    /// Let the request keep running unguarded; returns its id.
    pub fn detach(mut self) -> RequestId {
        self.armed = false;
        self.id
    }
}

impl Drop for SubmitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.engine.cancel(self.id);
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let thread = std::thread::Builder::new().name(name);
    thread.spawn(f).expect("failed to spawn an engine thread")
}

fn slot_loop(inner: &Arc<EngineInner>) {
    loop {
        let mut a = lock(&inner.admission);
        let job = loop {
            match a.pop(Instant::now(), |id| inner.sink(id)) {
                Pop::Run(job) => break job,
                Pop::Evict(id) => {
                    inner.account(a.outcome(id), 0);
                    drop(a);
                    inner.settled();
                    a = lock(&inner.admission);
                }
                Pop::Idle => a = wait(&inner.changed, a),
                Pop::Closed => return,
            }
        };
        drop(a);
        // The queue shrank: a blocked submitter may fit now.
        inner.changed.notify_all();
        let outcome = run_request(inner, job);
        lock(&inner.admission).finish(outcome);
        inner.settled();
    }
}

fn run_request(inner: &Arc<EngineInner>, job: Job) -> ForecastOutcome {
    let (rid, queued_seconds, sink) = (job.id.to_string(), job.queued_seconds, &job.sink);
    let m = &inner.metrics;
    m.counter_add("requests_started", &[], 1);
    m.observe("request_queued_seconds", &[], queued_seconds);
    sink.emit(RunEvent::RequestStarted { queued_seconds });
    inner.emit_tick();
    // Everything below the front door reads this request's context and
    // nothing process-wide: its token stops this run at its next
    // boundary, its scope of the engine's fault plan logs only what
    // fires in it, its spans land under its own `request` span.
    let ctx = RunContext {
        request: Some(rid.as_str().into()),
        cancel: job.token.clone(),
        sink: sink.clone(),
        faults: inner.faults.scoped(),
        tracer: inner.tracer.clone(),
        metrics: None,
    };
    let _span = ctx.span("request", &rid);
    let t0 = Instant::now();
    // A panic escaping the supervised region (an engine bug, not a model
    // blowup) fails this request only — never the slot.
    let result = match catch_unwind(AssertUnwindSafe(|| execute(inner, &job.req, ctx))) {
        Ok(res) => res,
        Err(payload) => ForecastResult::Failed(EngineFailure::Panic(panic_text(&*payload))),
    };
    let outcome = ForecastOutcome {
        id: job.id,
        label: job.req.label.clone(),
        queued_seconds,
        run_seconds: t0.elapsed().as_secs_f64(),
        result,
    };
    inner.account(&outcome, sink.progress().map_or(0, |p| p.steps_done));
    outcome
}

fn execute(inner: &Arc<EngineInner>, req: &ForecastRequest, ctx: RunContext) -> ForecastResult {
    let key = CaseKey::of(req);
    let (mut d, basis, warm_start) = acquire(inner, key, req);
    let rid = ctx.request.clone().expect("a served run has a request id");
    // The instance (and, through it, the supervisor) runs under this
    // request's context for the duration of the run; release() detaches
    // it before parking.
    d.set_run(ctx);
    let (h0, m0) = d.exec_cache_counters();
    let mut sup = Supervisor::new(inner.policy.clone());
    // The template the instance was just built into or rewound through
    // *is* its step-0 state: the supervisor starts from it, no capture.
    let res = sup.run_from(&mut d, req.steps, Some(basis));
    let (h1, m1) = d.exec_cache_counters();
    let (hits, misses) = (h1 - h0, m1 - m0);
    let m = &inner.metrics;
    m.counter_add("kernel_cache_hits", &[], hits);
    m.counter_add("kernel_cache_misses", &[], misses);
    m.counter_add("kernel_cache_hits", &[("request", &rid)], hits);
    m.counter_add("kernel_cache_misses", &[("request", &rid)], misses);
    m.counter_add("state_copies", &[("request", &rid)], d.take_state_copies());
    match res {
        Ok(run) if run.completed() => {
            // The report takes the states; the instance is parked without
            // any, and its next tenant's restore allocates them anew from
            // the template.
            let states = std::mem::take(&mut d.states);
            let config = d.config;
            release(inner, key, d);
            ForecastResult::Completed(ForecastReport {
                steps: req.steps,
                config,
                run,
                states,
                cache_hits: hits,
                cache_misses: misses,
                warm_start,
            })
        }
        Ok(run) => {
            // Cancelled mid-run: the states may be mid-step (the token
            // can fire at an acoustic-substep boundary), so the instance
            // is discarded exactly like a failed one — a cancelled
            // tenant must never contaminate the warm pool.
            drop(d);
            m.counter_add("instances_discarded", &[], 1);
            let cause = run.cancelled.unwrap_or(CancelCause::Requested);
            ForecastResult::Cancelled(CancelledRun {
                cause,
                steps_done: run.steps,
                run: Some(run),
            })
        }
        Err(e) => {
            // Fault isolation: the poisoned instance is discarded, never
            // parked — the next tenant of this case gets a clean build.
            // The compiled kernels live in the shared `Arc` bundle and
            // survive the discard.
            drop(d);
            m.counter_add("instances_discarded", &[], 1);
            ForecastResult::Failed(EngineFailure::Supervised(e))
        }
    }
}

/// Check a warm instance out of the case pool, or build a cold one
/// against the case's shared compile bundle and grid set. Returns the
/// instance at step 0, the step-0 template stamped as *its* rollback
/// basis (a handle on the case's one copy), and whether it was warm.
fn acquire(
    inner: &EngineInner,
    key: CaseKey,
    req: &ForecastRequest,
) -> (DistributedDycore, Checkpoint, bool) {
    let (substep, grids) = {
        let mut cases = lock(&inner.cases);
        match cases.get_mut(&key) {
            Some(cc) => {
                if let Some(mut d) = cc.warm.pop() {
                    let reset = cc.reset.clone().expect("parked instance implies reset template");
                    drop(cases);
                    // Undo any supervisor backoff a previous tenant
                    // applied, then rewrite every rank from the step-0
                    // template (its basis belongs to another instance,
                    // so restore() rewrites unconditionally).
                    d.config = req.config;
                    d.restore(&reset);
                    inner.metrics.counter_add("warm_acquires", &[], 1);
                    let basis = Checkpoint {
                        basis: Some(d.mutation_basis()),
                        ..reset
                    };
                    return (d, basis, true);
                }
                (Arc::clone(&cc.substep), cc.grids.clone())
            }
            None => {
                // First tenant of this case: register the shared bundle
                // under the lock so racing cold tenants agree on one
                // program instance (kernel compilation itself is lazy
                // and deduplicated by the executors' cache locks).
                let substep = Arc::new(CompiledSubstep::build_with_tune(
                    &req.config,
                    Some(&inner.pool),
                    inner.run.tune,
                ));
                cases.insert(
                    key,
                    CaseCache {
                        substep: Arc::clone(&substep),
                        grids: None,
                        reset: None,
                        warm: Vec::new(),
                    },
                );
                (substep, None)
            }
        }
    };
    // Instance build (grids when not yet shared, initial states, halo
    // updater) happens outside the case lock: it is per-tenant work.
    let mut d = DistributedDycore::new_with_grids(
        req.config,
        &ExpansionAttrs::tuned(),
        grids,
        &inner.run,
    );
    d.set_pool(Some(inner.pool.clone()));
    d.set_shared_substep(substep);
    let basis = Checkpoint::capture(&d);
    {
        let mut cases = lock(&inner.cases);
        if let Some(cc) = cases.get_mut(&key) {
            if cc.grids.is_none() {
                cc.grids = Some(Arc::clone(&d.grids));
            }
            cc.reset.get_or_insert_with(|| basis.clone());
        }
    }
    inner.metrics.counter_add("cold_builds", &[], 1);
    (d, basis, false)
}

/// Park a healthy instance for the next tenant, up to the warm cap.
fn release(inner: &EngineInner, key: CaseKey, mut d: DistributedDycore) {
    // Never park another tenant's context: the next tenant installs its
    // own, and a parked instance must not retain a subscriber tag, a
    // token or a trace handle.
    d.set_run(RunContext::default());
    // Nor a rank team's scratch stores: an idle tenant would hold
    // megabytes per worker that its next step rebuilds in under one.
    d.release_scratch_stores();
    let mut cases = lock(&inner.cases);
    if let Some(cc) = cases.get_mut(&key) {
        if cc.reset.is_some() && cc.warm.len() < inner.warm_cap {
            cc.warm.push(d);
            inner.metrics.counter_add("warm_parks", &[], 1);
        }
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv3::dyn_core::DycoreConfig;
    use fv3core::DriverConfig;

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

    fn small_engine(slots: usize) -> ForecastEngine {
        ForecastEngine::start(EngineConfig {
            slots,
            pool: Some(Pool::new(1)),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn submit_wait_roundtrip() {
        let engine = small_engine(1);
        let id = engine.submit(small_request(1).with_label("hello"));
        let out = engine.wait(id);
        assert_eq!(out.id, id);
        assert_eq!(out.label, "hello");
        let rep = out.result.expect("request succeeds");
        assert_eq!(rep.steps, 1);
        assert!(!rep.warm_start);
        assert!(rep.cache_misses > 0, "first tenant compiles");
        assert!(rep.run.monitor.all_healthy());
        assert_eq!(rep.states.len(), 6);
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn second_request_pays_zero_compilation() {
        let engine = small_engine(1);
        let a = engine.submit(small_request(2));
        let first = engine.wait(a).result.expect("first ok");
        let b = engine.submit(small_request(2));
        let second = engine.wait(b).result.expect("second ok");
        assert!(first.cache_misses > 0);
        assert_eq!(
            second.cache_misses, 0,
            "request N+1 must pay zero compilation"
        );
        assert!(second.cache_hits > 0);
        assert!(second.warm_start, "single-slot second request reuses the instance");
        engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "wait(r7): never issued")]
    fn wait_on_a_never_issued_id_panics_with_the_id() {
        small_engine(1).wait(RequestId(7));
    }

    #[test]
    fn wait_timeout_on_a_taken_outcome_returns_none_at_once() {
        let engine = small_engine(1);
        let id = engine.submit(small_request(1));
        assert!(engine.wait(id).result.is_completed());
        // An hour: only an answer at once lets this test finish.
        assert!(engine.wait_timeout(id, Duration::from_secs(3600)).is_none());
        engine.shutdown();
    }

    #[test]
    fn try_submit_refuses_beyond_queue_cap() {
        // One slot kept busy, capacity 1: the second queued request must
        // be refused at the door, not buffered without bound.
        let engine = ForecastEngine::start(EngineConfig {
            slots: 1,
            queue_cap: 1,
            pool: Some(Pool::new(1)),
            ..EngineConfig::default()
        });
        let first = engine.submit(small_request(3));
        // Fill the queue behind the (likely running) first request; at
        // most one extra fits regardless of pickup timing.
        let mut accepted = Vec::new();
        let mut refused = 0usize;
        for _ in 0..4 {
            match engine.try_submit_with(small_request(1), SubmitOptions::default()) {
                Ok(id) => accepted.push(id),
                Err(_) => refused += 1,
            }
        }
        assert!(refused >= 2, "queue_cap=1 admits at most 2 of 4 extras");
        let _ = engine.wait(first);
        for id in accepted {
            let out = engine.wait(id);
            assert!(out.result.is_completed());
        }
        engine.shutdown();
    }

    #[test]
    fn parked_tenant_holds_no_scratch_stores() {
        let engine = small_engine(1);
        let inner = &engine.inner;
        let req = small_request(1);
        let key = CaseKey::of(&req);
        let (mut d, _, warm) = acquire(inner, key, &req);
        assert!(!warm);
        // The engine takes its schedule from the environment; a tenant
        // on the parallel one comes off its run holding its team's stores.
        d.set_rank_schedule(fv3core::RankSchedule::Parallel);
        d.step();
        assert_eq!(d.live_scratch_stores(), 1, "a one-worker pool is a team of one");
        release(inner, key, d);
        let parked: Vec<usize> = lock(&inner.cases)[&key]
            .warm
            .iter()
            .map(|d| d.live_scratch_stores())
            .collect();
        assert_eq!(parked, [0]);
        // The next tenant gets the instance back and builds them again.
        let (mut d, _, warm) = acquire(inner, key, &req);
        assert!(warm);
        d.step();
        assert_eq!((d.live_scratch_stores(), d.scratch_stores_built()), (1, 2));
        drop(d);
        engine.shutdown();
    }

    #[test]
    fn each_request_is_traced_under_its_own_request_span() {
        let tracer = obs::Tracer::new();
        let engine = ForecastEngine::start(EngineConfig {
            slots: 2,
            pool: Some(Pool::new(1)),
            tracer: Some(tracer.clone()),
            ..EngineConfig::default()
        });
        let ids = [engine.submit(small_request(1)), engine.submit(small_request(2))];
        for id in ids {
            assert!(engine.wait(id).result.is_completed());
        }
        engine.shutdown();
        let events = tracer.finished();
        for (id, steps) in ids.iter().zip([1, 2]) {
            let rid = id.to_string();
            let req = events
                .iter()
                .find(|e| e.cat == "request" && e.name == rid)
                .unwrap_or_else(|| panic!("no request span for {rid}"));
            // A slot runs one request at a time, so everything on its
            // thread inside the request's interval is that request's.
            let inside = |cat: &str| {
                let within = |e: &&obs::TraceEvent| {
                    e.cat == cat
                        && e.tid == req.tid
                        && req.ts_us <= e.ts_us
                        && e.ts_us + e.dur_us <= req.ts_us + req.dur_us
                };
                events.iter().filter(within).count()
            };
            assert_eq!(inside("step"), steps, "{rid}: driver steps");
            assert_eq!(inside("rank"), 6 * steps, "{rid}: rank spans");
            assert!(inside("kernel") >= 6 * steps, "{rid}: kernel spans");
        }
        assert_eq!(events.iter().filter(|e| e.cat == "step").count(), 3);
    }

    #[test]
    fn outcome_snapshot_roundtrips_through_fv3ckpt1() {
        let engine = small_engine(1);
        let id = engine.submit(small_request(1));
        let rep = engine.wait(id).result.expect("ok");
        let bytes = rep.snapshot_bytes();
        let ck = Checkpoint::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(ck.states.len(), rep.states.len());
        assert_eq!(ck.step, 1);
        engine.shutdown();
    }
}
