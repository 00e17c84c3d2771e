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
//!   the same executor, adopted by key whatever the tenant's rank-team
//!   width. Request N+1 pays zero kernel compilation; each
//!   [`ForecastReport`]'s `cache_misses` proves it per request.
//!   The bundle holds the partition's exchange plan, so no tenant builds
//!   one.
//! * **one grid-metadata set** — per-rank [`fv3::grid::Grid`]s behind an
//!   `Arc`, computed once per case.
//! * **one step-0 template** — the case's first tenant builds the
//!   bundle, its instance and the template captured from it, in the
//!   case's once-cell, and runs on that instance; every later tenant is
//!   a copy of the template's states on the shared grids
//!   ([`DistributedDycore::from_checkpoint`]), which computes nothing and
//!   is bit-identical to a fresh build (`tests/multi_tenant.rs`). No
//!   instance outlives its request.
//! * **one thread model** — a slot runs its tenant's kernels on its own
//!   thread, or on the tenant's rank threads when its team is wider than
//!   one ([`EngineConfig::pool`]'s width, else `FV3_WORKERS`); the slot
//!   count and the admission rules bound how many run at once.
//!
//! **Isolation.** Each request runs under its own
//! [`resilience::Supervisor`] on its own instance: a tenant that blows up
//! rolls back and retries within it, and a tenant that fails for good
//! has an outcome carrying a
//! [`SupervisedError`](resilience::SupervisedError) tagged with its
//! [`RequestId`]; its neighbours never observe the fault, and the shared
//! compile bundle (held by `Arc`) and template outlive it
//! (`tests/fault_isolation.rs`).
//!
//! **Observability.** Every count has one typed home. Engine-wide ones
//! are [`EngineStats`] ([`status`](ForecastEngine::status)): admissions,
//! refusals and the five terminals from the admission tally; template
//! builds, cold builds and kernel-cache traffic from plain counters
//! beside it. A request's own are its outcome: the
//! terminal, and for a completed run the [`ForecastReport`] (cache hits
//! and misses, whole-state copies, the supervised
//! [`RunReport`](resilience::RunReport)). Each request runs under its own
//! [`RunContext`] — request id, cancel token, event sink, its scope of
//! [`EngineConfig::faults`], [`EngineConfig::tracer`] — so its `request`
//! span encloses its own `driver_step` / `rank` / `kernel` spans and
//! nobody else's, and it returns its full per-step health history and
//! final field snapshot in the [`ForecastReport`].
//!
//! **Admission.** Lanes, quotas, shedding, deadlines, cancellation and
//! the five terminals are one value, `admission::Admission`, behind the
//! engine's one request lock; its transitions are pure and take the clock
//! as an argument. This file is the thread shell around it: it reads the
//! clock, runs requests on the slots, and publishes and wakes on what
//! each transition returns.

mod admission;
mod api;

pub use api::{
    CancelledRun, EngineConfig, EngineFailure, EngineStats, EngineStatus, ForecastOutcome,
    ForecastReport, ForecastRequest, ForecastResult, Priority, Rejected, RequestId,
    RequestProgress, Scenario, SubmitOptions,
};

use admission::{Admission, Admitted, Cancel, Job, Pop};
use fv3::grid::Grid;
use fv3core::{Checkpoint, CompiledSubstep, DistributedDycore};
use machine::cancel::CancelCause;
use machine::pool::Pool;
use machine::{Faults, RunConfig, RunContext};
use obs::stream::{EventBus, EventSink, EventStream, RunEvent};
use resilience::supervisor::panic_text;
use resilience::{Supervisor, SupervisorPolicy};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that must agree for two requests to share one compile
/// bundle, grid set and step-0 template. Floats are keyed by bits
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

/// What every tenant of one case shares, built by its first tenant.
struct Case {
    /// The compile bundle, with its exchange plan.
    substep: Arc<CompiledSubstep>,
    grids: Arc<Vec<Grid>>,
    /// The step-0 states every later tenant is built from.
    template: Checkpoint,
}

struct EngineInner {
    policy: SupervisorPolicy,
    /// [`EngineConfig::pool`]: every instance's rank-team width, when set.
    pool: Option<Pool>,
    /// Tuning of every instance this engine builds, and its team width
    /// when no pool is set: the environment as it was when the engine
    /// started.
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
    /// One cell per case, set by its first tenant: the map's lock is
    /// held only to find the cell, so two cases build side by side and
    /// racing tenants of one case wait on its cell.
    cases: Mutex<HashMap<CaseKey, Arc<OnceLock<Case>>>>,
    /// Requests built from their case's template / that built their case.
    warm_acquires: AtomicU64,
    cold_builds: AtomicU64,
    /// Kernel-cache traffic summed over every run.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// The live telemetry bus (`None`: streaming disabled — nothing is
    /// ever published and runs pay zero event cost).
    bus: Option<EventBus>,
    /// Total run slots.
    slots_n: usize,
}

impl EngineInner {
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
            events_dropped: bus.events_dropped(),
        };
        bus.publish(None, tick);
    }

    /// Publish a terminal's event (the admission tally has counted it).
    /// `steps_done` is how far a run that failed got. Called before the
    /// outcome can be taken, so a subscriber sees the event no later than
    /// the waiter sees the outcome.
    fn announce(&self, o: &ForecastOutcome, steps_done: u64) {
        let Some(bus) = &self.bus else { return };
        let event = match &o.result {
            ForecastResult::Completed(rep) => RunEvent::RequestCompleted {
                steps: rep.steps,
                run_seconds: o.run_seconds,
            },
            ForecastResult::Failed(e) => RunEvent::RequestFailed {
                step: steps_done,
                detail: e.to_string(),
            },
            ForecastResult::Cancelled(c) => RunEvent::RequestCancelled {
                cause: c.cause.label().to_string(),
                steps_done: c.steps_done,
            },
            ForecastResult::Evicted {
                past_deadline_seconds: late,
            } => RunEvent::RequestEvicted {
                past_deadline_seconds: *late,
            },
            ForecastResult::Shed { lane } => RunEvent::RequestShed {
                lane: lane.label().to_string(),
            },
        };
        bus.publish(Some(&o.id.to_string()), event);
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
        let slots_n = cfg.slots.max(1);
        let inner = Arc::new(EngineInner {
            policy: cfg.policy,
            pool: cfg.pool,
            run,
            faults: cfg.faults.map_or_else(Faults::inert, |p| p.arm()),
            tracer: cfg.tracer,
            admission: Mutex::new(Admission::new(cfg.queue_cap, cfg.tenant_cap)),
            changed: Condvar::new(),
            tick_cv: Condvar::new(),
            cases: Mutex::new(HashMap::new()),
            warm_acquires: AtomicU64::new(0),
            cold_builds: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            bus: cfg.streaming.then(|| EventBus::new(cfg.stream_buffer)),
            slots_n,
        });
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
    /// Every refusal increments [`EngineStats::rejected`] exactly once.
    pub fn try_submit_with(
        &self,
        req: ForecastRequest,
        opts: SubmitOptions,
    ) -> Result<RequestId, Rejected> {
        let mut a = lock(&self.inner.admission);
        let admitted = self.admit(&mut a, req, &opts);
        if admitted.is_err() {
            a.refused();
        }
        admitted
    }

    /// The one admission decision of both submit paths, and what the
    /// shell owes it: the shed victim's terminal event, the
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
            inner.announce(a.outcome(victim), 0);
        }
        // Published under the request lock: no slot can pop this request
        // and publish RequestStarted before RequestQueued is on the bus.
        if let Some(bus) = &inner.bus {
            let event = RunEvent::RequestQueued {
                label,
                steps,
                queue_depth: a.queued() as u64,
            };
            bus.publish(Some(&id.to_string()), event);
        }
        inner.changed.notify_all();
        Ok(id)
    }

    /// Cancel a queued or running request. Queued: removed and terminal
    /// `Cancelled` immediately. Running: its token fires and the run
    /// stops at the next step (or acoustic-substep) boundary; the
    /// outcome then carries the partial run history. Returns false
    /// when the id is unknown or already terminal.
    pub fn cancel(&self, id: RequestId) -> bool {
        let mut a = lock(&self.inner.admission);
        match a.cancel(Instant::now(), id) {
            Cancel::Unknown => return false,
            Cancel::Running(token) => token.cancel(),
            Cancel::Queued => {
                self.inner.announce(a.outcome(id), 0);
                drop(a);
                self.inner.settled();
            }
        }
        true
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

    /// Aggregate counters so far, plus point-in-time occupancy (queue
    /// depth, busy slots): [`status`](Self::status)'s
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
    /// last step wall time, last health verdict), slot occupancy, and bus
    /// health. Works with streaming on or off — the
    /// progress mirror is maintained either way.
    ///
    /// One consistent view: queue, running set and terminal counts are
    /// read under one lock, so `queued + running + terminals` equals
    /// `stats.submitted`, and `slots_busy` is the length of `running`.
    pub fn status(&self) -> EngineStatus {
        let mut st = lock(&self.inner.admission).snapshot();
        let inner = &self.inner;
        st.slots = inner.slots_n;
        if let Some(bus) = &inner.bus {
            (st.events_published, st.events_dropped) =
                (bus.events_published(), bus.events_dropped());
        }
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        st.stats = EngineStats {
            warm_acquires: count(&inner.warm_acquires),
            cold_builds: count(&inner.cold_builds),
            cache_hits: count(&inner.cache_hits),
            cache_misses: count(&inner.cache_misses),
            slots: st.slots as u64,
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
                    inner.announce(a.outcome(id), 0);
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
    inner.announce(&outcome, sink.progress().map_or(0, |p| p.steps_done));
    outcome
}

fn execute(inner: &Arc<EngineInner>, req: &ForecastRequest, ctx: RunContext) -> ForecastResult {
    let (mut d, basis, warm_start) = acquire(inner, CaseKey::of(req), req, &ctx);
    // The instance (and, through it, the supervisor) runs under this
    // request's context; it is dropped with the instance.
    d.set_run(ctx);
    let mut sup = Supervisor::new(inner.policy.clone());
    // The template the instance was just built from or captured into
    // *is* its step-0 state: the supervisor starts from it, no capture.
    let res = sup.run_from(&mut d, req.steps, Some(basis));
    let (hits, misses) = d.exec_cache_counters();
    inner.cache_hits.fetch_add(hits, Ordering::Relaxed);
    inner.cache_misses.fetch_add(misses, Ordering::Relaxed);
    match res {
        Ok(run) if run.completed() => {
            let (config, state_copies) = (d.config, d.take_state_copies());
            ForecastResult::Completed(ForecastReport {
                steps: req.steps,
                config,
                run,
                // The report takes the states: nothing else will read them.
                states: d.states,
                cache_hits: hits,
                cache_misses: misses,
                state_copies,
                warm_start,
            })
        }
        // Cancelled mid-run: the states may be mid-step (the token can
        // fire at an acoustic-substep boundary); they go with the instance.
        Ok(run) => ForecastResult::Cancelled(CancelledRun {
            cause: run.cancelled.unwrap_or(CancelCause::Requested),
            steps_done: run.steps,
            run: Some(run),
        }),
        // Fault isolation: the poisoned instance goes; the case's bundle
        // and template, which it never wrote, stay.
        Err(e) => ForecastResult::Failed(EngineFailure::Supervised(e)),
    }
}

/// An instance of `req`'s case at step 0, the step-0 template stamped as
/// *its* rollback basis (a handle on the case's one copy), and whether it
/// was built from an existing template. The case's first tenant builds
/// the bundle, the grids and the template in the case's cell, so
/// racing first tenants agree on one set, and runs on the instance the
/// template was captured from; every later tenant is built from the
/// template.
///
/// Traced as one `acquire` span, named `cold` when the case was not built
/// yet as the tenant arrived (the tenant that builds it holds one `build`
/// span per part: `bundle`, `instance`, `template`), else `warm`.
fn acquire(
    inner: &EngineInner,
    key: CaseKey,
    req: &ForecastRequest,
    ctx: &RunContext,
) -> (DistributedDycore, Checkpoint, bool) {
    let cell = Arc::clone(lock(&inner.cases).entry(key).or_default());
    let _acquire = ctx.span("acquire", if cell.get().is_some() { "warm" } else { "cold" });
    let mut built = None;
    let case = cell.get_or_init(|| {
        let substep = {
            let _bundle = ctx.span("build", "bundle");
            Arc::new(CompiledSubstep::build_with_tune(&req.config, inner.run.tune))
        };
        let mut d = {
            let _instance = ctx.span("build", "instance");
            DistributedDycore::from_config(req.config, &inner.run)
        };
        d.set_shared_substep(Arc::clone(&substep));
        let template = {
            let _template = ctx.span("build", "template");
            Checkpoint::capture(&d)
        };
        let grids = Arc::clone(&d.grids);
        built = Some(d);
        Case {
            substep,
            grids,
            template,
        }
    });
    let (mut d, basis, warm) = match built {
        Some(d) => {
            inner.cold_builds.fetch_add(1, Ordering::Relaxed);
            (d, case.template.clone(), false)
        }
        None => {
            let (template, grids) = (&case.template, Arc::clone(&case.grids));
            let mut d = DistributedDycore::from_checkpoint(template, Some(grids), &inner.run);
            d.set_shared_substep(Arc::clone(&case.substep));
            let basis = Checkpoint {
                basis: Some(d.mutation_basis()),
                ..template.clone()
            };
            inner.warm_acquires.fetch_add(1, Ordering::Relaxed);
            (d, basis, true)
        }
    };
    if let Some(pool) = &inner.pool {
        d.set_pool(Some(pool.clone()));
        d.set_rank_schedule(fv3core::RankSchedule::Parallel);
    }
    (d, basis, warm)
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
        assert!(second.warm_start, "the second request is built from the template");
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
    fn engine_pool_sets_every_instance_team_width() {
        let engine = ForecastEngine::start(EngineConfig {
            slots: 1,
            pool: Some(Pool::new(2)),
            ..EngineConfig::default()
        });
        let req = small_request(1);
        let key = CaseKey::of(&req);
        let (mut d, _, _) = acquire(&engine.inner, key, &req, &RunContext::default());
        d.step();
        assert!(d.rank_workers_launched() > 0, "two rank threads per substep");
        assert_eq!(d.live_scratch_stores(), 2);
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
    fn acquires_and_health_samples_are_traced_inside_their_request() {
        let tracer = obs::Tracer::new();
        let engine = ForecastEngine::start(EngineConfig {
            slots: 1,
            pool: Some(Pool::new(1)),
            tracer: Some(tracer.clone()),
            ..EngineConfig::default()
        });
        let cold = engine.submit(small_request(2));
        assert!(engine.wait(cold).result.is_completed());
        let warm = engine.submit(small_request(1));
        assert!(engine.wait(warm).result.is_completed());
        engine.shutdown();
        let events = tracer.finished();
        let within = |outer: &obs::TraceEvent, e: &obs::TraceEvent| {
            e.tid == outer.tid
                && outer.ts_us <= e.ts_us
                && e.ts_us + e.dur_us <= outer.ts_us + outer.dur_us
        };
        for (id, steps, kind) in [(cold, 2, "cold"), (warm, 1, "warm")] {
            let rid = id.to_string();
            let req = events
                .iter()
                .find(|e| e.cat == "request" && e.name == rid)
                .unwrap_or_else(|| panic!("no request span for {rid}"));
            // In close order, which is also open order here: none of
            // these nest in another of the same category.
            let inside = |cat: &str| -> Vec<&obs::TraceEvent> {
                events.iter().filter(|e| e.cat == cat && within(req, e)).collect()
            };
            let acquire = inside("acquire");
            assert_eq!(acquire.len(), 1, "{rid}: one acquire span");
            assert_eq!(acquire[0].name, kind, "{rid}");
            let builds = inside("build");
            assert!(builds.iter().all(|b| within(acquire[0], b)), "{rid}: build outside acquire");
            let names: Vec<&str> = builds.iter().map(|e| e.name.as_str()).collect();
            let want: &[&str] = match kind {
                "cold" => &["bundle", "instance", "template"],
                _ => &[],
            };
            assert_eq!(names, want, "{rid}: the build inside acquire({kind})");
            // One health sample per supervised step, after it.
            let sequence: Vec<&str> = events
                .iter()
                .filter(|e| (e.cat == "step" || e.cat == "health") && within(req, e))
                .map(|e| e.cat.as_str())
                .collect();
            let alternating: Vec<&str> = (0..steps).flat_map(|_| ["step", "health"]).collect();
            assert_eq!(sequence, alternating, "{rid}: driver steps and health samples");
            for (step, health) in inside("step").into_iter().zip(inside("health")) {
                assert_eq!(health.name, "sample_health");
                // Within 1 ns, the clock's resolution.
                let step_end = step.ts_us + step.dur_us;
                assert!(health.ts_us >= step_end - 1e-3, "{rid}: health opens after its step");
            }
        }
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
