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
//! *discarded* — its outcome carries a [`SupervisedError`] tagged with
//! its [`RequestId`], its neighbours never observe the fault, and the
//! shared compile bundle (held by `Arc`) survives the discard
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

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3::state::DycoreState;
use fv3core::{Checkpoint, CompiledSubstep, DistributedDycore, DriverConfig};
use machine::cancel::{CancelCause, CancelToken};
use machine::pool::Pool;
use machine::{Faults, RunConfig, RunContext};
use obs::stream::{EventBus, EventSink, EventStream, RunEvent};
use obs::MetricsRegistry;
use resilience::{FaultPlan, RunReport, SupervisedError, Supervisor, SupervisorPolicy};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine-assigned request identifier; labels every metric, span, and
/// error the request produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The scenario a request wants forecast. Today the library has one
/// entry (ROADMAP item 4 grows it); it is part of the case key so a
/// future scenario with identical numerics still gets its own compile
/// bundle when its initial conditions differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scenario {
    /// The c-grid baroclinic instability wave (DCMIP-style), the repo's
    /// golden-anchored case.
    #[default]
    BaroclinicWave,
}

impl Scenario {
    /// Stable name for labels and artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::BaroclinicWave => "baroclinic_wave",
        }
    }
}

/// One unit of work: scenario + driver configuration + step budget.
#[derive(Debug, Clone)]
pub struct ForecastRequest {
    pub scenario: Scenario,
    pub config: DriverConfig,
    /// Supervised driver steps to run.
    pub steps: u64,
    /// Optional client label carried through to the outcome (defaults to
    /// the request id).
    pub label: String,
}

impl ForecastRequest {
    /// A request for `steps` steps of `scenario` under `config`.
    pub fn new(scenario: Scenario, config: DriverConfig, steps: u64) -> Self {
        ForecastRequest {
            scenario,
            config,
            steps,
            label: String::new(),
        }
    }

    /// The standard c8L6 baroclinic-wave case (the repo's golden case).
    pub fn c8l6(steps: u64) -> Self {
        let config = DriverConfig::six_rank(
            8,
            6,
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

    /// Attach a client label.
    pub fn with_label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }
}

/// Scheduling lane. The submission queue serves High before Normal
/// before Batch (FIFO within a lane), and under queue pressure sheds
/// from the lowest lane first — an urgent nowcast and a batch ensemble
/// member are no longer peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Urgent interactive work; never shed.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Opportunistic work; the first shed under overload.
    Batch,
}

impl Priority {
    /// Every lane, scheduling order (High first).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];

    /// Lane index in scheduling order (0 = High).
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Stable label for metrics, events, and the serve CLI.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parse a [`label`](Self::label) back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Per-request admission options for
/// [`ForecastEngine::submit_with`] / [`try_submit_with`](ForecastEngine::try_submit_with).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Scheduling lane (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Wall-clock budget from submission. A queued request past its
    /// deadline is evicted without ever starting; a running request is
    /// cancelled at the next step boundary; the supervisor will not
    /// start another rollback-retry past it.
    pub deadline: Option<Duration>,
    /// Tenant identity for quota accounting. Requests sharing a tenant
    /// string count against [`EngineConfig::tenant_cap`]; untagged
    /// requests are exempt.
    pub tenant: Option<String>,
}

impl SubmitOptions {
    pub fn priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    pub fn tenant(mut self, tenant: &str) -> Self {
        self.tenant = Some(tenant.to_string());
        self
    }
}

/// A refused submission ([`ForecastEngine::try_submit_with`]); hands the
/// request back so the caller can retry, re-route, or drop it.
#[derive(Debug)]
pub enum Rejected {
    /// The queue is at capacity and nothing lower-priority could be
    /// shed to admit this request.
    QueueFull(ForecastRequest),
    /// The request's tenant is at its in-flight + queued cap.
    QuotaExceeded {
        tenant: String,
        req: ForecastRequest,
    },
}

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

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent run slots (each one OS thread executing requests).
    pub slots: usize,
    /// Submission-queue capacity; [`ForecastEngine::submit`] blocks and
    /// [`ForecastEngine::try_submit`] refuses beyond it (admission
    /// control at the front door).
    pub queue_cap: usize,
    /// Shared kernel worker team (`None`: sized by `FV3_WORKERS`, else
    /// the core count — [`RunConfig::host_workers`]).
    pub pool: Option<Pool>,
    /// Per-request supervision policy.
    pub policy: SupervisorPolicy,
    /// Warm instances parked per case (0 disables warm reuse).
    pub warm_cap: usize,
    /// Live telemetry ([`obs::stream`]): when true the engine owns an
    /// [`EventBus`] and every request streams its lifecycle and per-step
    /// events ([`ForecastEngine::subscribe`]). When false the bus is
    /// never created and the hot path publishes nothing — runs are
    /// bit-identical either way (events carry copies, never borrows).
    pub streaming: bool,
    /// Per-subscriber event-buffer capacity; when a slow subscriber
    /// falls this far behind, its *oldest* events are dropped and
    /// counted (`events_dropped`) — a subscriber can never stall a slot.
    pub stream_buffer: usize,
    /// Cadence for periodic [`RunEvent::EngineTick`] snapshots from a
    /// background thread (`None`: ticks only on request transitions).
    pub tick_every: Option<Duration>,
    /// Per-tenant in-flight + queued cap (`None`: unlimited). A tenant
    /// at its cap has further `try_submit_with` calls refused with
    /// [`Rejected::QuotaExceeded`] (blocking submits wait) — one
    /// saturating tenant can no longer starve the queue.
    pub tenant_cap: Option<usize>,
    /// A fault plan armed for the engine's lifetime (chaos testing of the
    /// serving layer): every request fires the one plan through a scope
    /// of its own, so a `once` spec poisons exactly one tenant and only
    /// that tenant's report counts the injection.
    pub faults: Option<FaultPlan>,
    /// Span recorder handed to every request's context: `request` →
    /// `driver_step` → `rank` → `kernel` for each request id.
    pub tracer: Option<obs::Tracer>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            slots: 2,
            queue_cap: 64,
            pool: None,
            policy: SupervisorPolicy::default(),
            warm_cap: 4,
            streaming: true,
            stream_buffer: 1024,
            tick_every: None,
            tenant_cap: None,
            faults: None,
            tracer: None,
        }
    }
}

/// Why a request failed. Either way the failure is confined to the one
/// request: neighbours keep running and the case's compile bundle stays
/// warm.
#[derive(Debug)]
pub enum EngineFailure {
    /// The per-request supervisor exhausted its recovery budget; carries
    /// the blowup report and the recovery-event history.
    Supervised(Box<SupervisedError>),
    /// The request panicked outside the supervised step (a bug, not a
    /// numerical failure); the slot survives and reports it.
    Panic(String),
}

impl fmt::Display for EngineFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineFailure::Supervised(e) => write!(f, "supervised failure: {e}"),
            EngineFailure::Panic(p) => write!(f, "request panicked: {p}"),
        }
    }
}

/// A completed forecast: the supervised run history plus the final
/// prognostic fields.
#[derive(Debug)]
pub struct ForecastReport {
    /// Steps the request asked for (all completed).
    pub steps: u64,
    /// Final driver configuration (reflects any supervisor backoff).
    pub config: DriverConfig,
    /// Supervised-run history: retries, rollbacks, health samples.
    pub run: RunReport,
    /// Final per-rank prognostic states.
    pub states: Vec<DycoreState>,
    /// Compiled-kernel cache hits this request observed.
    pub cache_hits: u64,
    /// Kernel compilations this request paid for. Zero for every request
    /// after a case's first — the point of the shared bundle.
    pub cache_misses: u64,
    /// Whether the request reused a parked warm instance.
    pub warm_start: bool,
}

impl ForecastReport {
    /// The final fields as an `FV3CKPT1` snapshot stream — the "fields
    /// out" channel of the serving API, decodable with
    /// [`Checkpoint::from_bytes`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        Checkpoint::encode(self.steps, &self.config, &self.states)
    }
}

/// A run stopped by its [`CancelToken`] — explicit [`cancel`]
/// (`ForecastEngine::cancel`) or deadline expiry.
///
/// [`cancel`]: ForecastEngine::cancel
#[derive(Debug)]
pub struct CancelledRun {
    pub cause: CancelCause,
    /// Steps that completed before the token fired (0: cancelled while
    /// still queued).
    pub steps_done: u64,
    /// The partial supervised-run history, when the request had started
    /// (`None`: cancelled in the queue). The instance behind it was
    /// discarded — cancelled tenants never park warm state.
    pub run: Option<RunReport>,
}

/// The exactly-one terminal state every submitted request reaches.
/// Admission control adds three terminals to the original
/// completed/failed pair; no request is ever lost between them.
#[derive(Debug)]
pub enum ForecastResult {
    /// Ran its full step budget.
    Completed(ForecastReport),
    /// Supervision exhausted or a panic; see [`EngineFailure`].
    Failed(EngineFailure),
    /// Stopped by explicit cancel or deadline, queued or mid-run.
    Cancelled(CancelledRun),
    /// Deadline expired while still queued; never started.
    Evicted {
        /// How far past its deadline the request was when a slot found it.
        past_deadline_seconds: f64,
    },
    /// Shed from the queue under overload to admit higher-priority work.
    Shed {
        /// The shed request's lane.
        lane: Priority,
    },
}

impl ForecastResult {
    /// Stable terminal label ("completed" | "failed" | "cancelled" |
    /// "evicted" | "shed").
    pub fn terminal(&self) -> &'static str {
        match self {
            ForecastResult::Completed(_) => "completed",
            ForecastResult::Failed(_) => "failed",
            ForecastResult::Cancelled(_) => "cancelled",
            ForecastResult::Evicted { .. } => "evicted",
            ForecastResult::Shed { .. } => "shed",
        }
    }

    /// True for [`Completed`](Self::Completed).
    pub fn is_completed(&self) -> bool {
        matches!(self, ForecastResult::Completed(_))
    }

    /// The report, when completed.
    pub fn report(&self) -> Option<&ForecastReport> {
        match self {
            ForecastResult::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The failure, when failed.
    pub fn failure(&self) -> Option<&EngineFailure> {
        match self {
            ForecastResult::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// The cancellation record, when cancelled.
    pub fn cancelled(&self) -> Option<&CancelledRun> {
        match self {
            ForecastResult::Cancelled(c) => Some(c),
            _ => None,
        }
    }

    /// Unwrap the completed report; panics with `msg` and the actual
    /// terminal otherwise.
    #[track_caller]
    pub fn expect(self, msg: &str) -> ForecastReport {
        match self {
            ForecastResult::Completed(r) => r,
            other => panic!("{msg}: request reached terminal '{}'", other.terminal()),
        }
    }
}

/// Everything the engine knows about a finished request.
#[derive(Debug)]
pub struct ForecastOutcome {
    pub id: RequestId,
    pub label: String,
    /// Seconds spent queued before a slot picked the request up (for
    /// evicted/shed requests: seconds spent queued before removal).
    pub queued_seconds: f64,
    /// Seconds spent executing (0 for requests that never started).
    pub run_seconds: f64,
    pub result: ForecastResult,
}

impl ForecastOutcome {
    /// Submit-to-finish latency in seconds.
    pub fn latency_seconds(&self) -> f64 {
        self.queued_seconds + self.run_seconds
    }
}

/// Aggregate counters (from the engine's metrics registry) plus the
/// point-in-time occupancy the raw metrics could only approximate:
/// current queue depth, busy run slots, and parked warm instances.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    /// Requests cancelled (explicit or deadline), queued or running.
    pub cancelled: u64,
    /// Queued requests whose deadline expired before a slot found them.
    pub evicted: u64,
    /// Requests shed from the queue under overload.
    pub shed: u64,
    pub warm_acquires: u64,
    pub cold_builds: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Requests queued (not yet picked up) right now.
    pub queue_depth: u64,
    /// Queue depth per lane right now, scheduling order (High, Normal,
    /// Batch).
    pub lane_depths: [u64; 3],
    /// Run slots currently executing a request.
    pub slots_busy: u64,
    /// Total run slots.
    pub slots: u64,
    /// Warm instances parked across all cases right now.
    pub warm_pool: u64,
}

/// Live progress of one running request, from the telemetry plane's
/// progress mirror (tracked even when streaming is disabled).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProgress {
    pub id: RequestId,
    pub label: String,
    /// Driver steps completed so far.
    pub steps_done: u64,
    /// Steps the request asked for.
    pub steps_budget: u64,
    /// Wall seconds of the most recent completed step (0 before the
    /// first).
    pub last_step_seconds: f64,
    /// Latest per-step health verdict from the request's supervisor
    /// (`None` until the first sample).
    pub last_healthy: Option<bool>,
}

/// A point-in-time snapshot of the whole engine
/// ([`ForecastEngine::status`]): what is queued, what is running and how
/// far along, and how the telemetry plane itself is doing.
#[derive(Debug, Clone)]
pub struct EngineStatus {
    /// Requests waiting in the submission queue, in scheduling order
    /// (High lane first, FIFO within a lane).
    pub queued: Vec<(RequestId, String)>,
    /// Per-tenant occupancy (queued + running), sorted by tenant.
    pub tenants: Vec<(String, usize)>,
    /// Requests currently executing, ordered by id.
    pub running: Vec<RequestProgress>,
    /// Total run slots / slots currently busy.
    pub slots: usize,
    pub slots_busy: usize,
    /// Warm instances parked across all cases.
    pub warm_pool: usize,
    /// Events published on the bus so far (0 when streaming is off).
    pub events_published: u64,
    /// Events dropped across all subscribers (drop-oldest backpressure).
    pub events_dropped: u64,
    /// Aggregate counters at snapshot time.
    pub stats: EngineStats,
}

impl EngineStatus {
    /// Queue depth at snapshot time.
    pub fn queue_depth(&self) -> usize {
        self.queued.len()
    }
}

struct Pending {
    id: u64,
    label: String,
    req: ForecastRequest,
    submitted: Instant,
    priority: Priority,
    /// Absolute deadline, when the request has one.
    deadline: Option<Instant>,
    tenant: Option<String>,
    /// The request's armed cancel token, shared with the engine's token
    /// map so [`ForecastEngine::cancel`] reaches it queued or running.
    token: CancelToken,
}

/// What the engine tracks about a request a slot is executing right
/// now: its budget and the telemetry sink whose progress mirror
/// [`ForecastEngine::status`] reads.
struct ActiveRequest {
    label: String,
    steps_budget: u64,
    sink: EventSink,
}

struct QueueState {
    /// One FIFO per lane, scheduling order (High, Normal, Batch). Slots
    /// always pop the highest non-empty lane.
    lanes: [VecDeque<Pending>; 3],
    /// Cleared on shutdown; slots drain the queue, then exit.
    open: bool,
    /// Per-tenant occupancy: queued + running requests. Incremented at
    /// admission, decremented when the request reaches its terminal.
    tenants: HashMap<String, usize>,
}

impl QueueState {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Queue depth per lane, scheduling order.
    fn lane_depths(&self) -> [u64; 3] {
        self.lanes.each_ref().map(|l| l.len() as u64)
    }

    /// Pop the next request in scheduling order.
    fn pop_next(&mut self) -> Option<Pending> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    /// The newest request in the lowest non-empty lane strictly below
    /// `p` — the shed victim admitting a `p`-priority request.
    fn pop_shed_victim(&mut self, p: Priority) -> Option<Pending> {
        self.lanes[p.lane() + 1..]
            .iter_mut()
            .rev()
            .find_map(VecDeque::pop_back)
    }

    fn occupancy(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).copied().unwrap_or(0)
    }

    fn tenant_admit(&mut self, tenant: &Option<String>) {
        if let Some(t) = tenant {
            *self.tenants.entry(t.clone()).or_insert(0) += 1;
        }
    }

    fn tenant_release(&mut self, tenant: &Option<String>) {
        if let Some(t) = tenant {
            if let Some(n) = self.tenants.get_mut(t) {
                *n -= 1;
                if *n == 0 {
                    self.tenants.remove(t);
                }
            }
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
    queue_cap: usize,
    warm_cap: usize,
    tenant_cap: Option<usize>,
    policy: SupervisorPolicy,
    pool: Pool,
    /// Rank schedule, tuning and team size of every instance this engine
    /// builds: the environment as it was when the engine started.
    run: RunConfig,
    /// [`EngineConfig::faults`], armed (inert without one).
    faults: Faults,
    tracer: Option<obs::Tracer>,
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    space_cv: Condvar,
    cases: Mutex<HashMap<CaseKey, CaseCache>>,
    results: Mutex<HashMap<u64, ForecastOutcome>>,
    done_cv: Condvar,
    /// Every live (queued or running) request's cancel token, so
    /// [`ForecastEngine::cancel`] works across the pop→run handoff.
    /// Removed when the request reaches its terminal.
    tokens: Mutex<HashMap<u64, CancelToken>>,
    metrics: MetricsRegistry,
    next_id: AtomicU64,
    /// The live telemetry bus (`None`: streaming disabled — nothing is
    /// ever published and runs pay zero event cost).
    bus: Option<EventBus>,
    /// Total run slots.
    slots_n: usize,
    /// Requests currently executing, one per busy slot: what
    /// [`ForecastEngine::status`] lists as running *and* counts as busy,
    /// so the two cannot disagree. A request enters when its slot starts
    /// it and leaves before its terminal is counted.
    active: Mutex<HashMap<u64, ActiveRequest>>,
    /// Set on shutdown so the tick thread exits promptly.
    stopping: AtomicBool,
    tick_cv: Condvar,
    tick_lock: Mutex<()>,
}

impl EngineInner {
    /// Warm instances parked across all cases right now.
    fn warm_pool_size(&self) -> usize {
        lock(&self.cases).values().map(|c| c.warm.len()).sum()
    }

    /// Run slots executing a request right now.
    fn slots_busy(&self) -> usize {
        lock(&self.active).len()
    }

    /// Publish one engine-wide tick snapshot (no-op when streaming is
    /// off). Called on request transitions and by the tick thread.
    fn emit_tick(&self) {
        let Some(bus) = &self.bus else { return };
        let queue_depth = lock(&self.queue).len() as u64;
        bus.publish(
            None,
            RunEvent::EngineTick {
                queue_depth,
                slots: self.slots_n as u64,
                slots_busy: self.slots_busy() as u64,
                warm_pool: self.warm_pool_size() as u64,
                events_dropped: bus.events_dropped(),
            },
        );
    }

    /// Deposit a terminal outcome: drop the cancel token, file the
    /// result, wake waiters. Exactly one deposit happens per submitted
    /// id — the no-lost-requests invariant (`tests/overload_soak.rs`).
    fn deposit(&self, outcome: ForecastOutcome) {
        lock(&self.tokens).remove(&outcome.id.0);
        lock(&self.results).insert(outcome.id.0, outcome);
        self.done_cv.notify_all();
    }

    /// Release a finished request's tenant occupancy and wake blocked
    /// submitters.
    fn release_tenant(&self, tenant: &Option<String>) {
        if tenant.is_some() {
            lock(&self.queue).tenant_release(tenant);
        }
        self.space_cv.notify_all();
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
        let pool = cfg
            .pool
            .unwrap_or_else(|| Pool::new(run.host_workers()));
        let slots_n = cfg.slots.max(1);
        let inner = Arc::new(EngineInner {
            queue_cap: cfg.queue_cap.max(1),
            warm_cap: cfg.warm_cap,
            tenant_cap: cfg.tenant_cap,
            policy: cfg.policy,
            pool,
            run,
            faults: cfg.faults.map_or_else(Faults::inert, |p| p.arm()),
            tracer: cfg.tracer,
            queue: Mutex::new(QueueState {
                lanes: Default::default(),
                open: true,
                tenants: HashMap::new(),
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            cases: Mutex::new(HashMap::new()),
            results: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            tokens: Mutex::new(HashMap::new()),
            metrics: MetricsRegistry::new(),
            next_id: AtomicU64::new(1),
            bus: cfg.streaming.then(|| EventBus::new(cfg.stream_buffer)),
            slots_n,
            active: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            tick_cv: Condvar::new(),
            tick_lock: Mutex::new(()),
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
                std::thread::Builder::new()
                    .name(format!("fv3-serve-{i}"))
                    .spawn(move || slot_loop(&inner))
                    .expect("failed to spawn engine slot")
            })
            .collect();
        let ticker = match (cfg.tick_every, inner.bus.is_some()) {
            (Some(period), true) => {
                let inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("fv3-serve-tick".to_string())
                        .spawn(move || {
                            let mut g = lock(&inner.tick_lock);
                            while !inner.stopping.load(Ordering::Relaxed) {
                                let (g2, _) = inner
                                    .tick_cv
                                    .wait_timeout(g, period)
                                    .unwrap_or_else(|e| e.into_inner());
                                g = g2;
                                if inner.stopping.load(Ordering::Relaxed) {
                                    break;
                                }
                                inner.emit_tick();
                            }
                        })
                        .expect("failed to spawn engine ticker"),
                )
            }
            _ => None,
        };
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
    pub fn submit_with(&self, req: ForecastRequest, opts: SubmitOptions) -> RequestId {
        let mut q = lock(&self.inner.queue);
        loop {
            if self.over_quota(&q, &opts) {
                q = wait(&self.inner.space_cv, q);
                continue;
            }
            if q.len() >= self.inner.queue_cap {
                match q.pop_shed_victim(opts.priority) {
                    Some(victim) => shed_victim(&self.inner, &mut q, victim),
                    None => {
                        q = wait(&self.inner.space_cv, q);
                        continue;
                    }
                }
            }
            return self.enqueue(q, req, opts);
        }
    }

    /// Submit in the Normal lane without blocking; hands the request
    /// back inside [`Rejected::QueueFull`] when nothing could be shed
    /// to make room.
    pub fn try_submit(&self, req: ForecastRequest) -> Result<RequestId, Rejected> {
        self.try_submit_with(req, SubmitOptions::default())
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
        let mut q = lock(&self.inner.queue);
        if self.over_quota(&q, &opts) {
            drop(q);
            self.reject("quota");
            return Err(Rejected::QuotaExceeded {
                tenant: opts.tenant.expect("over_quota implies tenant"),
                req,
            });
        }
        if q.len() >= self.inner.queue_cap {
            match q.pop_shed_victim(opts.priority) {
                Some(victim) => shed_victim(&self.inner, &mut q, victim),
                None => {
                    drop(q);
                    self.reject("queue_full");
                    return Err(Rejected::QueueFull(req));
                }
            }
        }
        Ok(self.enqueue(q, req, opts))
    }

    fn over_quota(&self, q: &QueueState, opts: &SubmitOptions) -> bool {
        match (&opts.tenant, self.inner.tenant_cap) {
            (Some(t), Some(cap)) => q.occupancy(t) >= cap,
            _ => false,
        }
    }

    fn reject(&self, reason: &str) {
        self.inner.metrics.counter_add("requests_rejected", &[], 1);
        self.inner
            .metrics
            .counter_add("requests_rejected", &[("reason", reason)], 1);
    }

    /// Cancel a queued or running request. Queued: removed and terminal
    /// `Cancelled` immediately. Running: its token fires and the run
    /// stops at the next step (or acoustic-substep) boundary; the
    /// outcome then carries the partial run history, and the instance is
    /// discarded like a failed one — never parked warm. Returns false
    /// when the id is unknown or already terminal.
    pub fn cancel(&self, id: RequestId) -> bool {
        // Fire the token first: even if a slot pops the request between
        // our queue scan and its start, it still stops at a boundary.
        let Some(token) = lock(&self.inner.tokens).get(&id.0).cloned() else {
            return false;
        };
        token.cancel();
        // Still queued? Finalize right here — the waiter should not
        // have to wait for a busy slot to find the tombstone.
        let mut q = lock(&self.inner.queue);
        let victim = q.lanes.iter_mut().find_map(|lane| {
            lane.iter()
                .position(|p| p.id == id.0)
                .and_then(|pos| lane.remove(pos))
        });
        if let Some(victim) = victim {
            q.tenant_release(&victim.tenant);
            drop(q);
            self.inner.space_cv.notify_all();
            finish_queued_cancel(
                &self.inner,
                victim,
                CancelCause::Requested,
            );
        }
        true
    }

    fn enqueue(
        &self,
        mut q: MutexGuard<'_, QueueState>,
        req: ForecastRequest,
        opts: SubmitOptions,
    ) -> RequestId {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let label = if req.label.is_empty() {
            format!("r{id}")
        } else {
            req.label.clone()
        };
        // Every request gets an armed token so `cancel(id)` always has
        // something to fire; a deadline arms it to fire on its own.
        let token = match opts.deadline {
            Some(budget) => CancelToken::with_budget(budget),
            None => CancelToken::new(),
        };
        let deadline = token.deadline();
        lock(&self.inner.tokens).insert(id, token.clone());
        q.tenant_admit(&opts.tenant);
        self.inner.metrics.counter_add("requests_submitted", &[], 1);
        self.inner
            .metrics
            .gauge_high_water("queue_depth_high_water", &[], (q.len() + 1) as f64);
        let steps = req.steps;
        q.lanes[opts.priority.lane()].push_back(Pending {
            id,
            label: label.clone(),
            req,
            submitted: Instant::now(),
            priority: opts.priority,
            deadline,
            tenant: opts.tenant,
            token,
        });
        // Emitted while still holding the queue lock: a slot cannot pop
        // this request (and emit RequestStarted) before Queued is on the
        // bus, so every subscriber sees Queued -> Started in order.
        if let Some(bus) = &self.inner.bus {
            bus.publish(
                Some(&format!("r{id}")),
                RunEvent::RequestQueued {
                    label,
                    steps,
                    queue_depth: q.len() as u64,
                },
            );
        }
        drop(q);
        self.inner.work_cv.notify_one();
        RequestId(id)
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
    pub fn wait(&self, id: RequestId) -> ForecastOutcome {
        self.wait_inner(id, None).expect("unbounded wait")
    }

    /// Like [`wait`](Self::wait) with a deadline; `None` on expiry (the
    /// request stays queued/running and can be waited on again).
    pub fn wait_timeout(&self, id: RequestId, timeout: Duration) -> Option<ForecastOutcome> {
        self.wait_inner(id, Some(Instant::now() + timeout))
    }

    fn wait_inner(&self, id: RequestId, deadline: Option<Instant>) -> Option<ForecastOutcome> {
        let mut r = lock(&self.inner.results);
        loop {
            if let Some(o) = r.remove(&id.0) {
                return Some(o);
            }
            match deadline {
                None => r = wait(&self.inner.done_cv, r),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (g, _) = self
                        .inner
                        .done_cv
                        .wait_timeout(r, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    r = g;
                }
            }
        }
    }

    /// Requests currently queued (not yet picked up by a slot).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// The engine's metrics registry (aggregate + per-request series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The shared kernel worker team.
    pub fn pool(&self) -> &Pool {
        &self.inner.pool
    }

    /// Aggregate counters so far, plus point-in-time occupancy (queue
    /// depth, busy slots, warm-pool size). Read against the flow of a
    /// request — terminal counters, then busy slots, then the queue — so
    /// that a request moving queue → slot → done while the snapshot is
    /// taken is seen in at most one of the three, never two.
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.terminal_counters();
        stats.slots_busy = self.inner.slots_busy() as u64;
        let q = lock(&self.inner.queue);
        stats.lane_depths = q.lane_depths();
        stats.queue_depth = q.len() as u64;
        stats
    }

    /// The counter part of [`EngineStats`]: everything but the occupancy
    /// of queue and slots.
    fn terminal_counters(&self) -> EngineStats {
        let m = &self.inner.metrics;
        EngineStats {
            submitted: m.counter_value("requests_submitted", &[]),
            completed: m.counter_value("requests_completed", &[]),
            failed: m.counter_value("requests_failed", &[]),
            rejected: m.counter_value("requests_rejected", &[]),
            cancelled: m.counter_value("requests_cancelled", &[]),
            evicted: m.counter_value("requests_evicted", &[]),
            shed: m.counter_value("requests_shed", &[]),
            warm_acquires: m.counter_value("warm_acquires", &[]),
            cold_builds: m.counter_value("cold_builds", &[]),
            cache_hits: m.counter_value("kernel_cache_hits", &[]),
            cache_misses: m.counter_value("kernel_cache_misses", &[]),
            slots: self.inner.slots_n as u64,
            warm_pool: self.inner.warm_pool_size() as u64,
            ..EngineStats::default()
        }
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
    /// One consistent view: `slots_busy` is the length of `running`,
    /// `stats` repeats this snapshot's own occupancy, and the three places
    /// a request can be are read against its flow (see
    /// [`stats`](Self::stats)), so `queued + running + done` never exceeds
    /// what was submitted.
    pub fn status(&self) -> EngineStatus {
        let mut stats = self.terminal_counters();
        let mut running: Vec<RequestProgress> = lock(&self.inner.active)
            .iter()
            .map(|(&id, a)| {
                let prog = a.sink.progress().unwrap_or_default();
                RequestProgress {
                    id: RequestId(id),
                    label: a.label.clone(),
                    steps_done: prog.steps_done,
                    steps_budget: a.steps_budget,
                    last_step_seconds: prog.last_step_seconds,
                    last_healthy: prog.last_healthy,
                }
            })
            .collect();
        running.sort_by_key(|r| r.id);
        let (queued, tenants) = {
            let q = lock(&self.inner.queue);
            let queued: Vec<(RequestId, String)> = q
                .lanes
                .iter()
                .flatten()
                .map(|p| (RequestId(p.id), p.label.clone()))
                .collect();
            let mut tenants: Vec<(String, usize)> =
                q.tenants.iter().map(|(t, &n)| (t.clone(), n)).collect();
            tenants.sort();
            stats.lane_depths = q.lane_depths();
            (queued, tenants)
        };
        stats.queue_depth = queued.len() as u64;
        stats.slots_busy = running.len() as u64;
        let (events_published, events_dropped) = self
            .inner
            .bus
            .as_ref()
            .map(|b| (b.events_published(), b.events_dropped()))
            .unwrap_or((0, 0));
        EngineStatus {
            queued,
            tenants,
            slots: self.inner.slots_n,
            slots_busy: running.len(),
            running,
            warm_pool: stats.warm_pool as usize,
            events_published,
            events_dropped,
            stats,
        }
    }

    /// Stop accepting work, drain the queue, join every slot, and return
    /// the final counters. Outcomes not yet taken with
    /// [`wait`](Self::wait) are dropped.
    pub fn shutdown(mut self) -> EngineStats {
        self.close_and_join();
        self.stats()
    }

    fn close_and_join(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.open = false;
        }
        self.inner.work_cv.notify_all();
        self.inner.space_cv.notify_all();
        for h in self.slots.drain(..) {
            let _ = h.join();
        }
        self.inner.stopping.store(true, Ordering::Relaxed);
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

fn slot_loop(inner: &Arc<EngineInner>) {
    loop {
        let pending = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(p) = q.pop_next() {
                    inner.space_cv.notify_one();
                    break p;
                }
                if !q.open {
                    return;
                }
                q = wait(&inner.work_cv, q);
            }
        };
        // Admission check at pickup: a token that fired while the
        // request sat in the queue means it never starts — deadline
        // expiry evicts, an explicit cancel the queue scan lost the
        // race with finalizes here instead.
        if let Some(cause) = pending.token.cause() {
            inner.release_tenant(&pending.tenant);
            match cause {
                CancelCause::Deadline => evict_expired(inner, pending),
                CancelCause::Requested => finish_queued_cancel(inner, pending, cause),
            }
            continue;
        }
        let tenant = pending.tenant.clone();
        let outcome = run_request(inner, pending);
        inner.release_tenant(&tenant);
        inner.deposit(outcome);
    }
}

/// The one terminal path: what every finished request owes the outside
/// besides its slot — counter, labelled counter or histogram, event and
/// outcome — all derived from `result`. `steps_done` is how far a run that
/// failed got. The caller deposits the outcome, and ticks unless it holds
/// the queue lock.
fn terminal(
    inner: &EngineInner,
    p: Pending,
    queued_seconds: f64,
    run_seconds: f64,
    steps_done: u64,
    result: ForecastResult,
) -> ForecastOutcome {
    let m = &inner.metrics;
    let id = RequestId(p.id);
    let rid = id.to_string();
    let event = match &result {
        ForecastResult::Completed(rep) => {
            m.counter_add("requests_completed", &[], 1);
            m.observe("request_run_seconds", &[], run_seconds);
            m.counter_add("request_steps", &[("request", &rid)], rep.steps);
            RunEvent::RequestCompleted {
                steps: rep.steps,
                run_seconds,
            }
        }
        ForecastResult::Failed(e) => {
            m.counter_add("requests_failed", &[], 1);
            m.counter_add("request_failed", &[("request", &rid)], 1);
            RunEvent::RequestFailed {
                step: steps_done,
                detail: e.to_string(),
            }
        }
        ForecastResult::Cancelled(c) => {
            m.counter_add("requests_cancelled", &[], 1);
            m.counter_add("requests_cancelled", &[("cause", c.cause.label())], 1);
            RunEvent::RequestCancelled {
                cause: c.cause.label().to_string(),
                steps_done: c.steps_done,
            }
        }
        ForecastResult::Evicted {
            past_deadline_seconds,
        } => {
            m.counter_add("requests_evicted", &[], 1);
            m.observe("eviction_past_deadline_seconds", &[], *past_deadline_seconds);
            RunEvent::RequestEvicted {
                past_deadline_seconds: *past_deadline_seconds,
            }
        }
        ForecastResult::Shed { lane } => {
            m.counter_add("requests_shed", &[], 1);
            m.counter_add("requests_shed", &[("lane", lane.label())], 1);
            RunEvent::RequestShed {
                lane: lane.label().to_string(),
            }
        }
    };
    if let Some(bus) = &inner.bus {
        bus.publish(Some(&rid), event);
    }
    ForecastOutcome {
        id,
        label: p.label,
        queued_seconds,
        run_seconds,
        result,
    }
}

/// Terminal for a request that never started: it queued until now and ran
/// for no time.
fn finish_unstarted(inner: &EngineInner, victim: Pending, result: ForecastResult) {
    let queued = victim.submitted.elapsed().as_secs_f64();
    inner.deposit(terminal(inner, victim, queued, 0.0, 0, result));
}

/// Terminal `Shed`. Called with the queue lock held (so no tick, which
/// reads the queue); the victim is already popped from its lane.
fn shed_victim(inner: &EngineInner, q: &mut QueueState, victim: Pending) {
    q.tenant_release(&victim.tenant);
    let lane = victim.priority;
    finish_unstarted(inner, victim, ForecastResult::Shed { lane });
    inner.space_cv.notify_all();
}

/// Terminal `Cancelled` for a request that never started.
fn finish_queued_cancel(inner: &EngineInner, victim: Pending, cause: CancelCause) {
    let run = CancelledRun {
        cause,
        steps_done: 0,
        run: None,
    };
    finish_unstarted(inner, victim, ForecastResult::Cancelled(run));
    inner.emit_tick();
}

/// Terminal `Evicted`: the deadline expired while the request was still
/// queued.
fn evict_expired(inner: &EngineInner, victim: Pending) {
    let past_deadline_seconds = victim
        .deadline
        .map(|d| Instant::now().saturating_duration_since(d).as_secs_f64())
        .unwrap_or(0.0);
    let result = ForecastResult::Evicted {
        past_deadline_seconds,
    };
    finish_unstarted(inner, victim, result);
    inner.emit_tick();
}

fn run_request(inner: &Arc<EngineInner>, p: Pending) -> ForecastOutcome {
    let id = RequestId(p.id);
    let rid = id.to_string();
    let queued = p.submitted.elapsed().as_secs_f64();
    let m = &inner.metrics;
    m.counter_add("requests_started", &[], 1);
    m.observe("request_queued_seconds", &[], queued);
    // Per-request telemetry sink: streams to the bus when the engine has
    // one, and maintains the progress mirror status() reads either way.
    let sink = match &inner.bus {
        Some(bus) => EventSink::for_request(bus, &rid),
        None => EventSink::progress_only(&rid),
    };
    lock(&inner.active).insert(
        p.id,
        ActiveRequest {
            label: p.label.clone(),
            steps_budget: p.req.steps,
            sink: sink.clone(),
        },
    );
    sink.emit(RunEvent::RequestStarted {
        queued_seconds: queued,
    });
    inner.emit_tick();
    // Everything below the front door reads this request's context and
    // nothing process-wide: its token stops this run at its next
    // boundary, its scope of the engine's fault plan logs only what
    // fires in it, its spans land under its own `request` span.
    let ctx = RunContext {
        request: Some(rid.as_str().into()),
        cancel: p.token.clone(),
        sink: sink.clone(),
        faults: inner.faults.scoped(),
        tracer: inner.tracer.clone(),
        metrics: None,
    };
    let _span = ctx.span("request", &rid);
    let t0 = Instant::now();
    // A panic escaping the supervised region (an engine bug, not a model
    // blowup) fails this request only — never the slot.
    let result = match catch_unwind(AssertUnwindSafe(|| execute(inner, &p, ctx))) {
        Ok(res) => res,
        Err(payload) => ForecastResult::Failed(EngineFailure::Panic(panic_text(&*payload))),
    };
    let run_seconds = t0.elapsed().as_secs_f64();
    let steps_done = sink.progress().map(|pr| pr.steps_done).unwrap_or(0);
    // Off the running set before the terminal is counted: no snapshot
    // sees this request both running and done.
    lock(&inner.active).remove(&id.0);
    let outcome = terminal(inner, p, queued, run_seconds, steps_done, result);
    inner.emit_tick();
    outcome
}

fn execute(inner: &Arc<EngineInner>, p: &Pending, ctx: RunContext) -> ForecastResult {
    let key = CaseKey::of(&p.req);
    let (mut d, basis, warm_start) = acquire(inner, key, &p.req);
    let rid = ctx.request.clone().expect("a served run has a request id");
    // The instance (and, through it, the supervisor) runs under this
    // request's context for the duration of the run; release() detaches
    // it before parking.
    d.set_run(ctx);
    let (h0, m0) = d.exec_cache_counters();
    let mut sup = Supervisor::new(inner.policy.clone());
    // The template the instance was just built into or rewound through
    // *is* its step-0 state: the supervisor starts from it, no capture.
    let res = sup.run_from(&mut d, p.req.steps, Some(basis));
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
                steps: p.req.steps,
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
            match engine.try_submit(small_request(1)) {
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
