//! The engine's public vocabulary: what a client submits, how it is
//! admitted, and what it gets back.

use fv3::dyn_core::DycoreConfig;
use fv3::state::DycoreState;
use fv3core::{Checkpoint, DriverConfig};
use machine::cancel::CancelCause;
use machine::pool::Pool;
use resilience::{FaultPlan, RunReport, SupervisedError, SupervisorPolicy};
use std::fmt;
use std::time::Duration;

/// Engine-assigned request identifier; labels every metric, span, and
/// error the request produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The scenario a request wants forecast. The library has one entry; it
/// is part of the case key so a future scenario with identical numerics
/// still gets its own compile bundle when its initial conditions differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scenario {
    /// The c-grid baroclinic instability wave (DCMIP-style), the repo's
    /// golden-anchored case.
    #[default]
    BaroclinicWave,
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
    pub(crate) fn lane(self) -> usize {
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
/// [`ForecastEngine::submit_with`](crate::ForecastEngine::submit_with) /
/// [`try_submit_with`](crate::ForecastEngine::try_submit_with).
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

/// A refused submission ([`try_submit_with`](crate::ForecastEngine::try_submit_with)); hands the
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

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Concurrent run slots (each one OS thread executing requests).
    pub slots: usize,
    /// Submission-queue capacity; [`submit`](crate::ForecastEngine::submit) blocks and
    /// [`try_submit_with`](crate::ForecastEngine::try_submit_with) refuses beyond it (admission
    /// control at the front door).
    pub queue_cap: usize,
    /// Every instance's rank-team width: `Some(p)` runs each instance at
    /// `min(ranks, p.workers())`, on rank threads when that is above 1,
    /// whatever the environment says; `None` leaves each instance the
    /// width `FV3_WORKERS` gives it at construction (the team of one
    /// unless above 1). Kernels run on the thread of the rank (or slot)
    /// that launches them.
    pub pool: Option<Pool>,
    /// Per-request supervision policy.
    pub policy: SupervisorPolicy,
    /// Live telemetry ([`obs::stream`]): when true the engine owns an
    /// [`obs::stream::EventBus`] and every request streams its lifecycle and per-step
    /// events ([`subscribe`](crate::ForecastEngine::subscribe)). When false the bus is
    /// never created and the hot path publishes nothing — runs are
    /// bit-identical either way (events carry copies, never borrows).
    pub streaming: bool,
    /// Per-subscriber event-buffer capacity; when a slow subscriber
    /// falls this far behind, its *oldest* events are dropped and
    /// counted (`events_dropped`) — a subscriber can never stall a slot.
    pub stream_buffer: usize,
    /// Cadence for periodic [`obs::stream::RunEvent::EngineTick`] snapshots from a
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
    /// Whole rank states this request copied: the case's template (its
    /// capture, for the case's first request; the copy it was built
    /// from, for every later one) and each rollback point it captured
    /// (`DistributedDycore::take_state_copies`).
    pub state_copies: u64,
    /// Whether the request was built from its case's existing template
    /// (false: it built the case).
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

/// A run stopped by its [`CancelToken`](machine::cancel::CancelToken) —
/// explicit [`cancel`] (`ForecastEngine::cancel`) or deadline expiry.
///
/// [`cancel`]: crate::ForecastEngine::cancel
#[derive(Debug)]
pub struct CancelledRun {
    pub cause: CancelCause,
    /// Steps that completed before the token fired (0: cancelled while
    /// still queued).
    pub steps_done: u64,
    /// The partial supervised-run history, when the request had started
    /// (`None`: cancelled in the queue).
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

/// Counts since the engine started — admissions, refusals and the five
/// terminals from the admission tally, the rest from the engine's own
/// counters — plus point-in-time occupancy: current queue depth and busy
/// run slots.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// `try_submit_with` refusals (a blocking submitter waits instead).
    pub rejected: u64,
    /// Requests cancelled (explicit or deadline), queued or running.
    pub cancelled: u64,
    /// Queued requests whose deadline expired before a slot found them.
    pub evicted: u64,
    /// Requests shed from the queue under overload.
    pub shed: u64,
    /// Requests built from their case's existing template.
    pub warm_acquires: u64,
    /// Requests that built their case: bundle, grids and template.
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
/// ([`status`](crate::ForecastEngine::status)): what is queued, what is running and how
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
