//! Admission as one value: the three lanes, tenant occupancy, the running
//! set, deposited outcomes, the terminal tally, the next id and the open
//! flag of one engine, and the rules that move a request between them.
//!
//! Every method is a pure transition: the clock is an argument and each
//! method returns what happened. Publishing, waking, firing a running
//! request's token and the counts no transition sees (warm acquires,
//! cache traffic) are the shell's (`lib.rs`), which holds this value in
//! one mutex. The rules:
//!
//! * **Quota before capacity.** A tenant at `tenant_cap` (queued +
//!   running) is refused, and nothing is shed for it.
//! * **Shed strictly downward.** At `queue_cap` the newest request of the
//!   lowest non-empty lane strictly below the submitter's is shed; with
//!   none, the submitter is refused.
//! * **Pop in lane order**, FIFO within a lane; a popped request whose
//!   deadline is not after `now` is evicted instead of run.
//! * **One terminal each.** An admitted id leaves the queue or the running
//!   set exactly once, into the outcome map and the tally, so `queued +
//!   running + terminals == submitted` in every state; `take` hands each
//!   outcome out once.
//!
//! The tests below enumerate every interleaving of these transitions for
//! small bounds and check the rules at every state reached.

use crate::{
    CancelledRun, EngineStats, EngineStatus, ForecastOutcome, ForecastRequest, ForecastResult,
    Priority, Rejected, RequestId, RequestProgress, SubmitOptions,
};
use machine::cancel::{CancelCause, CancelToken};
use obs::stream::EventSink;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What admission needs of time: instants that order, a budget added to
/// one, the seconds between two, and a cancel token that fires at one on
/// its own. The engine's clock is [`Instant`]; the enumeration's counts
/// ticks.
pub(crate) trait Clock: Copy + Ord {
    fn after(self, budget: Duration) -> Self;
    fn seconds_since(self, earlier: Self) -> f64;
    fn token(deadline: Option<Self>) -> CancelToken;
}

impl Clock for Instant {
    fn after(self, budget: Duration) -> Self {
        self + budget
    }

    fn seconds_since(self, earlier: Self) -> f64 {
        self.saturating_duration_since(earlier).as_secs_f64()
    }

    fn token(deadline: Option<Self>) -> CancelToken {
        deadline.map_or_else(CancelToken::new, CancelToken::with_deadline)
    }
}

#[derive(Clone)]
struct Queued<T> {
    id: u64,
    /// Labelled: the client's label, else the id.
    req: ForecastRequest,
    lane: Priority,
    submitted: T,
    deadline: Option<T>,
    tenant: Option<String>,
}

/// An admitted submission, and the queued request shed to make room for
/// it (its outcome is deposited).
pub(crate) struct Admitted {
    pub id: RequestId,
    pub label: String,
    pub shed: Option<RequestId>,
}

/// A request a slot runs. The running set keeps a copy: its token is
/// what `cancel` fires, its sink's progress mirror what `snapshot` reads.
#[derive(Clone)]
pub(crate) struct Job {
    pub id: RequestId,
    /// Labelled: the client's label, else the id.
    pub req: ForecastRequest,
    pub queued_seconds: f64,
    pub token: CancelToken,
    pub sink: EventSink,
    tenant: Option<String>,
}

pub(crate) enum Pop {
    Run(Job),
    /// Popped past its deadline; its `Evicted` outcome is deposited.
    Evict(RequestId),
    /// Nothing queued; the engine is open.
    Idle,
    /// Nothing queued and the engine is closed: the slot exits.
    Closed,
}

pub(crate) enum Cancel {
    /// Removed from its lane; its `Cancelled` outcome is deposited.
    Queued,
    /// Running: the caller fires the token and the run stops at a
    /// boundary.
    Running(CancelToken),
    /// Terminal, or never issued.
    Unknown,
}

pub(crate) struct Admission<T = Instant> {
    queue_cap: usize,
    tenant_cap: Option<usize>,
    /// One FIFO per lane, scheduling order (High, Normal, Batch).
    lanes: [VecDeque<Queued<T>>; 3],
    /// Queued + running requests per tenant; absent at zero.
    tenants: BTreeMap<String, usize>,
    running: BTreeMap<u64, Job>,
    /// Terminal outcomes not yet taken.
    outcomes: HashMap<u64, ForecastOutcome>,
    /// Admissions, refusals and the five terminals since start; nothing
    /// else set.
    tally: EngineStats,
    next_id: u64,
    open: bool,
}

impl<T: Clock> Admission<T> {
    pub fn new(queue_cap: usize, tenant_cap: Option<usize>) -> Self {
        Admission {
            queue_cap: queue_cap.max(1),
            tenant_cap,
            lanes: Default::default(),
            tenants: BTreeMap::new(),
            running: BTreeMap::new(),
            outcomes: HashMap::new(),
            tally: EngineStats::default(),
            next_id: 1,
            open: true,
        }
    }

    /// Requests queued now.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Requests queued and running now, read together.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.queued(), self.running.len())
    }

    /// Closed, with nothing queued or running: only `take` is left.
    pub fn drained(&self) -> bool {
        !self.open && self.running.is_empty() && self.queued() == 0
    }

    /// Shut down: `pop` hands out what is still queued, then answers
    /// `Closed`.
    pub fn close(&mut self) {
        self.open = false;
    }

    /// The one admission decision of `submit_with` and `try_submit_with`:
    /// admit `req` (shedding a lower-lane request if the queue is full),
    /// or refuse it and hand it back.
    pub fn submit(
        &mut self,
        now: T,
        mut req: ForecastRequest,
        opts: &SubmitOptions,
    ) -> Result<Admitted, Rejected> {
        if let (Some(tenant), Some(cap)) = (&opts.tenant, self.tenant_cap) {
            if self.tenants.get(tenant).copied().unwrap_or(0) >= cap {
                let tenant = tenant.clone();
                return Err(Rejected::QuotaExceeded { tenant, req });
            }
        }
        let mut shed = None;
        if self.queued() >= self.queue_cap {
            let below = &mut self.lanes[opts.priority.lane() + 1..];
            let Some(victim) = below.iter_mut().rev().find_map(VecDeque::pop_back) else {
                return Err(Rejected::QueueFull(req));
            };
            shed = Some(RequestId(victim.id));
            let lane = victim.lane;
            self.unstarted(now, victim, ForecastResult::Shed { lane });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tally.submitted += 1;
        if let Some(tenant) = &opts.tenant {
            *self.tenants.entry(tenant.clone()).or_insert(0) += 1;
        }
        if req.label.is_empty() {
            req.label = RequestId(id).to_string();
        }
        let label = req.label.clone();
        self.lanes[opts.priority.lane()].push_back(Queued {
            id,
            req,
            lane: opts.priority,
            submitted: now,
            deadline: opts.deadline.map(|budget| now.after(budget)),
            tenant: opts.tenant.clone(),
        });
        Ok(Admitted {
            id: RequestId(id),
            label,
            shed,
        })
    }

    /// A non-blocking submit was refused: count it. A blocking submitter
    /// that finds no room waits instead, and is not counted.
    pub fn refused(&mut self) {
        self.tally.rejected += 1;
    }

    /// Hand the next request in scheduling order to a slot, with a token
    /// armed at its deadline and the sink `sink` makes for it.
    pub fn pop(&mut self, now: T, sink: impl FnOnce(RequestId) -> EventSink) -> Pop {
        let Some(q) = self.lanes.iter_mut().find_map(VecDeque::pop_front) else {
            return if self.open { Pop::Idle } else { Pop::Closed };
        };
        let id = RequestId(q.id);
        if let Some(deadline) = q.deadline.filter(|&d| d <= now) {
            let past_deadline_seconds = now.seconds_since(deadline);
            self.unstarted(
                now,
                q,
                ForecastResult::Evicted {
                    past_deadline_seconds,
                },
            );
            return Pop::Evict(id);
        }
        let job = Job {
            id,
            req: q.req,
            queued_seconds: now.seconds_since(q.submitted),
            token: T::token(q.deadline),
            sink: sink(id),
            tenant: q.tenant,
        };
        self.running.insert(q.id, job.clone());
        Pop::Run(job)
    }

    pub fn cancel(&mut self, now: T, id: RequestId) -> Cancel {
        if let Some(r) = self.running.get(&id.0) {
            return Cancel::Running(r.token.clone());
        }
        for lane in &mut self.lanes {
            if let Some(i) = lane.iter().position(|q| q.id == id.0) {
                let q = lane.remove(i).expect("a position in the lane");
                let run = CancelledRun {
                    cause: CancelCause::Requested,
                    steps_done: 0,
                    run: None,
                };
                self.unstarted(now, q, ForecastResult::Cancelled(run));
                return Cancel::Queued;
            }
        }
        Cancel::Unknown
    }

    /// A slot's request reached its terminal: off the running set, into
    /// the outcomes.
    pub fn finish(&mut self, outcome: ForecastOutcome) {
        let r = self
            .running
            .remove(&outcome.id.0)
            .expect("only a running request finishes");
        self.vacate(&r.tenant);
        self.deposit(outcome);
    }

    /// The outcome of `id`, once: `None` while it is live, and forever
    /// after it was taken (or when it was never issued).
    pub fn take(&mut self, id: RequestId) -> Option<ForecastOutcome> {
        self.outcomes.remove(&id.0)
    }

    /// Queued or running: an outcome is still to come.
    pub fn live(&self, id: RequestId) -> bool {
        let queued = || self.lanes.iter().flatten().any(|q| q.id == id.0);
        self.running.contains_key(&id.0) || queued()
    }

    /// A deposited outcome not yet taken, for the shell to announce.
    pub fn outcome(&self, id: RequestId) -> &ForecastOutcome {
        &self.outcomes[&id.0]
    }

    /// One consistent view of every request: the queue in scheduling
    /// order, the running set by id, tenants by name, the tally and the
    /// occupancy. The engine-wide fields — slots, warm pool, bus and cache
    /// counters — are the shell's and left zero.
    pub fn snapshot(&self) -> EngineStatus {
        let running = self.running.iter().map(|(&id, r)| {
            let progress = r.sink.progress().unwrap_or_default();
            RequestProgress {
                id: RequestId(id),
                label: r.req.label.clone(),
                steps_done: progress.steps_done,
                steps_budget: r.req.steps,
                last_step_seconds: progress.last_step_seconds,
                last_healthy: progress.last_healthy,
            }
        });
        let queued = self.lanes.iter().flatten();
        let queued: Vec<_> = queued
            .map(|q| (RequestId(q.id), q.req.label.clone()))
            .collect();
        let running: Vec<_> = running.collect();
        let stats = EngineStats {
            queue_depth: queued.len() as u64,
            lane_depths: self.lanes.each_ref().map(|l| l.len() as u64),
            slots_busy: running.len() as u64,
            ..self.tally
        };
        EngineStatus {
            queued,
            tenants: self.tenants.iter().map(|(t, &n)| (t.clone(), n)).collect(),
            slots: 0,
            slots_busy: running.len(),
            running,
            events_published: 0,
            events_dropped: 0,
            stats,
        }
    }

    /// Terminal for a request that left the queue without running.
    fn unstarted(&mut self, now: T, q: Queued<T>, result: ForecastResult) {
        self.vacate(&q.tenant);
        self.deposit(ForecastOutcome {
            id: RequestId(q.id),
            label: q.req.label,
            queued_seconds: now.seconds_since(q.submitted),
            run_seconds: 0.0,
            result,
        });
    }

    /// Give back one of `tenant`'s places under its quota.
    fn vacate(&mut self, tenant: &Option<String>) {
        if let Some(t) = tenant {
            match self.tenants[t] {
                1 => self.tenants.remove(t),
                n => self.tenants.insert(t.clone(), n - 1),
            };
        }
    }

    fn deposit(&mut self, outcome: ForecastOutcome) {
        let t = &mut self.tally;
        *match outcome.result {
            ForecastResult::Completed(_) => &mut t.completed,
            ForecastResult::Failed(_) => &mut t.failed,
            ForecastResult::Cancelled(_) => &mut t.cancelled,
            ForecastResult::Evicted { .. } => &mut t.evicted,
            ForecastResult::Shed { .. } => &mut t.shed,
        } += 1;
        self.outcomes.insert(outcome.id.0, outcome);
    }
}

#[cfg(test)]
mod tests {
    //! The admission rules as checked theorems. `enumerate` visits every
    //! state reachable from a fresh machine within `depth` transitions —
    //! breadth first, so each state is expanded at its shallowest depth —
    //! and applies every enabled transition to each:
    //!
    //! * submit in each lane × {untagged, tenant `a`, tenant `b` with a
    //!   one-tick deadline}. `submit_with` and `try_submit_with` are
    //!   this one transition: a refused blocking submitter retries at a
    //!   later state, which is another submit;
    //! * pop, while a slot is free;
    //! * finish of each running id (odd ids fail, even ids end in a
    //!   deadline cancel: a running request's deadline is a finish);
    //! * cancel of each live id and of the next, never-issued one;
    //! * take of each claimable outcome;
    //! * one clock tick (the clock runs 0..=`TICKS`).
    //!
    //! No thread and no clock: time is a tick count and tokens carry no
    //! deadline. Each transition is checked against a shadow of what the
    //! machine has answered so far; each state reached is checked for
    //! conservation, then drained — closed, every request popped and
    //! finished, every id taken twice and cancelled — to show each
    //! admitted id reaches exactly one terminal and hands its outcome out
    //! once.

    use super::*;
    use crate::EngineFailure;
    use std::collections::{BTreeSet, HashSet};

    impl Clock for u64 {
        fn after(self, budget: Duration) -> Self {
            self + budget.as_secs()
        }

        fn seconds_since(self, earlier: Self) -> f64 {
            (self - earlier) as f64
        }

        fn token(_: Option<Self>) -> CancelToken {
            CancelToken::new()
        }
    }

    impl EngineStats {
        fn terminals(&self) -> u64 {
            self.completed + self.failed + self.cancelled + self.evicted + self.shed
        }
    }

    const TICKS: u64 = 1;
    /// (tenant, deadline in ticks) of the submit variants, in each lane.
    const OFFERS: [(Option<&str>, Option<u64>); 3] =
        [(None, None), (Some("a"), None), (Some("b"), Some(1))];

    #[derive(Clone, Copy, Debug)]
    struct Bounds {
        slots: usize,
        queue_cap: usize,
        tenant_cap: usize,
        depth: usize,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Submit {
            lane: Priority,
            tenant: Option<&'static str>,
            deadline: Option<u64>,
        },
        Pop,
        Finish(u64),
        Cancel(u64),
        Take(u64),
        Tick,
    }

    /// What a queued id was admitted with.
    #[derive(Clone, Copy)]
    struct Ticket {
        lane: usize,
        tenant: Option<&'static str>,
        deadline: Option<u64>,
    }

    /// The machine, its clock, and what its answers said so far.
    struct World {
        a: Admission<u64>,
        now: u64,
        queued: BTreeMap<u64, Ticket>,
        running: BTreeMap<u64, Option<&'static str>>,
        terminal: BTreeSet<u64>,
        taken: BTreeSet<u64>,
        admitted: u64,
    }

    /// The outcomes the enumeration makes, copied.
    fn copy(o: &ForecastOutcome) -> ForecastOutcome {
        let result = match &o.result {
            ForecastResult::Failed(EngineFailure::Panic(p)) => {
                ForecastResult::Failed(EngineFailure::Panic(p.clone()))
            }
            ForecastResult::Cancelled(c) => ForecastResult::Cancelled(CancelledRun {
                cause: c.cause,
                steps_done: c.steps_done,
                run: None,
            }),
            ForecastResult::Evicted {
                past_deadline_seconds,
            } => ForecastResult::Evicted {
                past_deadline_seconds: *past_deadline_seconds,
            },
            ForecastResult::Shed { lane } => ForecastResult::Shed { lane: *lane },
            other => unreachable!("the enumeration never makes '{}'", other.terminal()),
        };
        ForecastOutcome {
            label: o.label.clone(),
            result,
            ..*o
        }
    }

    fn tenant_code(t: &Option<String>) -> u64 {
        match t.as_deref() {
            None => 0,
            Some("a") => 1,
            Some(_) => 2,
        }
    }

    impl World {
        fn new(b: Bounds) -> Self {
            World {
                a: Admission::new(b.queue_cap, Some(b.tenant_cap)),
                now: 0,
                queued: BTreeMap::new(),
                running: BTreeMap::new(),
                terminal: BTreeSet::new(),
                taken: BTreeSet::new(),
                admitted: 0,
            }
        }

        fn fork(&self) -> Self {
            let a = &self.a;
            World {
                a: Admission {
                    lanes: a.lanes.clone(),
                    tenants: a.tenants.clone(),
                    running: a.running.clone(),
                    outcomes: a.outcomes.iter().map(|(&id, o)| (id, copy(o))).collect(),
                    ..*a
                },
                queued: self.queued.clone(),
                running: self.running.clone(),
                terminal: self.terminal.clone(),
                taken: self.taken.clone(),
                ..*self
            }
        }

        /// Everything a later transition or check reads: two worlds with
        /// one key behave alike from here on.
        fn key(&self) -> Vec<u64> {
            let a = &self.a;
            let t = a.tally;
            let mut k = vec![self.now, a.open as u64, a.next_id, t.completed, t.failed];
            k.extend([t.cancelled, t.evicted, t.shed, u64::MAX]);
            for q in a.lanes.iter().flatten() {
                let deadline = q.deadline.unwrap_or(u64::MAX);
                k.extend([q.id, q.lane.lane() as u64, tenant_code(&q.tenant), deadline]);
            }
            k.push(u64::MAX);
            for (&id, r) in &a.running {
                k.extend([id, tenant_code(&r.tenant)]);
            }
            k.push(u64::MAX);
            let mut done: Vec<u64> = a.outcomes.keys().copied().collect();
            done.sort_unstable();
            k.extend(done);
            k
        }

        fn occupancy(&self, tenant: &str) -> usize {
            let queued = self.queued.values().filter(|t| t.tenant == Some(tenant));
            let running = self.running.values().filter(|t| **t == Some(tenant));
            queued.count() + running.count()
        }

        /// The queued id a pop must hand out: highest lane, then oldest.
        fn head(&self) -> Option<u64> {
            let head = self.queued.iter().min_by_key(|(&id, t)| (t.lane, id));
            head.map(|(&id, _)| id)
        }

        fn live(&self, id: u64) -> bool {
            self.queued.contains_key(&id) || self.running.contains_key(&id)
        }

        fn reach_terminal(&mut self, id: u64) {
            assert!(id <= self.admitted, "r{id} ended but was never admitted");
            assert!(self.terminal.insert(id), "r{id} reached a second terminal");
        }

        fn steps(&self, b: Bounds) -> Vec<Step> {
            let mut steps = Vec::new();
            for lane in Priority::ALL {
                for (tenant, deadline) in OFFERS {
                    steps.push(Step::Submit {
                        lane,
                        tenant,
                        deadline,
                    });
                }
            }
            if self.running.len() < b.slots {
                steps.push(Step::Pop);
            }
            steps.extend(self.running.keys().map(|&id| Step::Finish(id)));
            let live = self.queued.keys().chain(self.running.keys());
            steps.extend(live.map(|&id| Step::Cancel(id)));
            steps.push(Step::Cancel(self.admitted + 1));
            let claimable = self.terminal.difference(&self.taken);
            steps.extend(claimable.map(|&id| Step::Take(id)));
            if self.now < TICKS {
                steps.push(Step::Tick);
            }
            steps
        }

        /// Apply `step`, checking what the machine answers against the
        /// shadow, then update the shadow.
        fn apply(&mut self, step: Step, b: Bounds) {
            let now = self.now;
            match step {
                Step::Submit {
                    lane,
                    tenant,
                    deadline,
                } => {
                    let opts = SubmitOptions {
                        priority: lane,
                        deadline: deadline.map(Duration::from_secs),
                        tenant: tenant.map(str::to_string),
                    };
                    let at_cap = tenant.is_some_and(|t| self.occupancy(t) >= b.tenant_cap);
                    let full = self.queued.len() >= b.queue_cap;
                    let below = self.queued.iter().filter(|(_, t)| t.lane > lane.lane());
                    let victim = below.max_by_key(|(&id, t)| (t.lane, id)).map(|(&id, _)| id);
                    let before = self.key();
                    match self.a.submit(now, ForecastRequest::c8l6(1), &opts) {
                        Err(Rejected::QuotaExceeded { tenant: t, .. }) => {
                            assert!(at_cap, "{t} refused under its cap");
                            assert_eq!(self.key(), before, "a quota refusal changed the state");
                        }
                        Err(Rejected::QueueFull(_)) => {
                            assert!(!at_cap, "quota is checked before capacity");
                            assert!(full && victim.is_none(), "refused with room to admit");
                            assert_eq!(
                                self.key(),
                                before,
                                "a full-queue refusal changed the state"
                            );
                        }
                        Ok(Admitted { id, shed, .. }) => {
                            assert!(!at_cap, "a tenant at its cap was admitted");
                            self.admitted += 1;
                            assert_eq!(id.0, self.admitted, "ids are issued in order");
                            if full {
                                let v = shed.expect("a full queue admits only by shedding").0;
                                assert_eq!(
                                    Some(v),
                                    victim,
                                    "shed other than the newest of the lowest lane below"
                                );
                                assert!(
                                    self.queued[&v].lane > lane.lane(),
                                    "shed at or above its own lane"
                                );
                                self.queued.remove(&v);
                                self.reach_terminal(v);
                            } else {
                                assert!(shed.is_none(), "shed with room in the queue");
                            }
                            let ticket = Ticket {
                                lane: lane.lane(),
                                tenant,
                                deadline: deadline.map(|d| now + d),
                            };
                            self.queued.insert(id.0, ticket);
                        }
                    }
                }
                Step::Pop => {
                    let head = self.head();
                    match self.a.pop(now, |_| EventSink::default()) {
                        Pop::Run(job) => {
                            assert_eq!(
                                Some(job.id.0),
                                head,
                                "popped out of lane order, or never queued"
                            );
                            let t = self.queued.remove(&job.id.0).expect("the head is queued");
                            assert!(t.deadline.is_none_or(|d| d > now), "ran past its deadline");
                            self.running.insert(job.id.0, t.tenant);
                        }
                        Pop::Evict(id) => {
                            assert_eq!(Some(id.0), head, "evicted out of lane order");
                            let t = self.queued.remove(&id.0).expect("the head is queued");
                            let d = t.deadline.expect("evicted without a deadline");
                            assert!(d <= now, "evicted before its deadline");
                            match self.a.outcome(id).result {
                                ForecastResult::Evicted {
                                    past_deadline_seconds,
                                } => assert_eq!(past_deadline_seconds, (now - d) as f64),
                                ref other => panic!("eviction deposited '{}'", other.terminal()),
                            }
                            self.reach_terminal(id.0);
                        }
                        Pop::Idle => {
                            assert!(head.is_none() && self.a.open, "idle with work queued")
                        }
                        Pop::Closed => {
                            assert!(head.is_none() && !self.a.open, "closed with work queued")
                        }
                    }
                }
                Step::Finish(id) => {
                    let result = if id % 2 == 1 {
                        ForecastResult::Failed(EngineFailure::Panic("enumerated".into()))
                    } else {
                        ForecastResult::Cancelled(CancelledRun {
                            cause: CancelCause::Deadline,
                            steps_done: 0,
                            run: None,
                        })
                    };
                    self.a.finish(ForecastOutcome {
                        id: RequestId(id),
                        label: String::new(),
                        queued_seconds: 0.0,
                        run_seconds: 0.0,
                        result,
                    });
                    self.running.remove(&id).expect("finish takes a running id");
                    self.reach_terminal(id);
                }
                Step::Cancel(id) => {
                    let before = self.key();
                    match self.a.cancel(now, RequestId(id)) {
                        Cancel::Running(_) => {
                            assert!(self.running.contains_key(&id), "r{id} cancelled as running");
                            assert_eq!(
                                self.key(),
                                before,
                                "cancelling a running request changed the state"
                            );
                        }
                        Cancel::Queued => {
                            assert!(
                                self.queued.remove(&id).is_some(),
                                "r{id} cancelled as queued"
                            );
                            self.reach_terminal(id);
                        }
                        Cancel::Unknown => {
                            assert!(!self.live(id), "a live r{id} is unknown to cancel");
                            assert_eq!(self.key(), before, "an unknown cancel changed the state");
                        }
                    }
                }
                Step::Take(id) => {
                    let ready = self.terminal.contains(&id) && !self.taken.contains(&id);
                    assert_eq!(self.a.live(RequestId(id)), self.live(id), "r{id} live");
                    match self.a.take(RequestId(id)) {
                        Some(o) => {
                            assert!(
                                ready && o.id.0 == id,
                                "r{id} handed out an outcome it does not own"
                            );
                            self.taken.insert(id);
                        }
                        None => assert!(!ready, "r{id} withheld a claimable outcome"),
                    }
                }
                Step::Tick => self.now += 1,
            }
        }

        /// Conservation, and the machine's own view equal to the shadow.
        fn check(&self) {
            let s = self.a.snapshot();
            let t = s.stats;
            let live = (s.queued.len() + s.running.len()) as u64;
            assert_eq!(
                live + t.terminals(),
                t.submitted,
                "queued + running + terminals != submitted"
            );
            assert_eq!(
                t.submitted, self.admitted,
                "admissions tallied != admissions reported"
            );
            assert_eq!(
                t.terminals(),
                self.terminal.len() as u64,
                "terminals tallied != terminals reported"
            );
            let mut order: Vec<(usize, u64)> =
                self.queued.iter().map(|(&id, t)| (t.lane, id)).collect();
            order.sort_unstable();
            let queued = s.queued.iter().map(|(id, _)| id.0);
            assert!(
                queued.eq(order.iter().map(|&(_, id)| id)),
                "the queue is out of scheduling order"
            );
            assert_eq!(s.stats.lane_depths.iter().sum::<u64>(), order.len() as u64);
            let running = s.running.iter().map(|r| r.id.0);
            assert!(
                running.eq(self.running.keys().copied()),
                "the running set differs"
            );
            for (tenant, n) in &s.tenants {
                assert_eq!(*n, self.occupancy(tenant), "{tenant}'s occupancy");
            }
            let tagged = ["a", "b"].iter().filter(|t| self.occupancy(t) > 0);
            assert_eq!(
                s.tenants.len(),
                tagged.count(),
                "a tenant listed at zero occupancy"
            );
        }

        /// Shut down from here: every admitted id reaches exactly one
        /// terminal and hands its outcome out exactly once.
        fn drain(mut self, b: Bounds) {
            self.a.close();
            loop {
                let running: Vec<u64> = self.running.keys().copied().collect();
                for id in running {
                    self.apply(Step::Finish(id), b);
                }
                let empty = self.queued.is_empty();
                self.apply(Step::Pop, b);
                if empty {
                    break;
                }
            }
            self.check();
            assert_eq!(
                self.terminal.len() as u64,
                self.admitted,
                "an admitted request never ended"
            );
            for id in 0..=self.admitted + 1 {
                self.apply(Step::Take(id), b);
                self.apply(Step::Take(id), b);
                self.apply(Step::Cancel(id), b);
            }
            assert_eq!(
                self.taken.len() as u64,
                self.admitted,
                "an outcome was never handed out"
            );
        }
    }

    /// States reached within `b.depth` transitions, each checked.
    fn enumerate(b: Bounds) -> usize {
        let root = World::new(b);
        let mut seen = HashSet::from([root.key()]);
        root.fork().drain(b);
        let mut frontier = vec![root];
        for _ in 0..b.depth {
            let mut next = Vec::new();
            for w in &frontier {
                for step in w.steps(b) {
                    let mut w2 = w.fork();
                    w2.apply(step, b);
                    if seen.insert(w2.key()) {
                        w2.check();
                        w2.fork().drain(b);
                        next.push(w2);
                    }
                }
            }
            frontier = next;
        }
        seen.len()
    }

    /// Bounds and states visited, pinned: a rule that admits, sheds, pops
    /// or ends requests differently moves a count even where no theorem
    /// breaks.
    #[test]
    fn every_interleaving_keeps_the_admission_rules() {
        let cases = [
            // A cap of 0 refuses every tagged request.
            (
                Bounds {
                    slots: 1,
                    queue_cap: 1,
                    tenant_cap: 0,
                    depth: 8,
                },
                1_063,
            ),
            (
                Bounds {
                    slots: 1,
                    queue_cap: 1,
                    tenant_cap: 1,
                    depth: 8,
                },
                5_332,
            ),
            (
                Bounds {
                    slots: 2,
                    queue_cap: 2,
                    tenant_cap: 1,
                    depth: 6,
                },
                9_659,
            ),
            (
                Bounds {
                    slots: 3,
                    queue_cap: 3,
                    tenant_cap: 2,
                    depth: 5,
                },
                16_851,
            ),
        ];
        let visited: Vec<(Bounds, usize)> = cases.iter().map(|&(b, _)| (b, enumerate(b))).collect();
        let counts = |v: &[(Bounds, usize)]| v.iter().map(|c| c.1).collect::<Vec<_>>();
        assert_eq!(counts(&visited), counts(&cases), "{visited:?}");
    }
}
