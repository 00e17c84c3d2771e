//! The rank team: the one way the driver runs an acoustic substep.
//!
//! Every rank runs the same program and updates its halos through the
//! same message-passing exchange, at every team width. A substep's
//! ranks are dealt round-robin to a **rank team** — worker `w` of `W`
//! owns ranks `w, w + W, …` and runs them all on one scratch store — and
//! each worker follows one protocol:
//!
//! 1. **post** — pack the pre-substep interiors of *all* its ranks for
//!    their neighbours ([`comm::ExchangePlan`]) and post the buffers into
//!    the mailboxes ([`comm::HaloMailboxes`]) before receiving anything,
//!    so no receive can wait on a worker that is itself blocked; then
//!    mark itself done posting, even if posting unwound. Rank by rank:
//! 2. **receive** every inbound channel into its mailbox buffer: a
//!    message in its slot is taken, an empty slot with every worker done
//!    posting is lost and panics the rank, anything else waits — one
//!    rule for every team size;
//! 3. **mark** the rank as mutating, for the rollback;
//! 4. **lend** the rank's state to the worker's store
//!    ([`fv3::dyn_core::lend_state`]: no array is copied);
//! 5. **unpack + fold** the buffers into the lent halos, cube corners
//!    last;
//! 6. **run** the substep graph, once — and after the last acoustic
//!    substep of a `k_split` round, the vertical remap on the lent store
//!    (FV3's cadence; the substep graph holds no remap);
//! 7. **return** the loan and hand the buffers back to their senders.
//!
//! The latency a receive could wait for is the peers' packing, and the
//! team's order hides it: every send is posted before its worker's first
//! receive. Computing an interior ahead of the wait would hide no more
//! than that, at the cost of a second walk over a store larger than L2
//! (DESIGN §12.1).
//!
//! The team's width is its one knob (`DistributedDycore::team_width`,
//! read once per substep), and it decides two things, neither of them
//! protocol: width 1 runs on the calling thread, its store living for one
//! `step()` and its halo buffers for one substep; a wider team runs on
//! [`machine::Pool::rank_scope`] threads whose stores and buffers are kept
//! in the `StepCache` (DESIGN §17.1). Every width runs its kernels
//! through the bundle's one executor, each on the thread of the rank that
//! launches it, and posts through the cache's one set of mailboxes.
//!
//! **Bit-identity.** Every team size produces the same bits, step for
//! step: packing reads only pre-substep interiors (so the exchanged
//! values equal the central gather's — `comm::plan`'s tests hold this to
//! 0 ULP against `comm::halo`), unpack and fold land before any
//! statement runs, and every rank runs the one graph
//! ([`CompiledSubstep::graph`]). `core/tests/parallel_schedule_diff.rs`
//! asserts the end-to-end equality and the golden replay.
//!
//! **Failure containment.** A rank that panics (a lost message, a kernel
//! panic) fails alone: its worker runs its remaining ranks, and the
//! panic propagates to the caller after the whole team has joined, where
//! the supervisor rolls back. No peer waits on it: a worker that fails
//! posting still counts as done, so what it left unsent reads as lost,
//! and a posted message always wins over "no sender left". A rank
//! starved at step 2 has not touched its state, so the rank-aware
//! rollback ([`DistributedDycore::restore`]) leaves it alone; a rank that
//! fails after step 3 hands back a partly stepped state (the loan
//! returns on the unwind) that is marked for restore.

use crate::checkpoint::CheckpointBasis;
use crate::driver::{scratch_store, DistributedDycore, DriverConfig, RankHooks, Substep};
use comm::halo::{SITE_HALO_CORRUPT, SITE_HALO_DROP, SITE_HALO_STALL};
use comm::{ExchangePlan, HaloMailboxes, PackField, Partition};
use dataflow::exec::{DataStore, Executor};
use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::reuse::clear_list;
use dataflow::transforms::power;
use dataflow::DataId;
use fv3::dyn_core::{lend_state, load_state, remap_callback, DycoreIds, DycoreProgram};
use fv3::state::{DycoreState, HALO};
use machine::faults::{FaultAction, FireCtx};
use machine::pool::Pool;
use machine::RunContext;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A receive's backstop against a registered worker that never posts:
/// reached only if its thread never starts (`rank_scope`'s spawn fails).
const RECV_BACKSTOP: Duration = Duration::from_secs(10);

/// The one lowering of the production build: the graph every schedule,
/// tuned or not, executes (and [`DistributedDycore::program_graph`]
/// shows) is `program`'s substep graph expanded under
/// [`ExpansionAttrs::tuned`] and then strength-reduced by
/// [`power::optimize_powers`] (§VI-C1: `d_sw`'s Smagorinsky term costs
/// three `powf` per point otherwise). The second step is the repo's one
/// *budgeted* rewrite ([`dataflow::transforms::tier`]), so the 0-ULP
/// contracts — schedule, tenant, tuning-set and streaming invariance,
/// tile VM ≡ `Expr::eval` — are contracts *of this graph*: every path
/// runs the same rewritten trees. Always on; `set_tuned` still means
/// search-driven fusion on top, and `run_pipeline` stays the
/// stage-by-stage Table III tool.
pub fn lower_substep(program: &DycoreProgram) -> Sdfg {
    let mut g = program.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    power::optimize_powers(&mut g);
    g
}

/// The cost model the build-time autotune pipeline scores against: the
/// interpreter-honest `CpuSpec::lane_vm()`, calibrated from a dycore
/// profile of the executor this repo had before the tile VM (see the
/// note on its constants). A datasheet model (e.g. the paper's Haswell) prices
/// on-the-fly recomputation as free against an AVX2 flop ceiling and
/// accepts fusions that are measurably slower on the host executor; the
/// honest spec prices recompute at the measured dispatch rate. Purely a
/// *ranking* model — every transform the tuner applies is bit-exact, so a
/// mis-ranked host changes speed, never answers.
pub fn tune_model() -> dataflow::model::CostModel {
    dataflow::model::CostModel::Cpu(machine::CpuModel::new(machine::CpuSpec::lane_vm()))
}

/// How wide the rank team that runs an acoustic substep is (see the
/// module docs). Every width gives the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankSchedule {
    /// Width 1: one rank after another on the calling thread.
    #[default]
    Sequential,
    /// Width `min(ranks, workers)`: the pool's width, else `host_workers`.
    Parallel,
}

/// How many OTF configurations each cutout keeps for pattern transfer
/// (the paper's `M`).
pub const TUNE_M_OTF: usize = 2;

/// Measured-veto repeats per score: the vet executes the rewritten state
/// this many times and keeps the minimum, which rejects scheduler noise
/// without burning build time (the cutouts are single substep states).
const TUNE_VET_REPEATS: usize = 5;

/// Relative improvement a candidate must *measure* to be committed. The
/// margin filters near-neutral rewrites: anything inside it is noise on
/// this host and keeping the unfused form preserves the executor's
/// (j, k) row parallelism and smaller per-launch working sets. Verdicts
/// for clear candidates are stable (before/after are measured back to
/// back, so host noise largely cancels); borderline ones may land either
/// way across builds, which is safe because every candidate is bit-exact
/// — the committed *set* is a performance detail, never an answer.
const TUNE_VET_MARGIN: f64 = 0.01;

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// Process-unique driver instance id (for checkpoint basis tracking).
pub(crate) fn next_instance_id() -> u64 {
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// Everything about a substep that is invariant across steps *and across
/// driver instances* for a fixed configuration: the per-substep program
/// (one `Sdfg` instance, so one `(uid, generation)` cache namespace), its
/// lowering, the partition's exchange plan, and an executor whose
/// compiled-kernel cache stays warm. The
/// executor is `Sync` (kernel compilation happens under its internal
/// cache lock), so one bundle can be shared by many concurrently-running
/// tenants — this is the compile-once/run-many substrate the serving
/// engine (`crates/engine`) hands out per `(scenario, config)`: tenant
/// N+1 pays zero compilation.
pub struct CompiledSubstep {
    key: StepKey,
    pub(crate) sub_prog: DycoreProgram,
    /// The graph every rank-substep runs, whatever the team.
    pub(crate) sub_expanded: Sdfg,
    /// What the build-time autotune pipeline did to `sub_expanded`
    /// (`None` when the bundle was built untuned).
    tune: Option<tuning::AutotuneReport>,
    /// The executor every team runs its kernels on, each kernel on the
    /// thread of the rank that launches it.
    pub(crate) exec: Executor,
    /// Who packs what for whom across the partition's halos: built once
    /// per bundle, so an instance that adopts one builds no plan.
    pub(crate) plan: ExchangePlan,
    /// Containers a store that already ran `sub_expanded` must re-zero
    /// before running it again ([`dataflow::reuse::clear_list`], proven
    /// once here). Empty for every dycore graph built so far.
    pub(crate) clear: Vec<DataId>,
}

impl CompiledSubstep {
    /// Build the substep bundle for `config`. Kernel compilation itself is
    /// lazy: the first run through the executor populates its cache.
    /// The substep program is lowered by [`lower_substep`]; when `tuned`,
    /// the lowered graph is then run through
    /// [`tuning::autotune_vetted_scored`] (cross-module fusion, then cutout
    /// search + pattern transfer over every state, each committed step
    /// confirmed by measured re-execution at this build's size).
    /// Everything the tuner applies is bit-exact, so a tuned bundle produces
    /// states 0 ULP identical to an untuned one; the tuned flag still
    /// enters the `StepKey`, so tuned and untuned shared bundles never
    /// cross-adopt (their kernel-cache namespaces stay disjoint).
    pub fn build_with_tune(config: &DriverConfig, tuned: bool) -> Self {
        let key = StepKey::of_config(config, tuned);
        let sub_n = config.tile_n / config.rt;
        let sub_prog = config.substep_program();
        let mut sub_expanded = lower_substep(&sub_prog);
        dataflow::exec::validate_sdfg(&sub_expanded).expect("dycore program validates");
        let tune = tuned.then(|| {
            // Seed the measured veto with a representative baroclinic
            // tile at this substep's size: candidate fusions are priced
            // on realistic field magnitudes (the synthetic fill
            // underprices OTF recompute on atmospheric data). The seed
            // is a stand-in tile, not this rank's actual subdomain —
            // the veto ranks rewrites, it never touches answers.
            let geom = comm::CubeGeometry::new(sub_n);
            let grid =
                fv3::grid::Grid::compute(&geom.faces[1], sub_n, 0, 0, sub_n, HALO, config.nk);
            let mut state = DycoreState::zeros(sub_n, config.nk);
            fv3::init::init_baroclinic(&mut state, &grid, &fv3::init::BaroclinicConfig::default());
            let mut seed = DataStore::for_sdfg(&sub_expanded);
            load_state(&mut seed, &sub_prog.ids, &state, &grid);
            let mut scorer =
                tuning::MeasuredScorer::with_seed(TUNE_VET_REPEATS, sub_prog.params.clone(), seed);
            tuning::autotune_vetted_scored(
                &mut sub_expanded,
                &tune_model(),
                TUNE_M_OTF,
                &mut scorer,
                TUNE_VET_MARGIN,
            )
        });
        let clear = clear_list(&sub_expanded, &sub_prog.ids.loaded());
        CompiledSubstep {
            key,
            sub_prog,
            sub_expanded,
            tune,
            exec: Executor::serial(),
            plan: ExchangePlan::new(&Partition::new(config.tile_n, config.rt), HALO),
            clear,
        }
    }

    /// What the build-time autotune pipeline did (`None` for an untuned
    /// bundle).
    pub fn tune_report(&self) -> Option<&tuning::AutotuneReport> {
        self.tune.as_ref()
    }

    /// The per-substep program: container ids and parameter values.
    pub fn program(&self) -> &DycoreProgram {
        &self.sub_prog
    }

    /// The graph one rank-substep runs, whatever the team: the
    /// substep program as [`lower_substep`] (and the tuner, for a tuned
    /// bundle) left it.
    pub fn graph(&self) -> &Sdfg {
        &self.sub_expanded
    }

    /// The containers a scratch store re-zeroes between two runs of
    /// [`graph`](Self::graph) (see [`dataflow::reuse`]).
    pub fn clear_list(&self) -> &[DataId] {
        &self.clear
    }

    /// Whether this bundle was built through the autotune pipeline.
    pub fn is_tuned(&self) -> bool {
        self.tune.is_some()
    }

    /// True when this bundle serves `key` — the condition under which a
    /// driver may adopt it instead of building its own, whatever either's
    /// rank-team width.
    pub(crate) fn matches(&self, key: &StepKey) -> bool {
        self.key == *key
    }
}

/// Per-driver-instance substep machinery: the (possibly shared) compile
/// bundle, with its exchange plan, plus this instance's mailboxes.
/// Mailboxes are deliberately *not* shared across tenants — each driver's
/// team registers its own senders, so concurrent tenants cannot
/// cross-deliver. Rebuilt when the dycore configuration or the tuning
/// changes; a width change resizes only [`stores`](Self::stores).
pub(crate) struct StepCache {
    pub(crate) sub: Arc<CompiledSubstep>,
    pub(crate) boxes: Arc<HaloMailboxes>,
    /// The rank threads' scratch stores, one slot per worker at width > 1
    /// (the team of one runs on its `step()`'s store). Built by a worker's
    /// first rank-substep and kept across substeps *and steps* — a store
    /// built, first-touched and freed every step on a fresh thread costs
    /// more than the step's halo exchange (DESIGN §17.1).
    pub(crate) stores: Vec<Option<DataStore>>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepKey {
    dt: u64,
    dddmp: u64,
    nord4: Option<u64>,
    /// The partition the bundle's exchange plan was built for.
    tile_n: usize,
    rt: usize,
    nk: usize,
    /// Tuned and untuned bundles compile different (but bit-identical)
    /// programs; keying on the flag keeps them from cross-adopting.
    tuned: bool,
}

impl StepKey {
    pub(crate) fn of_config(config: &DriverConfig, tuned: bool) -> Self {
        let c = config.dycore;
        StepKey {
            dt: c.dt.to_bits(),
            dddmp: c.dddmp.to_bits(),
            nord4: c.nord4_damp.map(f64::to_bits),
            tile_n: config.tile_n,
            rt: config.rt,
            nk: config.nk,
            tuned,
        }
    }
}

/// One rank's substep timings, reported back to the driver.
struct RankOutcome {
    sent: Posted,
    /// Receive, unpack and fold.
    wait: Duration,
    run: Duration,
    /// Compiled-kernel cache traffic from this rank's program run.
    cache_hits: u64,
    cache_misses: u64,
}

/// What one rank's pack-and-post phase cost and actually put on the wire
/// (all packed fields).
struct Posted {
    pack: Duration,
    bytes: u64,
    messages: u64,
}

/// One worker of the rank team for one substep: the ranks it owns, in
/// rank order, and the scratch store it runs them all on.
struct Seat<'a> {
    ranks: Vec<(usize, &'a mut DycoreState)>,
    store: &'a mut Option<DataStore>,
}

/// What every worker of the rank team shares during one substep.
///
/// The protocol ([`run_worker`](Self::run_worker)): a worker packs and
/// posts the sends of *all* its ranks, then runs them one after another
/// on its one scratch store. Every send of the substep is thus posted
/// before its worker receives anything, so no receive waits on a worker
/// that is itself blocked: no deadlock for any team size, one included.
struct Team<'a> {
    plan: &'a ExchangePlan,
    boxes: &'a HaloMailboxes,
    sub: &'a CompiledSubstep,
    grids: &'a [fv3::grid::Grid],
    /// The run's context: rank and halo spans, counters, the
    /// wire-corruption victim pick.
    run: &'a RunContext,
    faults: FaultPlan,
    /// Whether this substep closes a `k_split` round: every rank remaps
    /// after its run.
    remap: bool,
    nk: i64,
    scratch_built: &'a AtomicU64,
    /// Per rank, set once its receives are complete, just before its
    /// state is lent: a failure from there on leaves a partly stepped
    /// state, which the rollback must rewrite.
    mutating: Vec<AtomicBool>,
    /// Per rank, filled by the worker that completed it.
    outcomes: Vec<Mutex<Option<RankOutcome>>>,
}

impl Team<'_> {
    fn run_worker(&self, seat: Seat) {
        let Seat { mut ranks, store } = seat;
        let posted = catch_unwind(AssertUnwindSafe(|| {
            let post = |(r, state): &(usize, &mut DycoreState)| self.post_sends(*r, state);
            ranks.iter().map(post).collect::<Vec<Posted>>()
        }));
        // Done posting, unwound or not: what this worker left unsent now
        // reads as lost.
        self.boxes.sender_done();
        let sent = posted.unwrap_or_else(|p| resume_unwind(p));
        // A failure is its rank's own: the worker's other ranks still run
        // (their messages are all posted), so which ranks a failed
        // substep leaves mutated does not depend on the team size.
        let mut failure = None;
        for ((r, state), sent) in ranks.iter_mut().zip(sent) {
            match catch_unwind(AssertUnwindSafe(|| self.run_rank(*r, state, store, sent))) {
                Ok(out) => *self.outcomes[*r].lock().unwrap_or_else(|e| e.into_inner()) = Some(out),
                Err(p) => failure = failure.or(Some(p)),
            }
        }
        if let Some(p) = failure {
            resume_unwind(p);
        }
    }

    /// 1. Pack rank `r`'s pre-substep interiors, post them to every
    ///    outbound channel.
    fn post_sends(&self, r: usize, state: &DycoreState) -> Posted {
        let (plan, boxes, faults) = (self.plan, self.boxes, &self.faults);
        let t0 = Instant::now();
        if let Some((_, ms)) = faults.stall.filter(|(sr, _)| *sr == r) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let dropped = |ch: usize| faults.drop_dst == Some(plan.channel(ch).dst.0);
        let (mut bytes, mut messages) = (0u64, 0u64);
        let mut post = |ch: usize, buf: Vec<f64>| {
            bytes += buf.len() as u64 * 8;
            messages += 1;
            boxes.post(ch, buf);
        };
        match faults.prepacked.as_ref().filter(|(pr, _)| *pr == r) {
            Some((_, bufs)) => {
                for (ch, buf) in bufs.iter().filter(|(ch, _)| !dropped(*ch)) {
                    post(*ch, buf.clone());
                }
            }
            None => {
                for &ch in plan.sends(r).iter().filter(|ch| !dropped(**ch)) {
                    // The buffer this channel's receiver unpacked last
                    // substep, if it came back.
                    let mut buf = boxes.spare(ch);
                    plan.pack_into(ch, self.nk, &pack_fields(state), &mut buf);
                    if let Some((cch, f)) = faults.corrupt {
                        if cch == ch && !buf.is_empty() {
                            let v = self.run.faults.det_index(0x1a11, buf.len());
                            buf[v] = if f.is_nan() { f64::NAN } else { buf[v] * f };
                        }
                    }
                    post(ch, buf);
                }
            }
        }
        Posted {
            pack: t0.elapsed(),
            bytes,
            messages,
        }
    }

    /// 2–7. Rank `r`'s substep on its worker's store.
    fn run_rank(
        &self,
        r: usize,
        state: &mut DycoreState,
        slot: &mut Option<DataStore>,
        sent: Posted,
    ) -> RankOutcome {
        let (plan, boxes, sub, nk) = (self.plan, self.boxes, self.sub, self.nk);
        let (ids, params) = (&sub.sub_prog.ids, &sub.sub_prog.params[..]);
        // The tracer is thread-safe: rank spans land in the run's
        // tracer from whichever worker runs the rank.
        let _rank_span = self.run.span("rank", format_args!("rank{r}"));
        let store = scratch_store(slot, self.scratch_built, &sub.sub_expanded, &sub.clear);
        let mut halo_span = self.run.span("halo", "halo_exchange");
        let t0 = Instant::now();

        // 2. Receive: a starved rank panics here, its state untouched.
        let received: Vec<(usize, Vec<f64>)> = plan
            .recvs(r)
            .iter()
            .map(|&ch| match boxes.recv(ch, RECV_BACKSTOP) {
                Ok(buf) => (ch, buf),
                Err(e) => panic!("rank {r}: halo recv on channel {ch} failed: {e}"),
            })
            .collect();

        // 3–4. Lend the state to the worker's store: the program runs on
        // the rank's own prognostic arrays, never on copies of them.
        self.mutating[r].store(true, Ordering::Release);
        let own = state.fields().map(|(_, f)| f.raw().as_ptr());
        let mut lent = lend_state(store, ids, state, &self.grids[r]);
        let store = lent.store();
        debug_assert!(
            ids.loaded().iter().all(|id| own.contains(&store.get(*id).raw().as_ptr())),
            "rank {r}: the store runs on a prognostic that is not the rank's own array"
        );

        // 5. Unpack into the lent halos, fold corners.
        let exch = exchanged_ids(ids);
        for (ch, buf) in &received {
            for (fi, id) in exch.iter().enumerate() {
                plan.unpack_field(*ch, buf, fi, exch.len(), nk, store.get_mut(*id));
            }
        }
        for id in exch {
            plan.apply_folds(r, nk, store.get_mut(id));
        }
        let wait = t0.elapsed();
        halo_span.set_bytes(received.iter().map(|(_, b)| b.len() as u64 * 8).sum());
        halo_span.set_points(received.len() as u64);
        drop(halo_span);

        // 6. Run the substep graph, then remap if the round ends here.
        let mut hooks = RankHooks { halo_markers: 0 };
        let t1 = Instant::now();
        let rep = sub
            .exec
            .run_in(&sub.sub_expanded, store, params, &mut hooks, self.run);
        if self.remap {
            let _remap_span = self.run.span("remap", "vertical_remap");
            remap_callback(store, ids);
        }
        let run = t1.elapsed();
        // The substep program embeds exactly one halo marker, satisfied by
        // the exchange above.
        debug_assert_eq!(hooks.halo_markers, 1);

        // 7. Return the loan, the buffers to their senders.
        drop(lent);
        for (ch, buf) in received {
            boxes.recycle(ch, buf);
        }
        RankOutcome {
            sent,
            wait,
            run,
            cache_hits: rep.cache_hits,
            cache_misses: rep.cache_misses,
        }
    }
}

/// The six exchanged prognostics, in pack order (u/v as a vector pair).
fn pack_fields(s: &DycoreState) -> [PackField<'_>; 6] {
    [
        PackField::Vector {
            primary: &s.u,
            partner: &s.v,
            row: 0,
        },
        PackField::Vector {
            primary: &s.v,
            partner: &s.u,
            row: 1,
        },
        PackField::Scalar(&s.w),
        PackField::Scalar(&s.delp),
        PackField::Scalar(&s.pt),
        PackField::Scalar(&s.q),
    ]
}

fn exchanged_ids(ids: &DycoreIds) -> [DataId; 6] {
    [ids.u, ids.v, ids.w, ids.delp, ids.pt, ids.q]
}

/// Per-substep fault plan, derived on the main thread so injection
/// decisions stay deterministic regardless of rank interleaving.
#[derive(Default)]
struct FaultPlan {
    /// Rank that sleeps this long before posting its sends.
    stall: Option<(usize, u64)>,
    /// Destination rank whose inbound messages are dropped (its receives
    /// read them as lost once every worker has posted).
    drop_dst: Option<usize>,
    /// (channel, factor) — corrupt one packed value on the wire; a NaN
    /// factor poisons instead of scaling.
    corrupt: Option<(usize, f64)>,
    /// Pre-packed send buffers of a poisoned rank (packed before the
    /// poison landed: its neighbours receive what it held before the
    /// blowup).
    prepacked: Option<(usize, Vec<PackedSend>)>,
}

/// One packed send buffer: (channel index, wire payload).
type PackedSend = (usize, Vec<f64>);

impl DistributedDycore {
    /// Build (or keep) the cached per-substep machinery for the current
    /// configuration. An installed shared bundle
    /// ([`DistributedDycore::set_shared_substep`]) is adopted when it
    /// matches the configuration, and so is the bundle
    /// [`program_graph`](DistributedDycore::program_graph) lowered: an
    /// instance lowers its substep once. A supervisor that backs off `dt`
    /// changes the [`StepKey`] and falls back to a private bundle, so
    /// backed-off tenants never pollute the shared cache.
    pub(crate) fn ensure_step_cache(&mut self) {
        let key = StepKey::of_config(&self.config, self.tuned);
        if self.cache.as_ref().is_some_and(|c| c.sub.matches(&key)) {
            return;
        }
        let sub = match &self.shared_substep {
            Some(s) if s.matches(&key) => Arc::clone(s),
            _ if self.inspected.get().is_some_and(|s| s.matches(&key)) => {
                Arc::new(self.inspected.take().expect("matched above"))
            }
            _ => Arc::new(CompiledSubstep::build_with_tune(&self.config, self.tuned)),
        };
        let boxes = Arc::new(HaloMailboxes::for_plan(&sub.plan));
        self.cache = Some(StepCache {
            sub,
            boxes,
            stores: Vec::new(),
        });
        self.fit_team();
    }

    /// The rank team's width, its one knob: `min(ranks, w)`, `w` being 1
    /// under `Sequential`, else the pool's width or `host_workers`.
    fn team_width(&self) -> usize {
        let workers = match self.schedule {
            RankSchedule::Sequential => 1,
            RankSchedule::Parallel => self.pool.as_ref().map_or(self.host_workers, Pool::workers),
        };
        self.partition.ranks().min(workers)
    }

    /// One kept store slot per worker of the current width, none at
    /// width 1; the stores of the workers that remain are kept.
    pub(crate) fn fit_team(&mut self) {
        let width = self.team_width();
        if let Some(c) = &mut self.cache {
            c.stores.resize_with(if width > 1 { width } else { 0 }, || None);
        }
    }

    /// Fire this substep's halo and poison faults on the calling thread
    /// and translate them into the team's terms: each site fires at most
    /// once per substep.
    fn plan_faults(&mut self, plan: &ExchangePlan, module: Substep) -> FaultPlan {
        let mut fp = FaultPlan::default();
        if !self.run.faults.is_armed() {
            return fp;
        }
        let faults = self.run.faults.clone();
        let ranks = self.partition.ranks();
        let nk = self.config.nk as i64;
        if let Some(spec) = faults.fire(SITE_HALO_STALL, FireCtx::default()) {
            if let FaultAction::StallMs(ms) = spec.action {
                let r = spec
                    .rank
                    .unwrap_or_else(|| faults.det_index(0x57a11, ranks))
                    .min(ranks - 1);
                fp.stall = Some((r, ms));
            }
        }
        if let Some(spec) = faults.fire(SITE_HALO_DROP, FireCtx::default()) {
            let t = spec
                .rank
                .unwrap_or_else(|| faults.det_index(0xd209, ranks))
                .min(ranks - 1);
            fp.drop_dst = Some(t);
        }
        if let Some(spec) = faults.fire(SITE_HALO_CORRUPT, FireCtx::default()) {
            let ch = faults.det_index(0x1a10, plan.n_channels());
            let f = match spec.action {
                FaultAction::CorruptFactor(f) => f,
                _ => f64::NAN,
            };
            fp.corrupt = Some((ch, f));
        }
        if let Some((rank, field)) = self.plan_poison(module) {
            // Pack the victim's sends *before* poisoning, so neighbours
            // see pre-poison interiors.
            let bufs = plan
                .sends(rank)
                .iter()
                .map(|&ch| (ch, plan.pack(ch, nk, &pack_fields(&self.states[rank]))))
                .collect();
            fp.prepacked = Some((rank, bufs));
            self.apply_poison(rank, &field);
        }
        fp
    }

    /// One acoustic substep, run by a [`Team`] of
    /// [`team_width`](Self::team_width) workers; `step_store` is the store
    /// of a team of one for the step. Panics (after joining the team) on
    /// lost messages or rank failures, leaving per-rank mutation flags
    /// accurate for a rank-aware rollback.
    pub(crate) fn substep(
        &mut self,
        cache: &mut StepCache,
        step_store: &mut Option<DataStore>,
        module: Substep,
    ) {
        let ranks = self.partition.ranks();
        self.mut_clock += 1;
        let clock = self.mut_clock;
        let faults = self.plan_faults(&cache.sub.plan, module);
        let workers = self.team_width();
        let stores = match workers {
            1 => std::slice::from_mut(step_store),
            _ => &mut cache.stores[..],
        };
        debug_assert_eq!(stores.len(), workers);

        let team = Team {
            plan: &cache.sub.plan,
            boxes: &cache.boxes,
            sub: &cache.sub,
            grids: &self.grids,
            run: &self.run,
            faults,
            remap: module.ends_round(self.config.dycore.n_split),
            nk: self.config.nk as i64,
            scratch_built: &self.scratch_built,
            mutating: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            outcomes: (0..ranks).map(|_| Mutex::new(None)).collect(),
        };
        // Deal the ranks round-robin: worker `w` of `W` owns `w, w + W, …`.
        let mut seats: Vec<Seat> = stores
            .iter_mut()
            .map(|store| Seat {
                ranks: Vec::with_capacity(ranks.div_ceil(workers)),
                store,
            })
            .collect();
        for (r, state) in self.states.iter_mut().enumerate() {
            seats[r % workers].ranks.push((r, state));
        }
        let seats: Vec<Mutex<Option<Seat>>> =
            seats.into_iter().map(|s| Mutex::new(Some(s))).collect();

        // Every worker is a sender until its post phase ends. A team of
        // one runs on the calling thread (`rank_scope(1, ..)`).
        cache.boxes.open(workers);
        let scope = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(workers).rank_scope(workers, |w| {
                let seat = seats[w].lock().unwrap_or_else(|e| e.into_inner()).take();
                team.run_worker(seat.expect("one worker per seat"));
            })
        }));

        // Merge per-rank results (also on the failure path, so mutation
        // flags stay accurate for the rollback).
        let Team {
            mutating, outcomes, ..
        } = team;
        let mut posted = (0u64, 0u64);
        for (r, (mutated, outcome)) in mutating.into_iter().zip(outcomes).enumerate() {
            if mutated.into_inner() {
                self.mark_rank_mutated(r, clock);
            }
            if let Some(o) = outcome.into_inner().unwrap_or_else(|e| e.into_inner()) {
                self.overlap.record_substep(o.sent.pack, o.wait, o.run);
                posted.0 += o.sent.bytes;
                posted.1 += o.sent.messages;
                self.note_kernel_cache(o.cache_hits, o.cache_misses);
            }
        }
        if workers > 1 {
            self.rank_workers_launched += workers as u64;
            self.halo_bytes_posted += posted.0;
            self.halo_messages_posted += posted.1;
        } else {
            // The team of one keeps no halo buffer past its substep, as it
            // keeps no store past its step (DESIGN §17.1).
            cache.boxes.reset();
        }
        if let Err(p) = scope {
            resume_unwind(p);
        }
    }

    /// Mark rank `r`'s state as mutated at `clock`.
    pub(crate) fn mark_rank_mutated(&mut self, r: usize, clock: u64) {
        self.mutated_at[r] = self.mutated_at[r].max(clock);
    }

    /// The current mutation basis (for [`crate::Checkpoint::capture`]).
    pub fn mutation_basis(&self) -> CheckpointBasis {
        CheckpointBasis {
            instance: self.instance_id,
            clock: self.mut_clock,
        }
    }
}
