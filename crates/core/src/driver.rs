//! The distributed dycore driver: simulated MPI ranks over the cubed
//! sphere, each executing the orchestrated program, with real halo
//! exchanges in between.
//!
//! Ranks live in one process (the DESIGN.md substitution). Every
//! acoustic substep is run by a rank team that packs, posts, receives
//! and unpacks halos through mailboxes — the packing and orientation
//! transforms of Section IV-C — at every width: the team's width alone
//! picks the team of one on the calling thread or a team of threads (see
//! [`crate::parallel`]), and every width is bit-identical.

use crate::parallel::{CompiledSubstep, RankSchedule, StepCache};
use comm::{Partition, RankId};
use dataflow::exec::{DataStore, ExecHooks};
use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::DataId;
use fv3::dyn_core::{build_substep_program, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::state::{DycoreState, HALO};
use machine::faults::FireCtx;
use machine::pool::Pool;
use machine::{RunConfig, RunContext};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Fault site: poison one interior cell of a prognostic field right
/// after the halo sends of an acoustic substep — the classic
/// "NaN appears mid-physics" blowup a supervisor must recover from.
pub const SITE_POISON: &str = "driver.poison_field";
/// Every fault site compiled into this crate.
pub const FAULT_SITES: [&str; 1] = [SITE_POISON];

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Cells per tile edge (tile resolution).
    pub tile_n: usize,
    /// Ranks per tile edge (total ranks = 6 rt²).
    pub rt: usize,
    /// Vertical levels.
    pub nk: usize,
    /// Dycore sub-stepping configuration.
    pub dycore: DycoreConfig,
}

impl DriverConfig {
    /// The smallest distributed configuration: 6 ranks, one tile each
    /// (Section IX-A).
    pub fn six_rank(tile_n: usize, nk: usize, dycore: DycoreConfig) -> Self {
        DriverConfig {
            tile_n,
            rt: 1,
            nk,
            dycore,
        }
    }

    /// The program a rank executes: one acoustic substep, ending at
    /// `pt_update`. The driver runs the `k_split` x `n_split` loops
    /// itself, exchanging halos between trips, and remaps once per
    /// `k_split` round (DESIGN §6b).
    pub(crate) fn substep_program(&self) -> DycoreProgram {
        build_substep_program(self.tile_n / self.rt, self.nk, self.dycore)
    }
}

/// A running distributed dycore.
pub struct DistributedDycore {
    pub config: DriverConfig,
    pub partition: Partition,
    /// Per-rank grids. Behind an `Arc` so a serving engine can share one
    /// computed set of grid metadata across every tenant of a
    /// (scenario, config) case; grids are immutable after construction.
    pub grids: Arc<Vec<Grid>>,
    /// Per-rank prognostic states.
    pub states: Vec<DycoreState>,
    /// The untuned bundle a [`program_graph`](Self::program_graph) call
    /// before any untuned step lowered, for the configuration of that
    /// call. The first step that needs that bundle adopts it, so the
    /// inspection and the step share the instance's one lowering.
    pub(crate) inspected: OnceLock<CompiledSubstep>,
    /// Driver steps completed since construction or the last restore.
    step_index: u64,
    /// The width of a [`RankSchedule::Parallel`] team (`None`:
    /// [`host_workers`](Self::host_workers)); changes wall time only.
    pub(crate) pool: Option<Pool>,
    /// Width 1, or the pool's width (`team_width` reads both).
    pub(crate) schedule: RankSchedule,
    /// Whole-program tuning at each cache (re)build. Tuned programs are
    /// bit-identical to untuned ones, so this changes speed only.
    pub(crate) tuned: bool,
    /// Rank-team size bound when no pool is installed
    /// ([`RunConfig::host_workers`] at construction).
    pub(crate) host_workers: usize,
    /// Cached per-substep machinery: program, executor, exchange plan,
    /// mailboxes, the rank threads' stores. Rebuilt on config or tuning
    /// changes; a width change resizes only the stores.
    pub(crate) cache: Option<StepCache>,
    /// Shared compile bundle installed by a serving engine
    /// ([`set_shared_substep`](Self::set_shared_substep)): adopted by
    /// [`crate::parallel`]'s `ensure_step_cache` whenever it matches the
    /// current configuration, so tenants of one engine
    /// share a single compiled-kernel cache.
    pub(crate) shared_substep: Option<Arc<CompiledSubstep>>,
    /// Compiled-kernel cache hits across all rank program runs.
    pub(crate) exec_cache_hits: u64,
    /// Compiled-kernel cache misses (compilations) across all runs.
    pub(crate) exec_cache_misses: u64,
    /// Scratch stores built since construction (rank workers count
    /// their own).
    pub(crate) scratch_built: AtomicU64,
    /// Whole rank states duplicated since the last
    /// [`take_state_copies`](Self::take_state_copies).
    pub(crate) state_copies: AtomicU64,
    /// Rank threads launched by teams wider than one since construction.
    pub(crate) rank_workers_launched: u64,
    /// Process-unique id anchoring [`crate::CheckpointBasis`] lineage.
    pub(crate) instance_id: u64,
    /// Monotonic mutation clock, bumped whenever rank state changes.
    pub(crate) mut_clock: u64,
    /// Per-rank clock value of the last state mutation (for rank-aware
    /// rollback: ranks untouched since a checkpoint's basis skip restore).
    pub(crate) mutated_at: Vec<u64>,
    /// Accumulated rank-team substep timings.
    pub(crate) overlap: obs::OverlapStats,
    /// Measured wire bytes posted between rank threads (widths above 1).
    pub(crate) halo_bytes_posted: u64,
    /// Measured messages posted between rank threads (widths above 1).
    pub(crate) halo_messages_posted: u64,
    /// The run this instance is stepping for ([`set_run`](Self::set_run)):
    /// cancel token, event sink, fault plan, tracer. The default
    /// is inert throughout — one `Option` check per site on the hot path,
    /// no events, no timestamps, no allocations — and a run under it is
    /// bit-identical to one under any other context whose faults stay
    /// unfired (no site reads model state).
    pub(crate) run: RunContext,
    /// True when the last [`step`](Self::step) call aborted at a substep
    /// boundary because the token fired: the step counter was not
    /// advanced and the states are mid-step — the instance must be
    /// discarded or restored, never trusted.
    step_interrupted: bool,
}

pub(crate) struct RankHooks {
    /// Halo markers met. The exchange itself happens before the rank's
    /// program runs (one marker per substep program).
    pub(crate) halo_markers: u32,
}

impl ExecHooks for RankHooks {
    fn halo_exchange(&mut self, _fields: &[DataId], _store: &mut DataStore) {
        self.halo_markers += 1;
    }
}

/// Names acoustic substep `ns` of remapping step `ks` in spans and fault
/// contexts. Formatted by whoever reads it: under a context with no
/// tracer and no fault plan the step path builds no strings.
#[derive(Clone, Copy)]
pub(crate) struct Substep {
    ks: u32,
    ns: u32,
}

impl Substep {
    /// Whether this is the last acoustic substep of its `k_split` round,
    /// after which every rank remaps.
    pub(crate) fn ends_round(self, n_split: u32) -> bool {
        self.ns + 1 == n_split
    }
}

impl fmt::Display for Substep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}.s{}", self.ks, self.ns)
    }
}

/// The store one rank-substep runs on. The first use of `slot` builds and
/// counts it; later uses — the next rank, the next substep — take it as
/// the last run left it, re-zeroing only the `clear` containers (see
/// [`dataflow::reuse`]; every input is replaced by `lend_state`).
pub(crate) fn scratch_store<'a>(
    slot: &'a mut Option<DataStore>,
    built: &AtomicU64,
    sdfg: &Sdfg,
    clear: &[DataId],
) -> &'a mut DataStore {
    if let Some(store) = slot.as_mut() {
        for d in clear {
            store.get_mut(*d).raw_mut().fill(0.0);
        }
    }
    slot.get_or_insert_with(|| {
        built.fetch_add(1, Ordering::Relaxed);
        DataStore::for_sdfg(sdfg)
    })
}

/// One grid per rank of `partition`, computed.
fn compute_grids(partition: &Partition, config: &DriverConfig) -> Arc<Vec<Grid>> {
    let grids = (0..partition.ranks())
        .map(|r| {
            let (tile, rx, ry) = partition.coords(RankId(r));
            let face = &partition.geom.faces[tile];
            Grid::compute(face, config.tile_n, rx, ry, partition.sub_n, HALO, config.nk)
        })
        .collect();
    Arc::new(grids)
}

impl DistributedDycore {
    /// Set up the partition, grids and initial states. `attrs` is not
    /// read: the graph `step` executes and the inspection graph
    /// ([`program_graph`](Self::program_graph)) are both what
    /// [`lower_substep`](crate::parallel::lower_substep) builds, and the
    /// parameter stays for the callers that pass it (the repo benchmark
    /// among them). Team width and tuning come from the environment
    /// ([`RunConfig::from_env`], read here once); see
    /// [`from_config`](Self::from_config) to pass them in.
    pub fn new(config: DriverConfig, _attrs: &ExpansionAttrs) -> Self {
        Self::from_config(config, &RunConfig::from_env())
    }

    /// Set up the partition, grids and the baroclinic-wave initial states
    /// of `config`. `run` supplies the tuning and the team width
    /// (`workers` above 1: a team that wide); the instance never looks at
    /// the environment itself. Nothing is lowered here: the first step's
    /// bundle lowers and validates the substep program, once per instance
    /// (or adopts the engine's).
    pub fn from_config(config: DriverConfig, run: &RunConfig) -> Self {
        let partition = Partition::new(config.tile_n, config.rt);
        let grids = compute_grids(&partition, &config);
        let states = grids
            .iter()
            .map(|grid| {
                let mut state = DycoreState::zeros(partition.sub_n, config.nk);
                init_baroclinic(&mut state, grid, &BaroclinicConfig::default());
                state
            })
            .collect();
        Self::assemble(config, partition, grids, states, run)
    }

    /// An instance at `ck`'s step with a copy of its states, counted in
    /// [`take_state_copies`](Self::take_state_copies); nothing else is
    /// computed when `shared_grids` holds one grid per rank (the serving
    /// engine passes its case's set, so every tenant reads the same
    /// grids), and the grids are computed otherwise. `run` is read as by
    /// [`from_config`](Self::from_config). Stepping it is bit-identical
    /// to stepping the instance `ck` was captured from.
    ///
    /// # Panics
    ///
    /// When `ck` does not hold one state per rank of its configuration.
    pub fn from_checkpoint(
        ck: &crate::checkpoint::Checkpoint,
        shared_grids: Option<Arc<Vec<Grid>>>,
        run: &RunConfig,
    ) -> Self {
        let partition = Partition::new(ck.config.tile_n, ck.config.rt);
        assert_eq!(
            ck.states.len(),
            partition.ranks(),
            "checkpoint rank count does not cover this partition"
        );
        let grids = match shared_grids.filter(|g| g.len() == partition.ranks()) {
            Some(g) => g,
            None => compute_grids(&partition, &ck.config),
        };
        let mut d = Self::assemble(ck.config, partition, grids, ck.states.to_vec(), run);
        *d.state_copies.get_mut() = ck.states.len() as u64;
        d.step_index = ck.step;
        d
    }

    fn assemble(
        config: DriverConfig,
        partition: Partition,
        grids: Arc<Vec<Grid>>,
        states: Vec<DycoreState>,
        run: &RunConfig,
    ) -> Self {
        let nranks = partition.ranks();
        DistributedDycore {
            config,
            partition,
            grids,
            states,
            inspected: OnceLock::new(),
            step_index: 0,
            pool: None,
            schedule: match run.workers {
                Some(w) if w > 1 => RankSchedule::Parallel,
                _ => RankSchedule::Sequential,
            },
            tuned: run.tune,
            host_workers: run.host_workers(),
            cache: None,
            shared_substep: None,
            exec_cache_hits: 0,
            exec_cache_misses: 0,
            scratch_built: AtomicU64::new(0),
            state_copies: AtomicU64::new(0),
            rank_workers_launched: 0,
            instance_id: crate::parallel::next_instance_id(),
            mut_clock: 0,
            mutated_at: vec![0; nranks],
            overlap: obs::OverlapStats::default(),
            halo_bytes_posted: 0,
            halo_messages_posted: 0,
            run: RunContext::default(),
            step_interrupted: false,
        }
    }

    /// Resume a run from an `FV3CKPT1` checkpoint file: an instance of the
    /// stored configuration at the stored step
    /// ([`from_checkpoint`](Self::from_checkpoint)), team width and tuning
    /// from the environment. The resumed run is bit-identical to one that
    /// never stopped.
    pub fn resume_from(path: &Path) -> std::io::Result<Self> {
        let ck = crate::checkpoint::Checkpoint::load(path)?;
        let want = 6 * ck.config.rt * ck.config.rt;
        if ck.states.len() != want {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: {} ranks in checkpoint, rt={} needs {want}",
                    path.display(),
                    ck.states.len(),
                    ck.config.rt
                ),
            ));
        }
        Ok(Self::from_checkpoint(&ck, None, &RunConfig::from_env()))
    }

    /// Restore states and step counter from a checkpoint taken on a
    /// compatible configuration (same partition and vertical extent).
    /// Deliberately does *not* touch `self.config`: a supervisor that
    /// backed off the time step keeps the backed-off value across the
    /// rollback.
    ///
    /// The restore is *rank-aware*: when the checkpoint carries a
    /// [`crate::CheckpointBasis`] from this very driver instance, only
    /// ranks mutated since that basis are rewritten — one rank's failure
    /// does not roll back its neighbours' untouched states. Checkpoints
    /// from disk or another instance restore every rank. Returns the
    /// number of ranks actually restored. A restored rank is copied into
    /// the arrays it already owns.
    pub fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) -> usize {
        assert_eq!(
            (ck.config.tile_n, ck.config.rt, ck.config.nk),
            (self.config.tile_n, self.config.rt, self.config.nk),
            "checkpoint partition incompatible with this dycore"
        );
        assert_eq!(
            ck.states.len(),
            self.partition.ranks(),
            "checkpoint rank count does not cover this partition"
        );
        let known = ck
            .basis
            .filter(|b| b.instance == self.instance_id && b.clock <= self.mut_clock);
        let mut restored = 0;
        for r in 0..self.partition.ranks() {
            let clean = known.is_some_and(|b| self.mutated_at[r] <= b.clock);
            if !clean {
                self.states[r].copy_from(&ck.states[r]);
                restored += 1;
            }
        }
        *self.state_copies.get_mut() += restored as u64;
        if let Some(b) = known {
            for m in &mut self.mutated_at {
                *m = (*m).min(b.clock);
            }
        } else {
            // Unknown lineage: every rank was rewritten; stamp them all
            // at a fresh clock tick.
            self.mut_clock += 1;
            let c = self.mut_clock;
            for m in &mut self.mutated_at {
                *m = c;
            }
        }
        self.step_index = ck.step;
        restored
    }

    /// Driver steps completed since construction or the last restore.
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Set the width of a [`RankSchedule::Parallel`] team (`None`: the
    /// construction-time [`RunConfig::host_workers`]); bit-identical at
    /// every width. The bundle, exchange plan and mailboxes stay; only the
    /// team's kept stores are resized.
    pub fn set_pool(&mut self, pool: Option<Pool>) {
        self.pool = pool;
        self.fit_team();
    }

    /// Install a shared substep compile bundle (see
    /// [`CompiledSubstep`]). The bundle is adopted on the next step iff
    /// it was built for this driver's configuration; otherwise the driver
    /// silently builds its own. Invalidates the step cache.
    pub fn set_shared_substep(&mut self, sub: Arc<CompiledSubstep>) {
        self.shared_substep = Some(sub);
        self.cache = None;
    }

    /// Set the whole-program tuning decision (initially
    /// [`RunConfig::tune`]). Invalidates the step cache so the next step
    /// compiles accordingly.
    pub fn set_tuned(&mut self, tuned: bool) {
        self.tuned = tuned;
        self.cache = None;
    }

    /// The autotune report of the substep bundle currently in use
    /// (`None` before the first step or for an untuned bundle).
    pub fn tune_report(&self) -> Option<&tuning::AutotuneReport> {
        self.cache.as_ref().and_then(|c| c.sub.tune_report())
    }

    /// Cumulative compiled-kernel cache `(hits, misses)` over every rank
    /// program run this driver performed. With a shared substep bundle,
    /// misses count only compilations this driver itself triggered —
    /// a warm tenant reads zero new misses.
    pub fn exec_cache_counters(&self) -> (u64, u64) {
        (self.exec_cache_hits, self.exec_cache_misses)
    }

    /// Scratch stores ([`DataStore::for_sdfg`]) built since construction.
    /// Every step of the team of one builds one and drops it; a wider
    /// team builds one per rank thread and keeps them with the step
    /// cache, however many steps and substeps run on them.
    pub fn scratch_stores_built(&self) -> u64 {
        self.scratch_built.load(Ordering::Relaxed)
    }

    /// Whole rank states captured into a checkpoint, or copied or
    /// rewritten from one, since construction or the last call: the
    /// serving engine's per-request `state_copies`.
    pub fn take_state_copies(&mut self) -> u64 {
        std::mem::take(self.state_copies.get_mut())
    }

    /// Scratch stores this instance holds right now: the rank threads',
    /// between steps; none at width 1.
    pub fn live_scratch_stores(&self) -> usize {
        self.cache
            .as_ref()
            .map_or(0, |c| c.stores.iter().flatten().count())
    }

    /// The rank team's kept stores, for reuse oracles: nothing a caller
    /// writes into them may change what the next step computes
    /// (`tests/scratch_reuse_diff.rs` fills them with NaN).
    pub fn scratch_stores_mut(&mut self) -> impl Iterator<Item = &mut DataStore> {
        self.cache
            .iter_mut()
            .flat_map(|c| c.stores.iter_mut().flatten())
    }

    /// Rank threads launched since construction: the team's width per
    /// acoustic substep when it is above 1, none at width 1.
    pub fn rank_workers_launched(&self) -> u64 {
        self.rank_workers_launched
    }

    /// Fold one execution report's kernel-cache traffic into the driver
    /// counters.
    pub(crate) fn note_kernel_cache(&mut self, hits: u64, misses: u64) {
        self.exec_cache_hits += hits;
        self.exec_cache_misses += misses;
    }

    /// Attach this instance to a run (see [`RunContext`]); each substep,
    /// the rank team gets the same context.
    ///
    /// * `sink` — every completed driver step publishes a `StepCompleted`
    ///   event carrying the step index and wall time. Events carry copies,
    ///   never borrows into live state, so a streamed run is bit-identical
    ///   to a non-streamed one (`tests/stream_diff.rs` proves 0 ULP).
    /// * `cancel` — [`step`](Self::step) polls it between acoustic
    ///   substeps and, once it fires, returns early *without* advancing
    ///   the step counter — [`step_interrupted`](Self::step_interrupted)
    ///   then reports true and the states must be treated as mid-step
    ///   (discard or restore them).
    /// * `faults` — the plan the driver's and the halo sites fire (each
    ///   halo site at most once per substep) and the executor's
    ///   kernel-panic site, once per kernel launch with work.
    /// * `tracer` — `driver_step` / `acoustic` / `rank` / `halo` /
    ///   `kernel` spans.
    ///
    /// Install [`RunContext::default`] to detach.
    pub fn set_run(&mut self, run: RunContext) {
        self.run = run;
    }

    /// The run this instance is attached to (inert by default).
    pub fn run_context(&self) -> &RunContext {
        &self.run
    }

    /// True when the last [`step`](Self::step) aborted at a substep
    /// boundary because the cancel token fired (the step did not count
    /// and the states are partial). Cleared at the start of every step.
    pub fn step_interrupted(&self) -> bool {
        self.step_interrupted
    }

    /// Select the team's width: 1, or the pool's width (see
    /// [`set_pool`](Self::set_pool)). Both give the same bits; like a
    /// pool change, this keeps the bundle and resizes the kept stores.
    pub fn set_rank_schedule(&mut self, schedule: RankSchedule) {
        self.schedule = schedule;
        self.fit_team();
    }

    /// Accumulated rank-team substep timings: pack, wait, run — one
    /// sample per rank-substep.
    pub fn overlap_stats(&self) -> obs::OverlapStats {
        self.overlap
    }

    /// Measured wire traffic posted between rank threads since
    /// construction, as `(bytes, messages)`. One substep posts every
    /// packed field over every channel, so a run at width > 1 posts the
    /// [`comm::ExchangePlan::stats`] closed form times the packed fields
    /// times the substeps (asserted in `tests/weak_scaling.rs`). The team
    /// of one posts only to itself and adds nothing here (the repo
    /// benchmark's `dycore_seq` reads 0 halo bytes a step).
    pub fn halo_traffic_posted(&self) -> (u64, u64) {
        (self.halo_bytes_posted, self.halo_messages_posted)
    }

    /// One rank-substep's graph as
    /// [`lower_substep`](crate::parallel::lower_substep) builds it (never
    /// autotuned): the step cache's when its bundle is untuned, else the
    /// graph of an untuned bundle lowered for the configuration of the
    /// first such call and kept — which the next step adopts when it
    /// needs that bundle, so inspecting first costs no second lowering.
    pub fn program_graph(&self) -> &Sdfg {
        match &self.cache {
            Some(c) if !c.sub.is_tuned() => c.sub.graph(),
            _ => self
                .inspected
                .get_or_init(|| CompiledSubstep::build_with_tune(&self.config, false))
                .graph(),
        }
    }

    /// Advance every rank by one full dycore call (k_split remapping
    /// steps). Each acoustic substep is one round of the rank team: every
    /// rank exchanges its halos, then runs the one-substep program.
    ///
    /// Implementation note: the orchestrated program embeds halo markers;
    /// running whole programs per rank then exchanging would break
    /// lock-step. Instead the team exchanges *before* each rank's run of
    /// a program holding one acoustic substep, which matches the
    /// single-exchange-per-acoustic-substep structure of the program.
    pub fn step(&mut self) {
        let config = self.config.dycore;
        let _step_span = self.run.span("step", "driver_step");
        // Timestamp only when the run has a telemetry sink: streaming
        // off means zero events and zero extra work on the hot path.
        let stream_t0 = self.run.sink.is_active().then(std::time::Instant::now);
        // One acoustic substep at a time, so halos stay current. The
        // per-substep program, its lowering, and the executors are cached
        // across steps (`crate::parallel::StepCache`).
        self.ensure_step_cache();
        // A step that unwinds drops its cache, mailboxes included, so
        // every step starts with empty mailboxes.
        let mut cache = self.cache.take().expect("step cache built");
        self.step_interrupted = false;
        // The team of one's store (23 packed arrays, 1.44 MiB at c24L8)
        // lives for this step (DESIGN §17.1); the rank threads' live in
        // the cache, which an unwinding step drops whole.
        let mut step_store = None;
        'substeps: for ks in 0..config.k_split {
            for ns in 0..config.n_split {
                // Cancellation point: between substeps the states are
                // rank-consistent, no worker holds any of our work, and
                // nothing is mid-write — the safe place to stop. The
                // step counter stays un-advanced; the caller must treat
                // the states as partial (`step_interrupted`).
                if self.run.cancel.fired() {
                    self.step_interrupted = true;
                    break 'substeps;
                }
                let module = Substep { ks, ns };
                let _acoustic_span = self.run.span("acoustic", format_args!("{module}"));
                self.substep(&mut cache, &mut step_store, module);
            }
        }
        self.cache = Some(cache);
        if self.step_interrupted {
            return;
        }
        self.step_index += 1;
        if let Some(t0) = stream_t0 {
            self.run
                .sink
                .step_completed(self.step_index, t0.elapsed().as_secs_f64());
        }
    }

    /// [`SITE_POISON`]: decide whether (and where) to poison one interior
    /// cell of a prognostic field this substep.
    pub(crate) fn plan_poison(&self, module: Substep) -> Option<(usize, String)> {
        let module = module.to_string();
        let ctx = FireCtx {
            step: Some(self.step_index),
            module: Some(&module),
        };
        let faults = &self.run.faults;
        faults.fire(SITE_POISON, ctx).map(|spec| {
            let rank = spec
                .rank
                .unwrap_or_else(|| faults.det_index(0xf1e1d, self.partition.ranks()))
                .min(self.partition.ranks() - 1);
            let field = spec.field.unwrap_or_else(|| "pt".to_string());
            (rank, field)
        })
    }

    /// Overwrite one interior cell of `field` on `rank` with NaN, as a
    /// numerical blowup would; marks the rank mutated.
    pub(crate) fn apply_poison(&mut self, rank: usize, field: &str) {
        let mid = (self.partition.sub_n / 2) as i64;
        self.states[rank].field_mut(field).set(mid, mid, 0, f64::NAN);
        self.mut_clock += 1;
        let clock = self.mut_clock;
        self.mark_rank_mutated(rank, clock);
    }

    /// Record one health sample per rank into `monitor` (the driver-level
    /// analog of FV3's `fv_diagnostics` call after each dycore step).
    /// Returns true when every rank's sample this step is healthy.
    pub fn sample_health(&self, monitor: &mut fv3::health::HealthMonitor, step: u64) -> bool {
        let before = monitor.samples().len();
        for (state, grid) in self.states.iter().zip(self.grids.iter()) {
            monitor.sample(&fv3::health::health_input(
                state,
                grid,
                step,
                self.config.dycore.dt,
            ));
        }
        monitor.samples()[before..].iter().all(|s| s.is_healthy())
    }

    /// Total air mass over all ranks (conservation diagnostic).
    pub fn global_air_mass(&self) -> f64 {
        self.states
            .iter()
            .zip(self.grids.iter())
            .map(|(s, g)| s.air_mass(&g.area))
            .sum()
    }

    /// Total tracer mass over all ranks.
    pub fn global_tracer_mass(&self) -> f64 {
        self.states
            .iter()
            .zip(self.grids.iter())
            .map(|(s, g)| s.tracer_mass(&g.area))
            .sum()
    }

    /// True if any rank's state contains non-finite values.
    pub fn any_nonfinite(&self) -> bool {
        self.states.iter().any(|s| s.has_nonfinite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::CancelToken;

    fn small() -> DistributedDycore {
        let cfg = DriverConfig::six_rank(
            8,
            4,
            DycoreConfig {
                n_split: 1,
                k_split: 1,
                dt: 4.0,
                dddmp: 0.02,
                nord4_damp: None,
            },
        );
        DistributedDycore::new(cfg, &ExpansionAttrs::tuned())
    }

    #[test]
    fn six_rank_dycore_steps_stably() {
        let mut d = small();
        assert_eq!(d.partition.ranks(), 6);
        let mass0 = d.global_air_mass();
        for _ in 0..3 {
            d.step();
        }
        assert!(!d.any_nonfinite());
        let mass1 = d.global_air_mass();
        let rel = (mass1 / mass0 - 1.0).abs();
        // Remapping preserves column mass and transport is flux-form with
        // real halo exchange: global mass drifts only via the simplified
        // corner treatment.
        assert!(rel < 0.05, "global mass drift {rel}");
    }

    #[test]
    fn health_sampling_covers_every_rank_and_stays_clean() {
        let mut d = small();
        let mut monitor = fv3::health::HealthMonitor::new();
        for step in 0..2u64 {
            d.step();
            assert!(
                d.sample_health(&mut monitor, step),
                "unhealthy at step {step}: {:?}",
                monitor.samples().last().map(|s| &s.violations)
            );
        }
        // One sample per rank per step.
        assert_eq!(monitor.samples().len(), 2 * d.partition.ranks());
        assert!(monitor.all_healthy());
        assert_eq!(monitor.to_jsonl().lines().count(), monitor.samples().len());
    }

    #[test]
    fn fired_token_stops_step_at_substep_boundary() {
        let mut d = small();
        let t = CancelToken::new();
        d.set_run(RunContext {
            cancel: t.clone(),
            ..RunContext::default()
        });
        d.step();
        assert_eq!(d.step_index(), 1);
        assert!(!d.step_interrupted());
        t.cancel();
        d.step();
        assert!(d.step_interrupted(), "fired token must interrupt the step");
        assert_eq!(d.step_index(), 1, "interrupted step must not count");
        // The default context makes the driver un-cancellable again.
        d.set_run(RunContext::default());
        d.step();
        assert!(!d.step_interrupted());
        assert_eq!(d.step_index(), 2);
    }

    #[test]
    fn armed_but_unfired_token_is_bit_identical_to_none() {
        let mut plain = small();
        let mut tokened = small();
        tokened.set_run(RunContext {
            cancel: CancelToken::new(),
            ..RunContext::default()
        });
        for _ in 0..2 {
            plain.step();
            tokened.step();
        }
        for (a, b) in plain.states.iter().zip(tokened.states.iter()) {
            for ((name, fa), (_, fb)) in a.fields().iter().zip(b.fields().iter()) {
                assert!(
                    fa.raw()
                        .iter()
                        .zip(fb.raw())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "field {name} diverged under an unfired token"
                );
            }
        }
    }

    #[test]
    fn tenants_built_from_a_template_with_its_bundle_build_no_exchange_plan() {
        let first = DistributedDycore::from_config(small().config, &RunConfig::default());
        let bundle = Arc::new(CompiledSubstep::build_with_tune(&first.config, false));
        let template = crate::Checkpoint::capture(&first);
        let grids = Some(Arc::clone(&first.grids));
        let tenants: Vec<DistributedDycore> = (0..3)
            .map(|_| {
                let mut d =
                    DistributedDycore::from_checkpoint(&template, grids.clone(), &RunConfig::default());
                d.set_shared_substep(Arc::clone(&bundle));
                d.step();
                assert!(Arc::ptr_eq(&d.grids, &first.grids), "the shared grids are read");
                d
            })
            .collect();
        // Three stepped tenants, one plan between them: the bundle's.
        let plans: std::collections::HashSet<*const comm::ExchangePlan> = tenants
            .iter()
            .map(|d| &d.cache.as_ref().expect("stepped").sub.plan as *const _)
            .collect();
        assert_eq!(plans.into_iter().collect::<Vec<_>>(), [&bundle.plan as *const _]);
    }

    #[test]
    fn twentyfour_rank_partition_runs() {
        let cfg = DriverConfig {
            tile_n: 8,
            rt: 2,
            nk: 3,
            dycore: DycoreConfig {
                n_split: 1,
                k_split: 1,
                dt: 2.0,
                dddmp: 0.02,
                nord4_damp: None,
            },
        };
        let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
        assert_eq!(d.partition.ranks(), 24);
        d.step();
        assert!(!d.any_nonfinite());
    }
}
