//! `perf` — the repo benchmark. See `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perf --workload <dycore_seq|dycore_par|serve_open|toolchain_cold>
//!      --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics with the span recorder off; with `--trace 1` it
//! interleaves traced and untraced blocks of the same loop, runs the
//! layer probes, writes `perf_trace.<workload>.json`, and reports the
//! per-layer metrics. The last line of stdout is the result object;
//! everything else goes to stderr.

mod dycore;
mod host;
mod probes;
mod serve;
mod stats;
mod toolchain;
mod trace;

use fv3::dyn_core::DycoreConfig;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["dycore_seq", "dycore_par", "serve_open", "toolchain_cold"];

/// End-to-end metrics `(name, unit)`, measured with tracing off. Must
/// match `BENCHMARK.json` (checked by `declared_metrics_match_benchmark_json`).
pub const END_TO_END: [(&str, &str); 3] =
    [("op_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics `(name, unit)`; the prefix is the crate measured.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 79] = [
    // Harness: the gated estimator's companions.
    ("bench.op_s_noise", "share"),
    ("bench.op_s_p50", "s"),
    ("bench.op_s_tail", "s"),
    ("bench.op_s_tail_pct", "pct"),
    ("bench.op_samples", "count"),
    ("bench.ops_per_s", "1/s"),
    ("bench.reference_s", "s"),
    ("bench.trace_overhead_share", "share"),
    ("bench.generator_late_s_max", "s"),
    ("validate.state_hash_mismatches", "count"),
    ("validate.mass_drift_rel", "share"),
    // Probes: each layer's public entry points, timed from outside.
    ("machine.rank_scope_s", "s"),
    ("machine.stream_copy_gib_per_s", "GiB/s"),
    ("comm.exchange_scalar_s", "s"),
    ("comm.exchange_vector_s", "s"),
    ("dataflow.kernel_s_per_step", "s"),
    ("dataflow.exec_overhead_s_per_step", "s"),
    ("dataflow.launches_per_step", "count"),
    ("dataflow.points_per_s", "1/s"),
    ("dataflow.lane_vector_share", "share"),
    ("dataflow.cache_misses_steady", "count"),
    ("fv3.c_sw_s_per_step", "s"),
    ("fv3.d_sw_s_per_step", "s"),
    ("fv3.riem_solver_c_s_per_step", "s"),
    ("fv3.tracer_s_per_step", "s"),
    ("fv3.callback_s_per_step", "s"),
    ("fv3.init_s", "s"),
    ("fv3core.checkpoint_capture_s", "s"),
    ("fv3core.checkpoint_encode_s", "s"),
    ("fv3core.checkpoint_decode_s", "s"),
    ("fv3core.restore_s", "s"),
    ("fv3core.checkpoint_bytes", "bytes"),
    ("resilience.supervised_overhead_s_per_step", "s"),
    ("stencil.program_build_s", "s"),
    ("stencil.states", "count"),
    ("fv3core.pipeline_s", "s"),
    ("fv3core.pipeline_kernels_after", "count"),
    ("dataflow.expand_s", "s"),
    ("dataflow.kernels_expanded", "count"),
    ("tuning.autotune_s", "s"),
    ("tuning.kernels_after", "count"),
    ("dataflow.compile_s", "s"),
    ("dataflow.kernels_compiled", "count"),
    // dycore_* timed loop.
    ("fv3core.construct_s", "s"),
    ("fv3core.first_step_s", "s"),
    ("fv3core.step_s_p50", "s"),
    ("fv3core.step_s_p90", "s"),
    ("fv3core.steps_per_s", "1/s"),
    ("fv3core.cells_per_s", "1/s"),
    ("fv3core.unattributed_s_per_step", "s"),
    ("fv3core.cache_misses_steady", "count"),
    ("fv3core.interior_s_per_step", "s"),
    ("fv3core.overlap_efficiency", "share"),
    ("comm.halo_bytes_per_step", "bytes"),
    ("comm.halo_messages_per_step", "count"),
    ("comm.halo_wait_s_per_step", "s"),
    // serve_open timed loop.
    ("engine.requests_sent", "count"),
    ("engine.requests_completed", "count"),
    ("engine.requests_failed", "count"),
    ("engine.requests_late", "count"),
    ("engine.goodput_rps", "1/s"),
    ("engine.slo_miss_share", "share"),
    ("engine.queue_wait_s_p50", "s"),
    ("engine.queue_wait_s_p95", "s"),
    ("engine.run_s_p50", "s"),
    ("engine.run_s_p95", "s"),
    ("engine.latency_s_p50", "s"),
    ("engine.latency_s_p95", "s"),
    ("engine.submit_s_p50", "s"),
    ("engine.slot_busy_share", "share"),
    ("engine.capacity_rps_est", "1/s"),
    ("engine.warm_acquire_share", "share"),
    ("engine.cold_builds", "count"),
    ("engine.cache_misses_steady", "count"),
    ("engine.unattributed_s_p50", "s"),
    ("engine.ttfs_s_p50", "s"),
    ("obs.events_published", "count"),
    ("obs.events_dropped", "count"),
    ("obs.stream_overhead_share", "share"),
];

/// A six-rank cubed-sphere case: `c{n}L{nk}` with its acoustic time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Case {
    pub n: usize,
    pub nk: usize,
    pub dt: f64,
}

impl Case {
    pub const fn new(n: usize, nk: usize, dt: f64) -> Self {
        Case { n, nk, dt }
    }

    pub fn dycore(&self) -> DycoreConfig {
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: self.dt,
            dddmp: 0.02,
            nord4_damp: None,
        }
    }

    pub fn driver(&self) -> fv3core::DriverConfig {
        fv3core::DriverConfig::six_rank(self.n, self.nk, self.dycore())
    }

    pub fn label(&self) -> String {
        format!("c{}L{}", self.n, self.nk)
    }
}

/// Fixed sizes of every workload: identical on every commit. `--smoke`
/// swaps in the tiny set the package's own tests run.
///
/// The main case is c24L8 on purpose. Its per-rank working set (3.3 MiB)
/// lives in L3 whatever the neighbours do; smaller cases sit in L2 and
/// flip between two speeds 30-45 % apart as a co-tenant takes and
/// releases the cache, and c48L16 streams from DRAM and follows the
/// host's memory-bandwidth weather (measured; see README).
#[derive(Debug, Clone)]
pub struct Sizes {
    /// The `dycore_*` case, the `serve_open` probe class, and the case
    /// every layer probe runs at.
    pub case: Case,
    /// Steps (first included) after which the timed run's state hash must
    /// equal the reference run's under the other rank schedule.
    pub verify_steps: usize,
    /// The larger `serve_open` background case.
    pub serve_large: Case,
    /// Open-loop arrival rate, requests per second.
    pub serve_rate: f64,
    /// Probe-class latencies per BBM block.
    pub serve_block: usize,
    pub step_block: usize,
    pub build_block: usize,
    /// Tile edges and level counts `toolchain_cold` draws from.
    pub build_n: [usize; 3],
    pub build_nk: [usize; 3],
    /// Case on which each structural build config is run once to check
    /// the tuned graph against the untuned one on the scalar VM.
    pub build_verify: Case,
    /// Blocks of [`SETUP_BLOCK`] fresh set-ups per run, spread evenly
    /// over it; `setup_s` is their best-block median.
    pub setup_blocks: usize,
    /// Repetitions of each layer probe.
    pub probe_reps: usize,
    pub stream_elements: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            case: Case::new(24, 8, 4.0),
            verify_steps: 5,
            serve_large: Case::new(32, 8, 4.0),
            serve_rate: 24.0,
            serve_block: 5,
            step_block: 3,
            build_block: 25,
            build_n: [24, 48, 96],
            build_nk: [8, 16, 32],
            build_verify: Case::new(12, 4, 2.0),
            setup_blocks: 15,
            probe_reps: 10,
            stream_elements: 4 << 20,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            case: Case::new(8, 3, 4.0),
            verify_steps: 2,
            serve_large: Case::new(8, 4, 4.0),
            serve_rate: 200.0,
            serve_block: 3,
            step_block: 3,
            build_block: 2,
            build_n: [8, 8, 8],
            build_nk: [3, 3, 4],
            build_verify: Case::new(8, 3, 4.0),
            setup_blocks: 1,
            probe_reps: 2,
            stream_elements: 1 << 14,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 24.0,
            trace: false,
            smoke: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => a.workload = value()?.to_string(),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    a.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, got {v}")),
                    }
                }
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&a.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got '{}'",
                a.workload
            ));
        }
        if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 170.0) {
            return Err(format!("--seconds out of range: {}", a.seconds));
        }
        Ok(a)
    }
}

/// Everything a workload needs: arguments, sizes, the span recorder, and
/// the per-layer metric sink.
pub struct Ctx {
    pub args: Args,
    pub sizes: Sizes,
    pub rec: trace::Recorder,
    layer: BTreeMap<&'static str, f64>,
}

impl Ctx {
    pub fn new(args: Args) -> Self {
        let sizes = if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        };
        let rec = trace::Recorder::new(args.trace);
        Ctx {
            args,
            sizes,
            rec,
            layer: BTreeMap::new(),
        }
    }

    /// Record a per-layer metric. The name must be declared in
    /// [`PER_LAYER`] and set at most once per run.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("per-layer metric '{name}' is not declared"));
        let prev = self.layer.insert(declared.0, value);
        assert!(prev.is_none(), "per-layer metric '{name}' set twice");
    }

    /// The timed loop for this run, in blocks of `block` operations.
    pub fn timed_loop(&mut self, block: usize) -> TimedLoop<'_> {
        TimedLoop {
            budget: self.loop_budget(),
            block,
            trace: self.args.trace,
            setup_blocks: self.sizes.setup_blocks,
            rec: &mut self.rec,
        }
    }

    /// Wall-clock budget of the timed loop. A traced run spends part of
    /// `--seconds` on the layer probes; a smoke run has no budget and
    /// stops at the minimum block count.
    pub fn loop_budget(&self) -> Duration {
        if self.args.smoke {
            Duration::ZERO
        } else if self.args.trace {
            Duration::from_secs_f64(self.args.seconds * 0.7)
        } else {
            Duration::from_secs_f64(self.args.seconds)
        }
    }
}

/// Timed samples of one workload's operation. An untraced run fills only
/// `plain`; a traced run alternates blocks between the two arms so both
/// see the same host regimes.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub plain: Vec<f64>,
    pub traced: Vec<f64>,
    /// Wall seconds from the first to the last timed operation.
    pub wall_s: f64,
}

/// Set-ups per block of the `setup_s` estimator.
pub const SETUP_BLOCK: usize = 3;

/// Run one block of fresh set-ups, each timed and recorded as a span.
pub fn setup_block(rec: &mut trace::Recorder, times: &mut Vec<f64>, one: &mut impl FnMut()) {
    for _ in 0..SETUP_BLOCK {
        times.push(rec.span(true, "setup", || {
            let t = Instant::now();
            one();
            t.elapsed().as_secs_f64()
        }));
    }
}

/// `setup_s`: best-block median of the set-up times. The blocks are
/// spread over the whole run, because set-ups bunched into its first
/// second all land in one host regime (their plain median then moves
/// 30-50 % between identical runs), and there are many of them, because a
/// minimum over blocks nears the floor with every block.
pub fn setup_estimate(times: &[f64]) -> f64 {
    stats::bbm(times, SETUP_BLOCK)
        .expect("at least one block of set-ups")
        .value
}

/// The timed loop shared by `dycore_*` and `toolchain_cold`.
pub struct TimedLoop<'a> {
    pub rec: &'a mut trace::Recorder,
    pub budget: Duration,
    /// Operations per BBM block.
    pub block: usize,
    /// Alternate untraced and traced blocks.
    pub trace: bool,
    /// Set-up blocks to spread evenly over the budget.
    pub setup_blocks: usize,
}

impl TimedLoop<'_> {
    /// Run `op(rec, index, traced)` in blocks until the budget is spent,
    /// and at least `MIN_BLOCKS` blocks per arm, with a block of fresh
    /// `setup`s between op blocks whenever one falls due. `op` returns the
    /// seconds it measured for itself, so bookkeeping between operations
    /// is not timed. Returns the samples and `setup_s`.
    pub fn run(
        self,
        mut setup: impl FnMut(),
        mut op: impl FnMut(&mut trace::Recorder, usize, bool) -> f64,
    ) -> (Samples, f64) {
        const MIN_BLOCKS: usize = 2;
        let arms = if self.trace { 2 } else { 1 };
        let mut s = Samples::default();
        let mut setup_times = Vec::new();
        let mut setups_done = 0;
        let t0 = Instant::now();
        let mut blocks = 0;
        while blocks < MIN_BLOCKS * arms || t0.elapsed() < self.budget {
            let due = self
                .budget
                .mul_f64(setups_done as f64 / self.setup_blocks as f64);
            if setups_done < self.setup_blocks && t0.elapsed() >= due {
                setup_block(self.rec, &mut setup_times, &mut setup);
                setups_done += 1;
            }
            let traced = self.trace && blocks % 2 == 1;
            for i in 0..self.block {
                let dt = op(self.rec, blocks * self.block + i, traced);
                if traced {
                    s.traced.push(dt);
                } else {
                    s.plain.push(dt);
                }
            }
            blocks += 1;
        }
        s.wall_s = t0.elapsed().as_secs_f64();
        // A run too short for its schedule (smoke) catches up here.
        for _ in setups_done..self.setup_blocks {
            setup_block(self.rec, &mut setup_times, &mut setup);
        }
        (s, setup_estimate(&setup_times))
    }
}

/// What a workload hands back for the common report.
pub struct Outcome {
    pub samples: Samples,
    /// BBM block size of `samples`.
    pub block: usize,
    pub setup_s: f64,
    /// `VmHWM` when the measured phase ended, before any verification the
    /// workload runs afterwards.
    pub peak_rss_mib: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // `{v}` prints the shortest string that round-trips: every
            // digit measured.
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn header(ctx: &Ctx, cleared: &[String]) {
    let caches: Vec<String> = host::caches()
        .into_iter()
        .map(|(l, t, s)| format!("L{l}{}={s}", &t[..1].to_lowercase()))
        .collect();
    eprintln!(
        "perf: workload={} seed={} seconds={} trace={} smoke={} git={} nproc={} caches=[{}] \
         schema=e2e:{}+layer:{} cleared_env={:?}",
        ctx.args.workload,
        ctx.args.seed,
        ctx.args.seconds,
        ctx.args.trace as u8,
        ctx.args.smoke,
        host::git_rev(),
        host::nproc(),
        caches.join(" "),
        END_TO_END.len(),
        PER_LAYER.len(),
        cleared,
    );
    eprintln!("perf: sizes={:?}", ctx.sizes);
}

/// Run one workload and return `(attempted, failed, metrics)` ready to
/// print. Split from `main` so the package's tests can call it.
pub fn run(args: Args) -> (u64, u64, Vec<(&'static str, &'static str, f64)>) {
    let mut ctx = Ctx::new(args);
    let root = ctx.rec.open("run");
    let outcome = match ctx.args.workload.as_str() {
        "dycore_seq" => dycore::run(&mut ctx, fv3core::RankSchedule::Sequential),
        "dycore_par" => dycore::run(&mut ctx, fv3core::RankSchedule::Parallel),
        "serve_open" => serve::run(&mut ctx),
        "toolchain_cold" => toolchain::run(&mut ctx),
        other => unreachable!("workload '{other}' passed Args::parse"),
    };
    let mut failed = outcome.failed;
    let bbm = stats::bbm(&outcome.samples.plain, outcome.block).expect("at least one whole block");
    let medians: Vec<String> = stats::block_medians(&outcome.samples.plain, outcome.block)
        .iter()
        .map(|m| format!("{m:.4}"))
        .collect();
    eprintln!("perf: block medians [{}]", medians.join(" "));

    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if ctx.args.trace {
        probes::run_all(&mut ctx);
        let plain = &outcome.samples.plain;
        let n = plain.len() + outcome.samples.traced.len();
        let tail = stats::resolvable_tail(plain.len());
        ctx.set("bench.op_s_noise", bbm.noise);
        ctx.set("bench.op_s_p50", stats::pct(plain, 50.0));
        ctx.set(
            "bench.op_s_tail",
            tail.map_or(0.0, |p| stats::pct(plain, p)),
        );
        ctx.set("bench.op_s_tail_pct", tail.unwrap_or(0.0));
        ctx.set("bench.op_samples", plain.len() as f64);
        ctx.set("bench.ops_per_s", n as f64 / outcome.samples.wall_s);
        let traced = stats::bbm(&outcome.samples.traced, outcome.block)
            .expect("a traced run has at least one whole traced block");
        ctx.set("bench.trace_overhead_share", traced.value / bbm.value - 1.0);

        ctx.rec.close(root);
        let path = format!("perf_trace.{}.json", ctx.args.workload);
        if let Err(e) = std::fs::write(&path, trace::to_chrome_trace(ctx.rec.spans())) {
            eprintln!("perf: cannot write {path}: {e}");
            failed += 1;
        }
        for (name, self_us, count) in trace::self_time_by_name(ctx.rec.spans()) {
            eprintln!("perf: span {name}: n={count} self={:.6}s", self_us / 1e6);
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, ctx.layer.get(name).copied().unwrap_or(0.0)));
        }
    } else {
        metrics.push(("op_s", "s", bbm.value));
        metrics.push(("setup_s", "s", outcome.setup_s));
        metrics.push(("peak_rss_mib", "MiB", outcome.peak_rss_mib));
        eprintln!(
            "perf: op_s blocks={} noise={:.4} p50={:.6} min={:.6} samples={}",
            bbm.blocks,
            bbm.noise,
            stats::pct(&outcome.samples.plain, 50.0),
            stats::pct(&outcome.samples.plain, 0.0),
            outcome.samples.plain.len()
        );
    }
    for (name, unit, v) in &mut metrics {
        if !v.is_finite() {
            eprintln!("perf: metric {name} is not finite ({v} {unit})");
            *v = 0.0;
            failed += 1;
        }
    }
    (outcome.attempted.max(1), failed, metrics)
}

fn main() -> ExitCode {
    // Before any thread exists: no run may depend on ambient knobs.
    let cleared = host::clear_fv3_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    header(&Ctx::new(args.clone()), &cleared);
    let (attempted, failed, metrics) = run(args);
    for (name, unit, v) in &metrics {
        eprintln!("perf: {name} = {v} {unit}");
    }
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
