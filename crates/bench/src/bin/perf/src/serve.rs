//! `serve_open`: the forecast engine under an open loop.
//!
//! Independent users make an open loop: Poisson arrivals at a fixed rate
//! from one generator thread, whatever the engine's state. Requests are
//! short (1–4 steps of a small case), so queueing, warm acquire (restore
//! from the step-0 template), supervision, health sampling and the report
//! snapshot are a visible share of latency — the layer work `dycore_*`
//! bypasses. Latency is timed from the *due* time, which counts the wait
//! a stall imposes on later requests, and the generator's own lateness is
//! reported. Two slots at about 45 % utilisation: median latency is close
//! to service time, so queueing changes surface first in the ungated
//! `engine.queue_wait_s_p95` and `engine.goodput_rps`.
//!
//! The gated latency is taken over the *probe class* only — half of all
//! requests, always the small case for 2 steps at normal priority — so the
//! estimator sees one population whatever the seed made of the rest.

use crate::host::{peak_rss_mib, state_hash, Rng};
use crate::trace::Recorder;
use crate::{setup_block, setup_estimate, stats, Case, Ctx, Outcome, Samples};
use dataflow::graph::ExpansionAttrs;
use engine::{
    EngineConfig, ForecastEngine, ForecastOutcome, ForecastRequest, ForecastResult, Priority,
    RequestId, Scenario, SubmitOptions,
};
use fv3core::{DistributedDycore, RankSchedule};
use machine::pool::Pool;
use obs::stream::{Event, RunEvent};
use resilience::SupervisorPolicy;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const SLOTS: usize = 2;
/// Step budgets the background class draws from.
const STEPS: [u64; 3] = [1, 1, 2];
const PROBE_STEPS: u64 = 1;
/// A request slower than this from its due time misses the goodput count.
const LATENCY_LIMIT_S: f64 = 0.25;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Seconds after the schedule starts at which it is due.
    due_s: f64,
    /// 0: small case, 1: large case.
    case: usize,
    steps: u64,
    priority: Priority,
    probe: bool,
}

/// Poisson arrivals at `rate` until `span_s` (or `count`, for smoke).
fn schedule(rng: &mut Rng, rate: f64, span_s: f64, count: Option<usize>) -> Vec<Req> {
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        let done = match count {
            Some(n) => reqs.len() >= n,
            None => t > span_s,
        };
        if done {
            return reqs;
        }
        let probe = rng.unit() < 0.5;
        let case = usize::from(rng.unit() >= 0.6);
        let steps = rng.pick(&STEPS);
        let lane = rng.unit();
        reqs.push(if probe {
            Req {
                due_s: t,
                case: 0,
                steps: PROBE_STEPS,
                priority: Priority::Normal,
                probe,
            }
        } else {
            Req {
                due_s: t,
                case,
                steps,
                priority: match lane {
                    l if l < 0.1 => Priority::High,
                    l if l < 0.7 => Priority::Normal,
                    _ => Priority::Batch,
                },
                probe,
            }
        });
    }
}

fn request(case: Case, steps: u64) -> ForecastRequest {
    ForecastRequest::new(Scenario::BaroclinicWave, case.driver(), steps)
}

fn engine_config(streaming: bool) -> EngineConfig {
    EngineConfig {
        slots: SLOTS,
        queue_cap: 4096,
        pool: Some(Pool::new(1)),
        policy: SupervisorPolicy::default(),
        streaming,
        ..EngineConfig::default()
    }
}

/// State hash of a solo sequential run of `case` after each step count a
/// request may ask for — the reference every completion must equal.
fn references(cases: [Case; 2]) -> HashMap<(usize, u64), u64> {
    let mut refs = HashMap::new();
    for (ci, case) in cases.into_iter().enumerate() {
        let mut d = DistributedDycore::new(case.driver(), &ExpansionAttrs::tuned());
        d.set_rank_schedule(RankSchedule::Sequential);
        d.set_tuned(false);
        for step in 1..=*STEPS.iter().max().expect("non-empty") {
            d.step();
            if STEPS.contains(&step) {
                refs.insert((ci, step), state_hash(&d.states));
            }
        }
    }
    refs
}

/// What the generator learned about one request.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    probe: bool,
    /// Submit instant minus due time.
    late_s: f64,
    /// Wall seconds of the `submit_with` call.
    submit_s: f64,
    queued_s: f64,
    run_s: f64,
    /// Completed and bit-identical to its reference.
    ok: bool,
    /// Telemetry (streaming phase only): Σ step wall, queue→first step.
    steps_wall_s: f64,
    ttfs_s: f64,
}

impl Record {
    fn latency_s(&self) -> f64 {
        self.late_s + self.queued_s + self.run_s
    }
}

/// Per-request telemetry joined on request id.
#[derive(Default, Clone, Copy)]
struct Telemetry {
    queued_us: f64,
    first_step_us: Option<f64>,
    steps_wall_s: f64,
}

#[derive(Default)]
struct Phase {
    records: Vec<Record>,
    sent: usize,
    generator_late_s_max: f64,
    /// The generator fell more than 10 % of the schedule behind.
    behind: bool,
    /// Schedule start to last completion.
    span_s: f64,
    cold_builds: u64,
    warm_acquires: u64,
    steady_cache_misses: u64,
    events_published: u64,
    events_dropped: u64,
}

impl Phase {
    /// Fold in another segment run under the same engine configuration.
    fn merge(&mut self, o: Phase) {
        self.records.extend(o.records);
        self.sent += o.sent;
        self.generator_late_s_max = self.generator_late_s_max.max(o.generator_late_s_max);
        self.behind |= o.behind;
        self.span_s += o.span_s;
        self.cold_builds += o.cold_builds;
        self.warm_acquires += o.warm_acquires;
        self.steady_cache_misses += o.steady_cache_misses;
        self.events_published += o.events_published;
        self.events_dropped += o.events_dropped;
    }
}

struct InFlight {
    id: RequestId,
    req: Req,
    rec: Record,
    /// Microseconds on the recorder clock at which the request was due.
    due_us: f64,
}

fn absorb(events: Vec<Event>, tele: &mut HashMap<String, Telemetry>) {
    for e in events {
        let Some(rid) = e.request else { continue };
        let t = tele.entry(rid).or_default();
        match e.body {
            RunEvent::RequestQueued { .. } => t.queued_us = e.t_us,
            RunEvent::StepCompleted { wall_seconds, .. } => {
                t.first_step_us.get_or_insert(e.t_us);
                t.steps_wall_s += wall_seconds;
            }
            _ => {}
        }
    }
}

/// File a finished request: verify it, fold in its telemetry, record its
/// spans (request ⊃ late, queue, run), and drop its states.
fn finish(
    f: InFlight,
    out: ForecastOutcome,
    refs: &HashMap<(usize, u64), u64>,
    tele: &mut HashMap<String, Telemetry>,
    rec: &mut Recorder,
    records: &mut Vec<Record>,
) {
    let mut r = f.rec;
    r.queued_s = out.queued_seconds;
    r.run_s = out.run_seconds;
    match &out.result {
        ForecastResult::Completed(rep) => {
            r.ok = refs.get(&(f.req.case, f.req.steps)) == Some(&state_hash(&rep.states));
        }
        other => eprintln!("perf: request {} ended '{}'", out.id, other.terminal()),
    }
    if let Some(t) = tele.remove(&out.id.to_string()) {
        r.steps_wall_s = t.steps_wall_s;
        r.ttfs_s = t.first_step_us.map_or(0.0, |s| (s - t.queued_us) / 1e6);
    }
    if rec.enabled() {
        let rid = Some(out.id.0);
        let submit_us = f.due_us + r.late_s * 1e6;
        let start_us = submit_us + r.queued_s * 1e6;
        let end_us = start_us + r.run_s * 1e6;
        let root = rec.add("request", f.due_us, end_us, None, rid);
        rec.add("generator_late", f.due_us, submit_us, root, rid);
        rec.add("queue_wait", submit_us, start_us, root, rid);
        let run = rec.add("run", start_us, end_us, root, rid);
        if r.steps_wall_s > 0.0 {
            // Step walls are known exactly, their placement is not: lay
            // them end to end from the first step's start.
            rec.add("steps", start_us, start_us + r.steps_wall_s * 1e6, run, rid);
        }
    }
    records.push(r);
}

/// Drive one engine through `reqs` on schedule.
fn phase(ctx: &mut Ctx, reqs: &[Req], refs: &HashMap<(usize, u64), u64>, streaming: bool) -> Phase {
    let cases = [ctx.sizes.case, ctx.sizes.serve_large];
    let span = ctx.rec.open(if streaming {
        "phase.streaming"
    } else {
        "phase.plain"
    });
    let engine = ForecastEngine::start(engine_config(streaming));
    let stream = engine.subscribe_all();

    // Let caches fill: each case cold-builds on both slots and parks warm
    // instances before anything is timed.
    for case in cases {
        let ids: Vec<RequestId> = (0..2 * SLOTS)
            .map(|_| engine.submit_with(request(case, 1), SubmitOptions::default()))
            .collect();
        for id in ids {
            assert!(
                engine.wait(id).result.is_completed(),
                "warm-up request completes"
            );
        }
    }
    if let Some(s) = &stream {
        s.drain();
    }
    let base = engine.stats();

    let mut tele: HashMap<String, Telemetry> = HashMap::new();
    let mut records: Vec<Record> = Vec::with_capacity(reqs.len());
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut generator_late_s_max = 0.0f64;
    let t0 = Instant::now();
    let t0_us = ctx.rec.now_us();
    for req in reqs {
        // Between due times: drain what finished (and its telemetry), so
        // no report — each owns its final states — outlives its check.
        loop {
            if let Some(s) = &stream {
                absorb(s.drain(), &mut tele);
            }
            let mut i = 0;
            while i < inflight.len() {
                match engine.wait_timeout(inflight[i].id, Duration::ZERO) {
                    Some(out) => {
                        let f = inflight.swap_remove(i);
                        finish(f, out, refs, &mut tele, &mut ctx.rec, &mut records);
                    }
                    None => i += 1,
                }
            }
            let now = t0.elapsed().as_secs_f64();
            if now >= req.due_s {
                break;
            }
            // Sleep to the due time, never spin or poll: the generator
            // shares two cores with the engine's slots.
            std::thread::sleep(Duration::from_secs_f64(req.due_s - now));
        }
        let late_s = t0.elapsed().as_secs_f64() - req.due_s;
        generator_late_s_max = generator_late_s_max.max(late_s);
        let t = Instant::now();
        let id = engine.submit_with(
            request(cases[req.case], req.steps),
            SubmitOptions::default().priority(req.priority),
        );
        inflight.push(InFlight {
            id,
            req: *req,
            rec: Record {
                probe: req.probe,
                late_s,
                submit_s: t.elapsed().as_secs_f64(),
                ..Record::default()
            },
            due_us: t0_us + req.due_s * 1e6,
        });
    }
    for f in inflight {
        let out = engine.wait(f.id);
        if let Some(s) = &stream {
            absorb(s.drain(), &mut tele);
        }
        finish(f, out, refs, &mut tele, &mut ctx.rec, &mut records);
    }
    let span_s = t0.elapsed().as_secs_f64();
    let status = engine.status();
    let stats = engine.shutdown();
    ctx.rec.close(span);
    let schedule_s = reqs.last().map_or(0.0, |r| r.due_s);
    let behind = !ctx.args.smoke && generator_late_s_max > 0.1 * schedule_s;
    if behind {
        eprintln!(
            "perf: generator ran {generator_late_s_max:.3}s behind a {schedule_s:.1}s schedule"
        );
    }
    Phase {
        records,
        sent: reqs.len(),
        generator_late_s_max,
        behind,
        span_s,
        cold_builds: stats.cold_builds,
        warm_acquires: stats.warm_acquires - base.warm_acquires,
        steady_cache_misses: stats.cache_misses - base.cache_misses,
        events_published: status.events_published,
        events_dropped: status.events_dropped,
    }
}

fn probe_latencies(p: &Phase) -> Vec<f64> {
    p.records
        .iter()
        .filter(|r| r.probe)
        .map(Record::latency_s)
        .collect()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let cases = [ctx.sizes.case, ctx.sizes.serve_large];
    let block = ctx.sizes.serve_block;
    let rate = ctx.sizes.serve_rate;
    let trace = ctx.args.trace;

    let t = Instant::now();
    let refs = ctx.rec.span(true, "reference", || references(cases));
    let reference_s = t.elapsed().as_secs_f64();

    // The run is cut into rounds, each with its own engine: its share of
    // the set-up blocks, a plain segment of the schedule and, when traced,
    // a streaming segment, so that set-ups and both arms are spread over
    // the host's regimes. The arms' difference is the telemetry overhead.
    let mut rng = Rng::new(ctx.args.seed);
    let (rounds, arms) = match (ctx.args.smoke, trace) {
        (true, _) => (1, 1 + usize::from(trace)),
        (false, false) => (5, 1),
        (false, true) => (3, 2),
    };
    let setup_blocks_per_round = ctx.sizes.setup_blocks.div_ceil(rounds);
    let span_s = ctx.loop_budget().as_secs_f64() / (rounds * arms) as f64;
    let count = ctx.args.smoke.then_some(20);
    let mut setup_times = Vec::new();
    // Set-up, timed to the first useful result: engine start plus the
    // first completed request of each case (cold build, lazy compile, one
    // step).
    let mut setup = || {
        let engine = ForecastEngine::start(engine_config(false));
        let ids = cases.map(|c| engine.submit_with(request(c, 1), SubmitOptions::default()));
        for id in ids {
            assert!(
                engine.wait(id).result.is_completed(),
                "set-up request completes"
            );
        }
        engine.shutdown();
    };
    let mut plain = Phase::default();
    let mut streamed = Phase::default();
    for _ in 0..rounds {
        for _ in 0..setup_blocks_per_round {
            setup_block(&mut ctx.rec, &mut setup_times, &mut setup);
        }
        let reqs = schedule(&mut rng, rate, span_s, count);
        plain.merge(phase(ctx, &reqs, &refs, false));
        if trace {
            let reqs = schedule(&mut rng, rate, span_s, count);
            streamed.merge(phase(ctx, &reqs, &refs, true));
        }
    }
    let setup_s = setup_estimate(&setup_times);

    let attempted = (plain.sent + streamed.sent) as u64;
    let mut failed = 0u64;
    for p in [&plain, &streamed] {
        failed += p.records.iter().filter(|r| !r.ok).count() as u64;
        failed += p.steady_cache_misses.min(1);
    }
    if plain.behind || streamed.behind {
        failed = attempted;
    }

    let samples = Samples {
        plain: probe_latencies(&plain),
        traced: probe_latencies(&streamed),
        wall_s: plain.span_s + streamed.span_s,
    };

    // engine.* describe the plain phase: same configuration as the
    // untraced run.
    let rs = &plain.records;
    let col = |f: fn(&Record) -> f64| rs.iter().map(f).collect::<Vec<f64>>();
    let (queue, runs, lat) = (
        col(|r| r.queued_s),
        col(|r| r.run_s),
        col(Record::latency_s),
    );
    let on_time = rs
        .iter()
        .filter(|r| r.ok && r.latency_s() <= LATENCY_LIMIT_S)
        .count();
    let done = rs.iter().filter(|r| r.ok).count();
    let sent = plain.sent as f64;
    let run_sum: f64 = runs.iter().sum();
    ctx.set("bench.reference_s", reference_s);
    ctx.set("bench.generator_late_s_max", plain.generator_late_s_max);
    ctx.set("validate.state_hash_mismatches", (rs.len() - done) as f64);
    ctx.set("engine.requests_sent", sent);
    ctx.set("engine.requests_completed", done as f64);
    ctx.set("engine.requests_failed", sent - done as f64);
    ctx.set("engine.requests_late", (done - on_time) as f64);
    ctx.set("engine.goodput_rps", on_time as f64 / plain.span_s);
    ctx.set("engine.slo_miss_share", 1.0 - on_time as f64 / sent);
    ctx.set("engine.queue_wait_s_p50", stats::pct(&queue, 50.0));
    ctx.set("engine.queue_wait_s_p95", stats::pct(&queue, 95.0));
    ctx.set("engine.run_s_p50", stats::pct(&runs, 50.0));
    ctx.set("engine.run_s_p95", stats::pct(&runs, 95.0));
    ctx.set("engine.latency_s_p50", stats::pct(&lat, 50.0));
    ctx.set("engine.latency_s_p95", stats::pct(&lat, 95.0));
    ctx.set(
        "engine.submit_s_p50",
        stats::pct(&col(|r| r.submit_s), 50.0),
    );
    ctx.set(
        "engine.slot_busy_share",
        run_sum / (SLOTS as f64 * plain.span_s),
    );
    ctx.set(
        "engine.capacity_rps_est",
        SLOTS as f64 * rs.len() as f64 / run_sum,
    );
    ctx.set(
        "engine.warm_acquire_share",
        plain.warm_acquires as f64 / sent,
    );
    ctx.set("engine.cold_builds", plain.cold_builds as f64);
    ctx.set(
        "engine.cache_misses_steady",
        plain.steady_cache_misses as f64,
    );
    if trace {
        let s = &streamed;
        let seen: Vec<&Record> = s.records.iter().filter(|r| r.steps_wall_s > 0.0).collect();
        let unattributed: Vec<f64> = seen.iter().map(|r| r.run_s - r.steps_wall_s).collect();
        let ttfs: Vec<f64> = seen.iter().map(|r| r.ttfs_s).collect();
        let base = stats::bbm(&samples.plain, block)
            .expect("whole block")
            .value;
        let with = stats::bbm(&samples.traced, block)
            .expect("whole block")
            .value;
        ctx.set("engine.unattributed_s_p50", stats::pct(&unattributed, 50.0));
        ctx.set("engine.ttfs_s_p50", stats::pct(&ttfs, 50.0));
        ctx.set("obs.events_published", s.events_published as f64);
        ctx.set("obs.events_dropped", s.events_dropped as f64);
        ctx.set("obs.stream_overhead_share", with / base - 1.0);
    }
    eprintln!(
        "perf: serve_open threads=1 generator + {SLOTS} slots, sent={sent} completed={done} \
         on_time={on_time} span={:.2}s",
        plain.span_s
    );

    Outcome {
        samples,
        block,
        setup_s,
        peak_rss_mib: peak_rss_mib(),
        attempted,
        failed,
    }
}
