//! `forecast_serve`: the forecast-as-a-service front door, RAMP-style.
//!
//! ```text
//! forecast_serve init     [key=value ...] # cold-start probe: one request,
//!                                         # report the compile bill
//! forecast_serve submit   [key=value ...] # submit a batch, print one line
//!                                         # per outcome
//! forecast_serve watch    [key=value ...] # submit a batch and tail its
//!                                         # live event stream as JSONL,
//!                                         # one object per line
//! forecast_serve status   [key=value ...] # submit a batch and print a
//!                                         # point-in-time engine snapshot
//!                                         # per poll until it drains
//! forecast_serve cancel   [key=value ...] # submit a long request, cancel
//!                                         # it mid-run, report the partial
//!                                         # progress it kept
//! ```
//!
//! Keys (all optional): `requests=N slots=N steps=N tile_n=N nk=N
//! streaming=0|1` shape the load; `priority=high|normal|batch
//! deadline=SECONDS tenant=NAME tenant_cap=N` shape admission for
//! `submit` and `cancel`. Defaults are the CI soak shape (8 requests,
//! 2 slots, 2 steps, c8L6, streaming on, Normal lane, no deadline).
//!
//! Exit codes are the service contract: 0 when every request completed,
//! 2 when some requests were cancelled / evicted / shed but none
//! genuinely failed (graceful degradation is not an error), 1 when any
//! request failed. The serve-soak CI job validates `watch`'s stream for
//! lifecycle closure; the overload-soak job checks `cancel`'s exit code.

use engine::{
    EngineConfig, ForecastEngine, ForecastRequest, ForecastResult, Priority, Scenario,
    SubmitOptions,
};
use fv3::dyn_core::DycoreConfig;
use fv3core::DriverConfig;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Some requests degraded (cancelled/evicted/shed) but none failed.
const EXIT_DEGRADED: u8 = 2;

/// Engine defaults under this process's environment, read here and
/// nowhere below: `FV3_CHECKPOINT_DIR` persists every request's rollback
/// basis, `FV3_FAULT_PLAN` arms a plan for the engine's lifetime.
fn engine_defaults() -> EngineConfig {
    let run = machine::RunConfig::from_env();
    EngineConfig {
        policy: resilience::SupervisorPolicy {
            checkpoint_dir: run.checkpoint_dir,
            ..Default::default()
        },
        faults: run.fault_plan.map(|text| {
            resilience::FaultPlan::parse(&text)
                .unwrap_or_else(|e| panic!("invalid FV3_FAULT_PLAN: {e}"))
        }),
        ..EngineConfig::default()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: forecast_serve <init|submit|watch|status|cancel> \
         [requests=N] [slots=N] [steps=N] [tile_n=N] [nk=N] [streaming=0|1] \
         [priority=high|normal|batch] [deadline=SECONDS] [tenant=NAME] [tenant_cap=N]"
    );
    ExitCode::FAILURE
}

/// The shape of the batch a subcommand submits.
struct Load {
    requests: usize,
    slots: usize,
    /// Steps per request.
    steps: u64,
    tile_n: usize,
    nk: usize,
    /// `status` only: run the engine with the event bus installed.
    streaming: bool,
}

impl Load {
    /// The request every tenant submits.
    fn request(&self) -> ForecastRequest {
        self.request_with_steps(self.steps)
    }

    /// The same case with a different step budget (`cancel` needs one it
    /// will never finish).
    fn request_with_steps(&self, steps: u64) -> ForecastRequest {
        let config = DriverConfig::six_rank(
            self.tile_n,
            self.nk,
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
}

/// Everything the CLI can shape: the load, plus per-request admission
/// options and the engine's tenant cap.
struct CliConfig {
    load: Load,
    opts: SubmitOptions,
    tenant_cap: Option<usize>,
}

fn parse_config(args: &[String]) -> Result<CliConfig, String> {
    let mut cfg = CliConfig {
        load: Load {
            requests: 8,
            slots: 2,
            steps: 2,
            tile_n: 8,
            nk: 6,
            streaming: true,
        },
        opts: SubmitOptions::default(),
        tenant_cap: None,
    };
    for arg in args {
        let (key, value) = arg
            .split_once('=')
            .ok_or_else(|| format!("'{arg}' is not key=value"))?;
        match key {
            "priority" => {
                cfg.opts.priority = Priority::parse(value)
                    .ok_or_else(|| format!("bad priority '{value}' (high|normal|batch)"))?;
            }
            "deadline" => {
                let secs: f64 = value
                    .parse()
                    .map_err(|e| format!("bad deadline '{value}': {e}"))?;
                if !(secs >= 0.0 && secs.is_finite()) {
                    return Err(format!("bad deadline '{value}': not a finite duration"));
                }
                cfg.opts.deadline = Some(Duration::from_secs_f64(secs));
            }
            "tenant" => cfg.opts.tenant = Some(value.to_string()),
            _ => {
                let n: usize = value
                    .parse()
                    .map_err(|e| format!("bad {key} '{value}': {e}"))?;
                match key {
                    "requests" => cfg.load.requests = n,
                    "slots" => cfg.load.slots = n,
                    "steps" => cfg.load.steps = n as u64,
                    "tile_n" => cfg.load.tile_n = n,
                    "nk" => cfg.load.nk = n,
                    "streaming" => cfg.load.streaming = n != 0,
                    "tenant_cap" => cfg.tenant_cap = Some(n),
                    other => return Err(format!("unknown key '{other}'")),
                }
            }
        }
    }
    Ok(cfg)
}

/// The exit-code contract, from the batch's terminal tallies.
fn verdict(failed: u64, degraded: u64) -> ExitCode {
    if failed > 0 {
        ExitCode::FAILURE
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

/// `init`: prove the environment serves at all — start an engine, run
/// one request, report the compile bill it paid.
fn cmd_init(cfg: CliConfig) -> ExitCode {
    let engine = ForecastEngine::start(EngineConfig {
        slots: cfg.load.slots,
        ..engine_defaults()
    });
    let id = engine.submit(cfg.load.request().with_label("init"));
    let out = engine.wait(id);
    match out.result {
        ForecastResult::Completed(rep) => {
            println!(
                "init ok: request {} ran {} steps in {:.3}s, compiled {} kernels ({} hits)",
                out.id, rep.steps, out.run_seconds, rep.cache_misses, rep.cache_hits
            );
            engine.shutdown();
            ExitCode::SUCCESS
        }
        ForecastResult::Failed(e) => {
            eprintln!("init FAILED: request {}: {e}", out.id);
            ExitCode::FAILURE
        }
        other => {
            eprintln!(
                "init FAILED: request {} reached terminal '{}'",
                out.id,
                other.terminal()
            );
            ExitCode::FAILURE
        }
    }
}

/// `submit`: one-shot client — submit the batch under the CLI's
/// admission options, print an outcome line per request as each
/// finishes.
fn cmd_submit(cfg: CliConfig) -> ExitCode {
    let engine = ForecastEngine::start(EngineConfig {
        slots: cfg.load.slots,
        queue_cap: cfg.load.requests.max(1),
        tenant_cap: cfg.tenant_cap,
        ..engine_defaults()
    });
    let ids: Vec<_> = (0..cfg.load.requests)
        .map(|i| {
            engine.submit_with(
                cfg.load.request().with_label(&format!("batch-{i}")),
                cfg.opts.clone(),
            )
        })
        .collect();
    let mut failed = 0u64;
    let mut degraded = 0u64;
    for id in ids {
        let out = engine.wait(id);
        match &out.result {
            ForecastResult::Completed(rep) => println!(
                "{} {} ok steps={} latency={:.3}s warm={} misses={}",
                out.id,
                out.label,
                rep.steps,
                out.latency_seconds(),
                rep.warm_start,
                rep.cache_misses
            ),
            ForecastResult::Failed(e) => {
                failed += 1;
                println!("{} {} FAILED: {e}", out.id, out.label);
            }
            ForecastResult::Cancelled(c) => {
                degraded += 1;
                println!(
                    "{} {} cancelled ({:?}) after {} steps",
                    out.id, out.label, c.cause, c.steps_done
                );
            }
            ForecastResult::Evicted {
                past_deadline_seconds,
            } => {
                degraded += 1;
                println!(
                    "{} {} evicted {past_deadline_seconds:.3}s past deadline",
                    out.id, out.label
                );
            }
            ForecastResult::Shed { lane } => {
                degraded += 1;
                println!("{} {} shed from lane {}", out.id, out.label, lane.label());
            }
        }
    }
    let stats = engine.shutdown();
    println!(
        "submitted={} completed={} failed={} cancelled={} evicted={} shed={} \
         cache_hits={} cache_misses={}",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.evicted,
        stats.shed,
        stats.cache_hits,
        stats.cache_misses
    );
    verdict(failed, degraded)
}

/// `cancel`: the cancellation demo — submit one request with a budget it
/// could never finish, cancel it once it is running, and report the
/// partial progress the engine handed back. Exits with the degraded
/// code (2): a cancelled request is not a failure.
fn cmd_cancel(cfg: CliConfig) -> ExitCode {
    let engine = ForecastEngine::start(EngineConfig {
        slots: cfg.load.slots,
        tenant_cap: cfg.tenant_cap,
        ..engine_defaults()
    });
    let id = engine.submit_with(
        cfg.load.request_with_steps(100_000).with_label("cancel-me"),
        cfg.opts.clone(),
    );
    // Wait until the request owns a slot so the demo exercises the
    // mid-run path, not the cheap queued-cancel path.
    while engine.status().running.iter().all(|r| r.id != id) {
        if engine.wait_timeout(id, Duration::from_millis(5)).is_some() {
            eprintln!("cancel demo: request finished before it could be cancelled");
            engine.shutdown();
            return ExitCode::FAILURE;
        }
    }
    assert!(engine.cancel(id), "a running request has a live token");
    let out = engine.wait(id);
    let code = match &out.result {
        ForecastResult::Cancelled(c) => {
            println!(
                "{} {} cancelled ({:?}) after {} completed steps, {:.3}s in flight",
                out.id, out.label, c.cause, c.steps_done, out.run_seconds
            );
            ExitCode::from(EXIT_DEGRADED)
        }
        other => {
            eprintln!(
                "cancel demo FAILED: request {} reached terminal '{}'",
                out.id,
                other.terminal()
            );
            ExitCode::FAILURE
        }
    };
    let stats = engine.shutdown();
    println!(
        "submitted={} completed={} cancelled={} (slot released, case template untouched)",
        stats.submitted, stats.completed, stats.cancelled
    );
    code
}

/// `watch`: the live front door — submit the batch and tail every event
/// the engine publishes, one JSON object per line, until the batch
/// drains. Pipe it to `grep step_completed` or a dashboard.
fn cmd_watch(cfg: CliConfig) -> ExitCode {
    let cfg = cfg.load;
    let engine = ForecastEngine::start(EngineConfig {
        slots: cfg.slots,
        queue_cap: cfg.requests.max(1),
        streaming: true,
        stream_buffer: 4096,
        tick_every: Some(Duration::from_millis(250)),
        ..engine_defaults()
    });
    let stream = engine.subscribe_all().expect("streaming engine has a bus");
    let ids: Vec<_> = (0..cfg.requests)
        .map(|i| engine.submit(cfg.request().with_label(&format!("watch-{i}"))))
        .collect();
    let done = AtomicBool::new(false);
    let mut failed = 0u64;
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut failed = 0u64;
            for id in ids {
                failed += !engine.wait(id).result.is_completed() as u64;
            }
            done.store(true, Ordering::Relaxed);
            failed
        });
        // Tail until the waiter is finished *and* the buffer is drained;
        // every event is published before its outcome becomes waitable,
        // so nothing can arrive after that.
        while !(done.load(Ordering::Relaxed) && stream.is_empty()) {
            if let Some(ev) = stream.next_timeout(Duration::from_millis(100)) {
                println!("{}", ev.to_json());
            } else if stream.closed() {
                break;
            }
        }
        failed = waiter.join().expect("waiter thread");
    });
    let status = engine.status();
    eprintln!(
        "watch: {} events published, {} dropped, {} requests failed",
        status.events_published, status.events_dropped, failed
    );
    engine.shutdown();
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `status`: engine introspection — submit the batch and print one
/// point-in-time snapshot per poll (queue, per-request progress, slot
/// and warm-pool occupancy, bus health) until the batch drains.
fn cmd_status(cfg: CliConfig) -> ExitCode {
    let cfg = cfg.load;
    let engine = ForecastEngine::start(EngineConfig {
        slots: cfg.slots,
        queue_cap: cfg.requests.max(1),
        streaming: cfg.streaming,
        ..engine_defaults()
    });
    let ids: Vec<_> = (0..cfg.requests)
        .map(|i| engine.submit(cfg.request().with_label(&format!("status-{i}"))))
        .collect();
    loop {
        let st = engine.status();
        let running: Vec<String> = st
            .running
            .iter()
            .map(|r| {
                format!(
                    "{} {}/{}{}",
                    r.id,
                    r.steps_done,
                    r.steps_budget,
                    match r.last_healthy {
                        Some(true) => " healthy",
                        Some(false) => " UNHEALTHY",
                        None => "",
                    }
                )
            })
            .collect();
        println!(
            "status: queued={} running=[{}] slots={}/{} events={}/{} done={}",
            st.queue_depth(),
            running.join(", "),
            st.slots_busy,
            st.slots,
            st.events_published,
            st.events_dropped,
            st.stats.completed + st.stats.failed
        );
        if st.stats.completed + st.stats.failed >= cfg.requests as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    let mut failed = 0u64;
    for id in ids {
        failed += !engine.wait(id).result.is_completed() as u64;
    }
    let stats = engine.shutdown();
    println!(
        "submitted={} completed={} failed={}",
        stats.submitted, stats.completed, stats.failed
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let cfg = match parse_config(&args[1..]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("forecast_serve: {e}");
            return usage();
        }
    };
    match cmd.as_str() {
        "init" => cmd_init(cfg),
        "submit" => cmd_submit(cfg),
        "watch" => cmd_watch(cfg),
        "status" => cmd_status(cfg),
        "cancel" => cmd_cancel(cfg),
        _ => usage(),
    }
}
