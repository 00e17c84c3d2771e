//! Crash-recovery smoke check for CI: run the c8L6 case under the
//! resilience supervisor with faults injected, and fail unless every
//! scenario completes *via rollback* — i.e. the fault actually fired and
//! the run still finished.
//!
//! Scenarios (each its own dycore, supervisor, and fault plan):
//!
//! * `nan-blowup` — a NaN is poisoned into `pt` mid-step; health
//!   sampling flags the blowup and the supervisor rolls back.
//! * `worker-panic` — the first kernel launch panics; the panic
//!   propagates once the rank team has joined, and the step is retried.
//!
//! `FV3_FAULT_PLAN` replaces the built-in scenarios with a single
//! custom one; `FV3_CHECKPOINT_DIR` persists the rollback basis. Both
//! are read once, as [`RunConfig`] fields.
//!
//! Emits `RUN_health.jsonl` (health samples interleaved with
//! `{"type":"recovery",...}` and `{"type":"fault_injection",...}`
//! records carrying the fault site, restore step, and retry count) and
//! `RUN_metrics.jsonl` (one object per completed scenario, its
//! `RunReport` counts: `restores`, `ranks_restored`, `retries`,
//! `checkpoint_writes`, `checkpoint_bytes`, `faults_injected`).

use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use machine::{RunConfig, RunContext};
use obs::json;
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};
use std::fmt::Write as _;
use std::process::ExitCode;

const N: usize = 8;
const NK: usize = 6;
const STEPS: u64 = 3;

struct Scenario {
    name: &'static str,
    plan: String,
}

fn dycore(run: &RunConfig) -> DistributedDycore {
    let cfg = DriverConfig::six_rank(
        N,
        NK,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    DistributedDycore::from_config(cfg, run)
}

fn main() -> ExitCode {
    let run = RunConfig::from_env();
    let policy = SupervisorPolicy {
        checkpoint_dir: run.checkpoint_dir.clone(),
        ..SupervisorPolicy::default()
    };
    let scenarios = match &run.fault_plan {
        Some(plan) => vec![Scenario {
            name: "custom",
            plan: plan.clone(),
        }],
        None => vec![
            Scenario {
                name: "nan-blowup",
                plan: "seed=11;nan@step=1,field=pt".to_string(),
            },
            Scenario {
                name: "worker-panic",
                plan: "seed=12;panic".to_string(),
            },
        ],
    };

    let mut health = String::new();
    let mut metrics = String::new();
    let mut failures = Vec::new();

    for sc in &scenarios {
        let plan = match FaultPlan::parse(&sc.plan) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: fault plan for {}: {e}", sc.name);
                return ExitCode::FAILURE;
            }
        };
        let expect_faults = !plan.specs.is_empty();
        println!("scenario {}: plan \"{}\"", sc.name, sc.plan);
        let faults = plan.arm();

        let mut d = dycore(&run);
        d.set_run(RunContext {
            faults: faults.clone(),
            ..RunContext::default()
        });
        let mut sup = Supervisor::new(policy.clone());
        let outcome = sup.run(&mut d, STEPS);

        for ev in &faults.log() {
            writeln!(
                health,
                "{{\"type\": \"fault_injection\", \"scenario\": \"{}\", \"site\": {}, \
                 \"action\": {}, \"step\": {}, \"module\": {}, \"call\": {}}}",
                sc.name,
                json::string(&ev.site),
                json::string(&format!("{:?}", ev.action)),
                ev.step.map_or("null".to_string(), |s| s.to_string()),
                json::string(ev.module.as_deref().unwrap_or("")),
                ev.call
            )
            .unwrap();
        }

        match outcome {
            Ok(report) => {
                println!(
                    "  completed {} steps: {} retries, {} restores, {} faults injected",
                    report.steps, report.retries, report.restores, report.faults_injected
                );
                for ev in &report.events {
                    println!(
                        "  recovery: step {} {} retry {} -> rolled back to step {}{}",
                        ev.step,
                        ev.kind.label(),
                        ev.retry,
                        ev.rolled_back_to,
                        if ev.backed_off { " (backed off)" } else { "" }
                    );
                    writeln!(
                        health,
                        "{{\"type\": \"recovery\", \"scenario\": \"{}\", \"step\": {}, \
                         \"kind\": \"{}\", \"retry\": {}, \"rolled_back_to\": {}, \
                         \"backed_off\": {}, \"detail\": {}}}",
                        sc.name,
                        ev.step,
                        ev.kind.label(),
                        ev.retry,
                        ev.rolled_back_to,
                        ev.backed_off,
                        json::string(&ev.detail)
                    )
                    .unwrap();
                }
                health.push_str(&report.monitor.to_jsonl());
                writeln!(
                    metrics,
                    "{{\"scenario\": \"{}\", \"restores\": {}, \"ranks_restored\": {}, \
                     \"retries\": {}, \"checkpoint_writes\": {}, \"checkpoint_bytes\": {}, \
                     \"faults_injected\": {}}}",
                    sc.name,
                    report.restores,
                    report.ranks_restored,
                    report.retries,
                    report.checkpoint_writes,
                    report.checkpoint_bytes,
                    report.faults_injected
                )
                .unwrap();

                if report.steps != STEPS {
                    failures.push(format!(
                        "{}: completed {} of {STEPS} steps",
                        sc.name, report.steps
                    ));
                }
                if expect_faults && report.faults_injected == 0 {
                    failures.push(format!("{}: no fault fired (site unreachable?)", sc.name));
                }
                // Every built-in scenario expects at least one rollback.
                if sc.name != "custom" && report.retries == 0 {
                    failures.push(format!(
                        "{}: run completed without the rollback it was meant to exercise",
                        sc.name
                    ));
                }
            }
            Err(e) => failures.push(format!("{}: {e}", sc.name)),
        }
    }

    for (path, contents) in [("RUN_health.jsonl", &health), ("RUN_metrics.jsonl", &metrics)] {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("wrote RUN_health.jsonl, RUN_metrics.jsonl");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("all {} scenario(s) recovered", scenarios.len());
    ExitCode::SUCCESS
}
