//! Cooperative cancellation through the supervisor (ISSUE 10).
//!
//! Three cancellation points are exercised: between steps (loop top),
//! mid-step at an acoustic-substep boundary (the supervisor and the
//! dycore poll the one token of the run's context), and before a
//! rollback-retry (a recovery cycle must not blow through a deadline it
//! already missed).

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use machine::cancel::{CancelCause, CancelToken};
use machine::{Faults, RunContext};
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};
use std::time::Duration;

/// A dycore running under `cancel` (and `faults`).
fn dycore(cancel: CancelToken, faults: Faults) -> DistributedDycore {
    let cfg = DriverConfig::six_rank(
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
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_run(RunContext {
        cancel,
        faults,
        ..RunContext::default()
    });
    d
}

#[test]
fn pre_fired_token_stops_before_any_step() {
    let token = CancelToken::new();
    token.cancel();
    let mut d = dycore(token, Faults::inert());
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 5).expect("cancellation is not an error");
    assert_eq!(report.cancelled, Some(CancelCause::Requested));
    assert!(!report.completed());
    assert_eq!(report.steps, 0, "no step ran under a fired token");
    assert_eq!(d.step_index(), 0);
    assert_eq!(report.retries, 0);
}

#[test]
fn expired_deadline_reports_deadline_cause() {
    let mut d = dycore(CancelToken::with_budget(Duration::ZERO), Faults::inert());
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 5).expect("deadline expiry is not an error");
    assert_eq!(report.cancelled, Some(CancelCause::Deadline));
    assert_eq!(report.steps, 0);
}

#[test]
fn armed_unfired_token_completes_full_budget() {
    let unfired = CancelToken::with_budget(Duration::from_secs(3600));
    let mut d = dycore(unfired, Faults::inert());
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 2).expect("unfired token changes nothing");
    assert_eq!(report.cancelled, None);
    assert!(report.completed());
    assert_eq!(report.steps, 2);
    assert_eq!(d.step_index(), 2);
}

#[test]
fn mid_run_cancel_from_another_thread_stops_promptly() {
    let token = CancelToken::new();
    let remote = token.clone();
    let handle = std::thread::spawn(move || {
        let mut d = dycore(remote, Faults::inert());
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let report = sup.run(&mut d, 100_000).expect("cancel is not an error");
        (report, d.step_index())
    });
    std::thread::sleep(Duration::from_millis(50));
    token.cancel();
    let (report, step_index) = handle.join().expect("supervised thread survives");
    assert_eq!(report.cancelled, Some(CancelCause::Requested));
    assert!(
        report.steps < 100_000,
        "run stopped early ({} steps)",
        report.steps
    );
    // The step counter only ever counts *completed* steps, even when the
    // token fired mid-step at a substep boundary.
    assert_eq!(report.steps, step_index);
}

#[test]
fn retry_loop_yields_to_deadline_instead_of_spinning() {
    // A repeating NaN makes the first step fail on every attempt
    // (`step=` matches the pre-increment index); with an unbounded retry
    // budget the ONLY exit is a cancellation point. The deadline must
    // terminate the rollback-retry cycle.
    let plan = FaultPlan::parse("seed=9;nan@step=0,field=pt,repeat=1").unwrap();
    let mut d = dycore(
        CancelToken::with_budget(Duration::from_millis(300)),
        plan.arm(),
    );
    let mut sup = Supervisor::new(SupervisorPolicy {
        max_retries: u32::MAX,
        ..SupervisorPolicy::default()
    });
    let report = sup
        .run(&mut d, 5)
        .expect("deadline converts an endless retry cycle into a cancelled run");
    assert_eq!(report.cancelled, Some(CancelCause::Deadline));
    assert_eq!(report.steps, 0, "the poisoned step never completed");
    assert!(
        report.retries >= 1,
        "the cycle retried before the deadline fired"
    );
}
