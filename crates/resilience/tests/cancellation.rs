//! Cooperative cancellation through the supervisor (ISSUE 10).
//!
//! Three cancellation points are exercised: between steps (loop top),
//! mid-step at an acoustic-substep boundary (via the token the
//! supervisor installs on the dycore), and before a rollback-retry (a
//! recovery cycle must not blow through a deadline it already missed).
//!
//! The fault registry is process-global and the last test arms a
//! repeating NaN, so the unfaulted tests run under [`unfaulted`]'s empty
//! `ArmGuard`: a step outside any guard would consume the sibling's spec.
//! (Stopgap; ROADMAP item 1 scopes the plan to the run.)

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use machine::cancel::{CancelCause, CancelToken};
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};
use std::time::Duration;

fn dycore() -> DistributedDycore {
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
    DistributedDycore::new(cfg, &ExpansionAttrs::tuned())
}

/// Hold the process-wide arm lock with an empty plan.
fn unfaulted() -> machine::faults::ArmGuard {
    machine::faults::arm(0, Vec::new())
}

#[test]
fn pre_fired_token_stops_before_any_step() {
    let _quiet = unfaulted();
    let mut d = dycore();
    let token = CancelToken::new();
    token.cancel();
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    sup.set_cancel_token(token);
    let report = sup.run(&mut d, 5).expect("cancellation is not an error");
    assert_eq!(report.cancelled, Some(CancelCause::Requested));
    assert!(!report.completed());
    assert_eq!(report.steps, 0, "no step ran under a fired token");
    assert_eq!(d.step_index(), 0);
    assert_eq!(report.retries, 0);
}

#[test]
fn expired_deadline_reports_deadline_cause() {
    let _quiet = unfaulted();
    let mut d = dycore();
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    sup.set_cancel_token(CancelToken::with_budget(Duration::ZERO));
    let report = sup.run(&mut d, 5).expect("deadline expiry is not an error");
    assert_eq!(report.cancelled, Some(CancelCause::Deadline));
    assert_eq!(report.steps, 0);
}

#[test]
fn armed_unfired_token_completes_full_budget() {
    let _quiet = unfaulted();
    let mut d = dycore();
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    sup.set_cancel_token(CancelToken::with_budget(Duration::from_secs(3600)));
    let report = sup.run(&mut d, 2).expect("unfired token changes nothing");
    assert_eq!(report.cancelled, None);
    assert!(report.completed());
    assert_eq!(report.steps, 2);
    assert_eq!(d.step_index(), 2);
}

#[test]
fn mid_run_cancel_from_another_thread_stops_promptly() {
    let _quiet = unfaulted();
    let token = CancelToken::new();
    let remote = token.clone();
    let handle = std::thread::spawn(move || {
        let mut d = dycore();
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        sup.set_cancel_token(remote);
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
    let _guard = plan.arm();

    let mut d = dycore();
    let mut sup = Supervisor::new(SupervisorPolicy {
        max_retries: u32::MAX,
        ..SupervisorPolicy::default()
    });
    sup.set_cancel_token(CancelToken::with_budget(Duration::from_millis(300)));
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
