//! ISSUE 7 satellite 1: N concurrent tenants running the standard c8L6
//! case through one [`ForecastEngine`] must each be bit-identical
//! (0 ULP) to a fresh single-process run of the same request — sharing
//! one compiled program, one grid set, and one executor across
//! tenants is a pure performance transform, never a numerical one.
//!
//! The compile-sharing claim is asserted through the request-level
//! kernel-cache counters: the first wave pays exactly one compilation
//! per kernel *in total* (concurrent tenants of one bundle dedupe through
//! the executor's cache lock), and every request after the first pays
//! zero.

use dataflow::graph::ExpansionAttrs;
use engine::{EngineConfig, ForecastEngine, ForecastReport, ForecastRequest, ForecastResult};
use fv3::state::DycoreState;
use fv3core::DistributedDycore;
use resilience::{FaultPlan, SupervisorPolicy};
use std::time::{Duration, Instant};

const STEPS: u64 = 2;
const TENANTS: usize = 6;

/// What a tenant of `req` must produce: a fresh driver stepped in
/// isolation, no engine, no sharing.
fn reference_states(req: &ForecastRequest) -> Vec<DycoreState> {
    let mut d = DistributedDycore::new(req.config, &ExpansionAttrs::tuned());
    for _ in 0..req.steps {
        d.step();
    }
    d.states.clone()
}

fn assert_bit_identical(got: &[DycoreState], want: &[DycoreState], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: rank count");
    for (r, (sa, sb)) in got.iter().zip(want).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            let (va, vb) = (fa.export_logical(), fb.export_logical());
            for (n, (x, y)) in va.iter().zip(&vb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}

/// The kernel-compilation bill for one request of this case, measured in
/// a throwaway single-tenant engine.
fn solo_compile_bill(req: &ForecastRequest) -> u64 {
    let engine = ForecastEngine::start(EngineConfig {
        slots: 1,
        ..EngineConfig::default()
    });
    let id = engine.submit(req.clone());
    let misses = engine.wait(id).result.expect("solo run succeeds").cache_misses;
    engine.shutdown();
    misses
}

#[test]
fn concurrent_tenants_are_bit_identical_and_share_one_compile() {
    let req = ForecastRequest::c8l6(STEPS);
    let reference = reference_states(&req);
    let bill = solo_compile_bill(&req);
    assert!(bill > 0, "a cold case must compile something");

    let engine = ForecastEngine::start(EngineConfig {
        slots: 3,
        ..EngineConfig::default()
    });

    // Wave 1: the first tenant builds the case, the rest are built from
    // its template, and all run concurrently. They must agree with the
    // fresh-process reference bit for bit, and pay the compile bill
    // exactly once between them.
    let wave1: Vec<_> = (0..TENANTS)
        .map(|i| engine.submit(req.clone().with_label(&format!("tenant-{i}"))))
        .collect();
    let mut wave1_misses = 0u64;
    for id in wave1 {
        let out = engine.wait(id);
        let label = out.label.clone();
        let rep = out.result.expect(&label);
        assert_bit_identical(&rep.states, &reference, &label);
        assert!(rep.run.clean(), "{label}: clean run expected");
        wave1_misses += rep.cache_misses;
    }
    assert_eq!(
        wave1_misses, bill,
        "concurrent cold tenants must compile each kernel exactly once in total"
    );

    // Wave 2: the case is warm. Zero compilation for every tenant, and
    // still bit-identical — no tenant may see a previous tenant's state.
    let wave2: Vec<_> = (0..TENANTS)
        .map(|i| engine.submit(req.clone().with_label(&format!("wave2-{i}"))))
        .collect();
    let mut warm_starts = 0usize;
    for id in wave2 {
        let out = engine.wait(id);
        let label = out.label.clone();
        let rep = out.result.expect(&label);
        assert_bit_identical(&rep.states, &reference, &label);
        assert_eq!(rep.cache_misses, 0, "{label}: request N+1 pays zero compilation");
        assert!(rep.cache_hits > 0, "{label}: steady state runs from the shared cache");
        warm_starts += rep.warm_start as usize;
    }
    assert!(warm_starts > 0, "the case's template must see reuse");

    let stats = engine.shutdown();
    assert_eq!(stats.submitted as usize, 2 * TENANTS);
    assert_eq!(stats.completed as usize, 2 * TENANTS);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.cache_misses, wave1_misses, "steady-state misses stay zero");
    assert!(stats.warm_acquires > 0);
}

/// Every tenant after a case's first is built from the case's step-0
/// template, whatever became of the tenants before it: a report a client
/// still holds, a failed run, a cancelled one. Each compiles nothing and
/// is bit-identical to a solo run.
#[test]
fn every_later_tenant_is_built_from_the_template() {
    let req = ForecastRequest::c8l6(STEPS);
    let reference = reference_states(&req);
    // One slot: the tenants below run back to back. The plan poisons only
    // a run that reaches step 3, and zero retries makes that a failure.
    let engine = ForecastEngine::start(EngineConfig {
        slots: 1,
        policy: SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        faults: Some(FaultPlan::parse("seed=3;nan@step=3,field=pt").unwrap()),
        ..EngineConfig::default()
    });
    let from_template = |label: &str| {
        let id = engine.submit(req.clone().with_label(label));
        let rep = engine.wait(id).result.expect(label);
        assert!(rep.warm_start, "{label}: built from the template");
        assert_eq!(rep.cache_misses, 0, "{label}: compiles nothing");
        assert_bit_identical(&rep.states, &reference, label);
        rep
    };

    // Every report stays alive across the runs of the tenants after it.
    let id = engine.submit(req.clone().with_label("tenant-0"));
    let first = engine.wait(id).result.expect("clean tenant");
    assert!(!first.warm_start, "the first tenant builds the case");
    let held: Vec<ForecastReport> = (1..3).map(|i| from_template(&format!("tenant-{i}"))).collect();
    assert_bit_identical(&first.states, &reference, "tenant-0, held");
    for (i, rep) in held.iter().enumerate() {
        assert_bit_identical(&rep.states, &reference, &format!("tenant-{}, held", i + 1));
    }

    // After a failed tenant.
    let id = engine.submit(ForecastRequest::c8l6(5).with_label("poisoned"));
    assert!(matches!(engine.wait(id).result, ForecastResult::Failed(_)));
    let after_failed = from_template("after-failed");

    // After a cancelled one.
    let plug = engine.submit(ForecastRequest::c8l6(100_000).with_label("plug"));
    let t0 = Instant::now();
    while !engine.status().running.iter().any(|r| r.id == plug) {
        assert!(t0.elapsed() < Duration::from_secs(120), "the plug never took the slot");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(engine.cancel(plug));
    assert!(matches!(engine.wait(plug).result, ForecastResult::Cancelled(_)));
    from_template("after-cancelled");
    assert_bit_identical(&after_failed.states, &reference, "after-failed, held");

    // One case build; the other six tenants, the failed and the cancelled
    // among them, were built from its template.
    let stats = engine.shutdown();
    assert_eq!((stats.cold_builds, stats.warm_acquires), (1, 6));
}
