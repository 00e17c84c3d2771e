//! ISSUE 7 satellite 2: a fault injected into one tenant must stay in
//! that tenant. A `driver.poison_field` fault (written in the standard
//! `FV3_FAULT_PLAN` grammar, armed for the engine's lifetime through
//! `EngineConfig::faults`) poisons `pt` in whichever request reaches
//! step 1 first; that request — run under a zero-retry supervision
//! policy — must fail with a [`SupervisedError`] attributed to its own
//! request id, while every neighbour finishes bit-identical to a clean
//! fresh-process run and reports **zero** injected faults, even when it
//! was running while the poison landed next door.

use dataflow::graph::ExpansionAttrs;
use engine::{EngineConfig, EngineFailure, ForecastEngine, ForecastRequest};
use fv3::state::DycoreState;
use fv3core::DistributedDycore;
use resilience::{FailureKind, FaultPlan, SupervisorPolicy};

const STEPS: u64 = 2;
const TENANTS: usize = 3;

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

#[test]
fn poisoned_tenant_fails_alone_while_neighbours_stay_bit_identical() {
    let req = ForecastRequest::c8l6(STEPS);
    let reference = reference_states(&req);

    // The `once` default retires the spec after its first injection, so
    // exactly one concurrent tenant is poisoned (the fire is serialized
    // by the plan's lock); zero retries turns that poison into an
    // immediate, attributable failure instead of a silent rollback.
    let engine = ForecastEngine::start(EngineConfig {
        slots: TENANTS,
        policy: SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        faults: Some(FaultPlan::parse("seed=7;nan@step=1,field=pt").unwrap()),
        ..EngineConfig::default()
    });

    let ids: Vec<_> = (0..TENANTS)
        .map(|i| engine.submit(req.clone().with_label(&format!("tenant-{i}"))))
        .collect();

    let mut failed = Vec::new();
    let mut clean = 0usize;
    for id in ids {
        let out = engine.wait(id);
        match out.result {
            engine::ForecastResult::Completed(rep) => {
                assert_bit_identical(&rep.states, &reference, &out.label);
                assert!(rep.run.clean(), "{}: neighbour saw recovery events", out.label);
                assert_eq!(
                    rep.run.faults_injected, 0,
                    "{}: a neighbour was charged with the poisoned tenant's injection",
                    out.label
                );
                clean += 1;
            }
            engine::ForecastResult::Failed(EngineFailure::Supervised(e)) => {
                assert_eq!(e.step, 2, "poison (pre-increment step 1) fails the second step");
                assert!(
                    matches!(e.kind, FailureKind::Blowup | FailureKind::Violation),
                    "poison must surface as a numerical failure, got {:?}",
                    e.kind
                );
                assert_eq!(e.faults_injected, 1, "the poison is charged to its own tenant");
                failed.push(out.id);
            }
            engine::ForecastResult::Failed(e @ EngineFailure::Panic(_)) => {
                panic!("{}: unexpected {e}", out.label)
            }
            other => panic!("{}: unexpected terminal '{}'", out.label, other.terminal()),
        }
    }
    assert_eq!(failed.len(), 1, "exactly one tenant is poisoned");
    assert_eq!(clean, TENANTS - 1);

    // The failure is the poisoned request's own outcome above, and the
    // engine counts it once.
    assert_eq!(engine.stats().failed, 1);

    // The case survives the poisoned tenant: a follow-up request runs
    // clean on the still-shared compile bundle (zero recompilation).
    let after = engine.submit(req.clone().with_label("after-fault"));
    let rep = engine.wait(after).result.expect("post-fault request succeeds");
    assert_bit_identical(&rep.states, &reference, "after-fault");
    assert_eq!(rep.cache_misses, 0, "the shared bundle survives the discard");

    let stats = engine.shutdown();
    assert_eq!(stats.completed as usize, TENANTS);
    assert_eq!(stats.failed, 1);
}
