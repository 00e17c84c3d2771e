//! Streamed supervisor recovery (ISSUE 8): when a supervised run rolls
//! back, the retry is visible *live* on the telemetry bus — kind,
//! rollback target, and backoff — alongside per-step health verdicts
//! and checkpoint writes, and the recovered run still matches a clean
//! run bit for bit.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use obs::stream::{EventBus, EventSink, RunEvent};
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};

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

#[test]
fn rollback_recovery_streams_retry_health_and_checkpoint_events() {
    let bus = EventBus::new(256);
    let stream = bus.subscribe_all();

    let mut d = dycore();
    d.set_run(machine::RunContext {
        sink: EventSink::for_request(&bus, "r1"),
        faults: FaultPlan::parse("seed=1;nan@step=1,field=pt").unwrap().arm(),
        ..Default::default()
    });
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 3).expect("supervised run recovers");
    assert_eq!(report.retries, 1);

    let events = stream.drain();
    assert_eq!(stream.dropped(), 0);

    // The rollback was streamed live: one retry event naming the
    // failure kind, the checkpoint it rolled back to, and no backoff
    // (first retry is a pure rollback).
    let retries: Vec<_> = events
        .iter()
        .filter_map(|ev| match &ev.body {
            RunEvent::SupervisorRetry {
                step,
                kind,
                retry,
                backed_off,
                rolled_back_to,
            } => Some((*step, kind.clone(), *retry, *backed_off, *rolled_back_to)),
            _ => None,
        })
        .collect();
    assert_eq!(retries.len(), 1, "one rollback expected: {retries:?}");
    let (step, kind, retry, backed_off, rolled_back_to) = &retries[0];
    // The streamed event mirrors the report's recovery history exactly.
    assert_eq!(*step, report.events[0].step);
    assert_eq!(kind, "blowup");
    assert_eq!(*retry, 1);
    assert!(!*backed_off);
    assert_eq!(*rolled_back_to, report.events[0].rolled_back_to);

    // Health verdicts streamed per completed step; the faulted attempt
    // surfaced as an unhealthy sample before the retry cleared it.
    let verdicts: Vec<(u64, bool)> = events
        .iter()
        .filter_map(|ev| match ev.body {
            RunEvent::HealthSample { step, healthy, .. } => Some((step, healthy)),
            _ => None,
        })
        .collect();
    assert!(
        verdicts.iter().any(|(_, h)| !h),
        "the blowup must stream an unhealthy verdict: {verdicts:?}"
    );
    assert!(verdicts.iter().filter(|(_, h)| *h).count() >= 3);

    // The basis capture at step 0 streamed as a checkpoint write.
    assert!(
        events
            .iter()
            .any(|ev| matches!(ev.body, RunEvent::CheckpointWritten { step: 0, .. })),
        "step-0 basis capture must stream"
    );

    // Observation did not perturb recovery: bit-identical to a clean,
    // unstreamed run.
    let mut clean = dycore();
    for _ in 0..3 {
        clean.step();
    }
    assert_eq!(d.step_index(), clean.step_index());
    for (r, (sa, sb)) in d.states.iter().zip(&clean.states).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            let (va, vb) = (fa.export_logical(), fb.export_logical());
            for (n, (x, y)) in va.iter().zip(&vb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}
