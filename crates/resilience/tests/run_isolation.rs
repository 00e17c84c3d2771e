//! Run-scoped state, proven by sharing a process on purpose: a run's
//! fault plan and tracer live in the `RunContext` it was handed, so runs on sibling threads — with no lock, guard or
//! ordering between them — cannot touch each other's.
//!
//! * thread A runs a supervised c8L6 dycore under `nan@step=1,field=pt`
//!   while thread B runs the same case clean, twenty rounds, both
//!   released by one barrier per round: B is 0-ULP equal to a solo
//!   reference every round (it never sees A's poison), A recovers to
//!   the same bits, and A's plan logs exactly one injection per round;
//! * two dycores traced at once through two contexts record exactly the
//!   spans each records alone.
//!
//! The two tests also run beside each other, which is the point.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3::state::DycoreState;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::{Pool, RunContext};
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};
use std::collections::BTreeMap;
use std::sync::Barrier;

const ROUNDS: usize = 20;
const STEPS: u64 = 3;

fn c8l6() -> DistributedDycore {
    let cfg = DriverConfig::six_rank(
        8,
        6,
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

fn assert_bit_identical(got: &[DycoreState], want: &[DycoreState], what: &str) {
    for (r, (sa, sb)) in got.iter().zip(want).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            for (n, (x, y)) in fa.raw().iter().zip(fb.raw()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn a_poisoned_run_and_a_clean_one_share_a_process_and_nothing_else() {
    let solo = {
        let mut d = c8l6();
        for _ in 0..STEPS {
            d.step();
        }
        d.states
    };
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        let poisoned = s.spawn(|| {
            for round in 0..ROUNDS {
                let faults = FaultPlan::parse("seed=1;nan@step=1,field=pt")
                    .unwrap()
                    .arm();
                let mut d = c8l6();
                d.set_run(RunContext {
                    faults: faults.clone(),
                    ..RunContext::default()
                });
                let mut sup = Supervisor::new(SupervisorPolicy::default());
                start.wait();
                let report = sup.run(&mut d, STEPS).expect("the blowup is recovered");
                let what = format!("A round {round}");
                assert_eq!((report.retries, report.faults_injected), (1, 1), "{what}");
                let log = faults.log();
                assert_eq!(log.len(), 1, "{what}: {log:?}");
                assert_eq!(log[0].step, Some(1), "{what}");
                assert_bit_identical(&d.states, &solo, &what);
            }
        });
        let clean = s.spawn(|| {
            for round in 0..ROUNDS {
                let mut d = c8l6();
                start.wait();
                for _ in 0..STEPS {
                    d.step();
                }
                assert_bit_identical(&d.states, &solo, &format!("B round {round}"));
            }
        });
        poisoned.join().expect("thread A");
        clean.join().expect("thread B");
    });
}

/// What one traced run left in its context: span counts by
/// `(category, name)`.
#[derive(Debug, PartialEq)]
struct Recorded {
    spans: BTreeMap<(String, String), usize>,
}

fn traced_run(schedule: RankSchedule, steps: usize, start: &Barrier) -> Recorded {
    let tracer = obs::Tracer::new();
    let mut d = c8l6();
    d.set_rank_schedule(schedule);
    d.set_tuned(false);
    d.set_pool(Some(Pool::new(2)));
    d.set_run(RunContext {
        tracer: Some(tracer.clone()),
        ..RunContext::default()
    });
    start.wait();
    for _ in 0..steps {
        d.step();
    }
    let mut spans = BTreeMap::new();
    for e in tracer.finished() {
        *spans.entry((e.cat, e.name)).or_default() += 1;
    }
    Recorded { spans }
}

#[test]
fn two_traced_runs_each_record_only_themselves() {
    // Different shapes on purpose — one sequential step (a team of one,
    // every span on the caller) against two parallel ones (rank and halo
    // spans on team workers) — so a span that lands in the wrong context
    // cannot cancel out.
    let alone = Barrier::new(1);
    let seq_alone = traced_run(RankSchedule::Sequential, 1, &alone);
    let par_alone = traced_run(RankSchedule::Parallel, 2, &alone);
    let count = |r: &Recorded, cat: &str, name: &str| {
        r.spans
            .get(&(cat.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(count(&seq_alone, "step", "driver_step"), 1);
    assert_eq!(count(&seq_alone, "halo", "halo_exchange"), 6, "one per rank-substep");
    assert_eq!(count(&seq_alone, "rank", "rank3"), 1);
    assert_eq!(count(&par_alone, "step", "driver_step"), 2);
    assert_eq!(count(&par_alone, "halo", "halo_exchange"), 12);
    assert_eq!(count(&par_alone, "rank", "rank3"), 2);
    for r in [&seq_alone, &par_alone] {
        assert!(r.spans.keys().any(|(cat, _)| cat == "kernel"), "{r:?}");
    }
    assert_ne!(seq_alone, par_alone);

    for round in 0..5 {
        let start = Barrier::new(2);
        let (seq, par) = std::thread::scope(|s| {
            let seq = s.spawn(|| traced_run(RankSchedule::Sequential, 1, &start));
            let par = s.spawn(|| traced_run(RankSchedule::Parallel, 2, &start));
            (
                seq.join().expect("sequential run"),
                par.join().expect("parallel run"),
            )
        });
        assert_eq!(seq, seq_alone, "round {round}");
        assert_eq!(par, par_alone, "round {round}");
    }
}
