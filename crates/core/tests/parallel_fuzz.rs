//! Proptest fuzz over rank interleavings (ISSUE 6 satellite): the
//! threaded rank schedule must be bit-identical to the sequential one —
//! or recover to it through a clean supervised rollback — for every
//! combination of worker-pool width (1..8, so rank teams of one worker
//! for 24 ranks up to a thread per rank), rank refinement (rt = 1, 2),
//! vertical extent, and injected `halo.stall` / `halo.drop` fault, and
//! it must never hang (a team posts every send before it receives
//! anything, and a message missing once every worker has posted reads
//! as lost at once) or silently
//! diverge (the final state is always compared against an unfaulted
//! sequential run of the same configuration).
//!
//! Regression seeds found by the fuzzer are pinned as named tests at the
//! bottom, following `dataflow/tests/vm_diff.rs`.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::Pool;
use proptest::prelude::*;
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};

/// Steps per case: two, so the second step runs over state produced by
/// the first (and a rollback of step 1 must not disturb step 0's epoch).
const STEPS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    Stall,
    Drop,
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![Just(Fault::None), Just(Fault::Stall), Just(Fault::Drop)]
}

fn config(rt: usize, nk: usize) -> DriverConfig {
    DriverConfig {
        tile_n: 8,
        rt,
        nk,
        dycore: DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    }
}

fn build(rt: usize, nk: usize, workers: usize) -> DistributedDycore {
    let mut d = DistributedDycore::new(config(rt, nk), &ExpansionAttrs::tuned());
    d.set_pool(Some(Pool::new(workers)));
    d
}

fn assert_bit_identical(faulted: &DistributedDycore, clean: &DistributedDycore, label: &str) {
    assert_eq!(faulted.step_index(), clean.step_index(), "{label}: step count");
    for (r, (sa, sb)) in faulted.states.iter().zip(&clean.states).enumerate() {
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

/// Run one configuration through the parallel schedule (under a fault,
/// supervised) and require the final state to match an unfaulted
/// sequential run bit for bit.
fn check_case(workers: usize, rt: usize, nk: usize, fault: Fault, seed: u64) {
    let label = format!("workers={workers} rt={rt} nk={nk} fault={fault:?} seed={seed}");

    let mut clean = build(rt, nk, workers);
    for _ in 0..STEPS {
        clean.step();
    }

    let mut d = build(rt, nk, workers);
    d.set_rank_schedule(RankSchedule::Parallel);

    match fault {
        Fault::None => {
            for _ in 0..STEPS {
                d.step();
            }
        }
        Fault::Stall | Fault::Drop => {
            let text = match fault {
                // A stalled sender is late, not lost: slow, never fatal.
                Fault::Stall => format!("seed={seed};stall@ms=40"),
                Fault::Drop => format!("seed={seed};drop"),
                Fault::None => unreachable!(),
            };
            let plan = FaultPlan::parse(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
            d.set_run(machine::RunContext {
                faults: plan.arm(),
                ..Default::default()
            });
            // Plain rollbacks only: backing off dt would change the
            // numerics and make bit-identity impossible by design.
            let policy = SupervisorPolicy {
                max_retries: 8,
                backoff_after: 8,
                ..SupervisorPolicy::default()
            };
            let mut sup = Supervisor::new(policy);
            let report = sup
                .run(&mut d, STEPS)
                .unwrap_or_else(|e| panic!("{label}: supervised run failed: {e}"));
            match fault {
                Fault::Drop => {
                    assert!(
                        report.restores >= 1,
                        "{label}: a dropped message must force a rollback"
                    );
                }
                Fault::Stall => {
                    assert!(
                        report.clean(),
                        "{label}: a slow message is not a failure: {report:?}"
                    );
                    assert!(
                        report.faults_injected >= 1,
                        "{label}: the stall never fired: {report:?}"
                    );
                }
                Fault::None => unreachable!(),
            }
        }
    }

    assert_eq!(d.step_index(), STEPS, "{label}: run did not complete");
    assert_bit_identical(&d, &clean, &label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: any worker count, refinement, vertical
    /// extent, and injected halo fault — the parallel schedule finishes
    /// and lands bit-identical to the unfaulted sequential run.
    #[test]
    fn random_interleavings_are_bit_identical_or_cleanly_rolled_back(
        workers in 1usize..9,
        rt in 1usize..3,
        nk in 2usize..4,
        fault in arb_fault(),
        seed in 0u64..1u64 << 48,
    ) {
        check_case(workers, rt, nk, fault, seed);
    }
}

// Pinned regression seeds (vm_diff.rs idiom): configurations that
// exercised distinct victim ranks and schedules during development stay
// covered forever, independent of the proptest draw.

#[test]
fn pinned_drop_on_refined_partition_with_wide_pool() {
    // 24 ranks, 8 workers: a dropped message on a refined partition must
    // roll back only the starved rank's neighbours' epochs.
    check_case(8, 2, 2, Fault::Drop, 0x5eed_d20b);
}

#[test]
fn pinned_stall_on_single_worker_pool() {
    // A team of one runs all six ranks on the calling thread: the
    // sleeper delays every post, no receive ever waits, and the stalled
    // exchange still may not perturb the numbers.
    check_case(1, 1, 3, Fault::Stall, 0x5eed_57a1);
}

#[test]
fn pinned_stall_with_a_thread_per_rank() {
    // Six ranks on six rank threads: the sleeper's neighbours receive
    // beside it and wait for its late post, which must still land the
    // same bits as the unfaulted sequential run.
    check_case(6, 1, 3, Fault::Stall, 0x5eed_57a2);
}

#[test]
fn pinned_drop_with_one_worker_for_24_ranks() {
    // The starved rank fails alone in the middle of its worker's
    // queue; the 23 others finish behind it and the step rolls back.
    check_case(1, 2, 2, Fault::Drop, 0x5eed_d20c);
}

#[test]
fn pinned_drop_with_an_uneven_team() {
    // Six ranks over four workers: two own two ranks, two own one.
    check_case(4, 1, 3, Fault::Drop, 0x5eed_d20d);
}

#[test]
fn pinned_unfaulted_refined_partition() {
    // rt=2 makes sub_n equal the halo width (4): a rank's whole subdomain
    // is what its neighbours receive.
    check_case(3, 2, 3, Fault::None, 0x5eed_0000);
}
