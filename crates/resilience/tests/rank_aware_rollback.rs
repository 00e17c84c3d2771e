//! Rank-aware rollback under the parallel rank schedule: when one rank's
//! halo messages are lost, its receive finds them lost and fails that
//! rank — and only ranks that actually completed the substep are
//! rewritten by the rollback. One starved rank must not roll back its
//! neighbours' completed epochs.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use resilience::{FailureKind, FaultPlan, Supervisor, SupervisorPolicy};

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

/// A dycore attached to a run whose only content is `plan`, armed.
fn faulted(plan: &str) -> DistributedDycore {
    let mut d = dycore();
    d.set_run(machine::RunContext {
        faults: FaultPlan::parse(plan).unwrap().arm(),
        ..Default::default()
    });
    d
}

fn assert_bit_identical(a: &DistributedDycore, b: &DistributedDycore) {
    assert_eq!(a.step_index(), b.step_index());
    for (r, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
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

#[test]
fn dropped_halo_message_rolls_back_only_completed_ranks() {
    let mut d = faulted("seed=11;drop");
    d.set_rank_schedule(RankSchedule::Parallel);
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 2).expect("drop is recovered by rollback");

    assert_eq!(d.step_index(), 2);
    assert_eq!(report.retries, 1, "one rollback clears the lost message");
    assert_eq!(report.restores, 1);
    assert_eq!(report.events[0].kind, FailureKind::Panic);
    assert!(
        report.events[0].detail.contains("halo recv"),
        "panic names the starved receive: {}",
        report.events[0].detail
    );
    // Rank-aware rollback: the starved rank never completed its substep,
    // so its (untouched) state is not rewritten — 5 of 6 ranks restore.
    assert_eq!(
        report.ranks_restored, 5,
        "only completed ranks should be rewritten"
    );

    // The recovered run is bit-identical to one that never faulted.
    let mut clean = dycore();
    for _ in 0..2 {
        clean.step();
    }
    assert_bit_identical(&d, &clean);
}

#[test]
fn restore_from_foreign_checkpoint_rewrites_every_rank() {
    // A checkpoint loaded from another driver instance has no usable
    // basis: the conservative path restores all ranks.
    let mut a = dycore();
    a.step();
    let ck = fv3core::Checkpoint::capture(&a);
    let bytes = ck.to_bytes();
    let foreign = fv3core::Checkpoint::from_bytes(&bytes).expect("roundtrip");
    let mut b = dycore();
    b.step();
    assert_eq!(b.restore(&foreign), b.partition.ranks());
    assert_bit_identical(&a, &b);
}
