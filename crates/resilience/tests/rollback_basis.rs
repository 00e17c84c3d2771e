//! Where a supervised run's rollback basis comes from and when it is
//! refreshed: a run handed its step-0 basis opens without a capture and
//! rolls back through it exactly as through its own, and no run captures
//! the state after its last step — nothing could ever roll back to it.
//! Counts and event sequences, not clocks.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{Checkpoint, DistributedDycore, DriverConfig, RankSchedule};
use obs::stream::{EventBus, EventSink, RunEvent};
use resilience::{FaultPlan, RunReport, Supervisor, SupervisorPolicy};

const RANKS: u64 = 6;

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

fn assert_bit_identical(a: &DistributedDycore, b: &DistributedDycore) {
    assert_eq!(a.step_index(), b.step_index());
    for (r, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            assert!(
                fa.raw().iter().zip(fb.raw()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "rank {r} field {name} differs"
            );
        }
    }
}

/// `(step, persisted)` of every `CheckpointWritten` a run of `steps` under
/// `policy` streams, the run's report, and the whole rank states it
/// duplicated.
fn checkpoints_of(steps: u64, policy: SupervisorPolicy) -> (Vec<(u64, bool)>, RunReport, u64) {
    let bus = EventBus::new(256);
    let stream = bus.subscribe_all();
    let mut d = dycore();
    d.set_run(machine::RunContext {
        sink: EventSink::for_request(&bus, "r1"),
        ..Default::default()
    });
    let report = Supervisor::new(policy).run(&mut d, steps).expect("clean run");
    assert_eq!(stream.dropped(), 0);
    let written = stream
        .drain()
        .iter()
        .filter_map(|ev| match ev.body {
            RunEvent::CheckpointWritten { step, bytes } => Some((step, bytes > 0)),
            _ => None,
        })
        .collect();
    (written, report, d.take_state_copies())
}

#[test]
fn no_in_memory_capture_after_the_last_step() {
    for steps in [1u64, 3] {
        // In memory only: a basis for every step a later one could roll
        // back to, none for the last.
        let (written, report, copies) = checkpoints_of(steps, SupervisorPolicy::default());
        let expect: Vec<(u64, bool)> = (0..steps).map(|s| (s, false)).collect();
        assert_eq!(written, expect, "{steps} steps, in memory");
        assert!(report.clean() && report.events.is_empty());
        assert_eq!(report.checkpoint_writes, 0);
        assert_eq!(copies, steps * RANKS, "{steps} steps, in memory");

        // Mirrored to a directory: the file after the last step is the
        // restart point of the next process, so that write stays.
        let dir = std::env::temp_dir().join(format!(
            "fv3_rollback_basis_{}_{steps}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = SupervisorPolicy {
            checkpoint_dir: Some(dir.clone()),
            ..SupervisorPolicy::default()
        };
        let (written, report, copies) = checkpoints_of(steps, policy);
        let expect: Vec<(u64, bool)> = (0..=steps).map(|s| (s, true)).collect();
        assert_eq!(written, expect, "{steps} steps, mirrored");
        assert!(report.clean());
        assert_eq!(report.checkpoint_writes, steps + 1);
        assert_eq!(copies, (steps + 1) * RANKS, "{steps} steps, mirrored");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A dycore under `plan` and `schedule`, supervised for `steps`: from its
/// own step-0 capture, or — `given` — rewound through another instance's
/// template and handed that template, re-stamped, as its basis (what the
/// serving engine does with a warm instance).
fn recovered(plan: &str, schedule: RankSchedule, steps: u64, given: bool) -> (DistributedDycore, RunReport, u64) {
    let mut d = dycore();
    d.set_rank_schedule(schedule);
    d.set_run(machine::RunContext {
        faults: FaultPlan::parse(plan).unwrap().arm(),
        ..Default::default()
    });
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = if given {
        let template = Checkpoint::capture(&dycore());
        assert_eq!(d.restore(&template), RANKS as usize, "foreign lineage rewrites every rank");
        d.take_state_copies();
        let basis = Checkpoint {
            basis: Some(d.mutation_basis()),
            ..template
        };
        sup.run_from(&mut d, steps, Some(basis))
    } else {
        sup.run(&mut d, steps)
    };
    let copies = d.take_state_copies();
    (d, report.expect("one rollback recovers"), copies)
}

#[test]
fn a_given_basis_rolls_back_bit_identically() {
    let cases = [
        // A NaN in the first step: every rank rolls back to step 0.
        ("seed=1;nan@step=0,field=pt", RankSchedule::Sequential, 6),
        // A lost message in the first step of a rank team: the starved
        // rank never wrote its state back, so five roll back — only if
        // the given basis carries this instance's own mutation clock.
        ("seed=11;drop", RankSchedule::Parallel, 5),
    ];
    for (plan, schedule, ranks_restored) in cases {
        let (own, own_report, own_copies) = recovered(plan, schedule, 2, false);
        let (given, given_report, given_copies) = recovered(plan, schedule, 2, true);
        assert_bit_identical(&own, &given);
        let mut clean = dycore();
        clean.step();
        clean.step();
        assert_bit_identical(&given, &clean);
        for report in [&own_report, &given_report] {
            assert_eq!((report.retries, report.restores), (1, 1), "{plan}");
            assert_eq!(report.events[0].rolled_back_to, 0, "{plan}");
            assert_eq!(report.ranks_restored, ranks_restored, "{plan}");
        }
        // Own: captures at steps 0 and 1, plus the rollback. Given: the
        // step-0 capture is the one the caller already held.
        assert_eq!(own_copies, 2 * RANKS + ranks_restored, "{plan}");
        assert_eq!(given_copies, RANKS + ranks_restored, "{plan}");
    }
}
