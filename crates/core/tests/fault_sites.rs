//! The `halo.corrupt` and `halo.drop` fault sites against the rank team.
//! `halo.corrupt` picks one value on one channel and, before the channel
//! is posted, poisons it (NaN) or scales it by a factor. Either way
//! exactly one rank — that channel's receiver — leaves the substep
//! different from a clean run, and it is the same rank whether the team
//! is one thread or six. `halo.drop` starves one rank's receive.

use comm::halo::{SITE_HALO_CORRUPT, SITE_HALO_DROP};
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3::state::DycoreState;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::faults::{FaultAction, FaultSpec, Faults};
use machine::{Pool, RunContext};
use resilience::{Supervisor, SupervisorPolicy};

/// A six-rank c8L3 cube, one acoustic substep per step.
fn config() -> DriverConfig {
    DriverConfig::six_rank(
        8,
        3,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 2.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    )
}

/// Every rank's state after one step under `schedule` with a
/// `workers`-wide pool, and with `faults` armed.
fn step_once(schedule: RankSchedule, workers: usize, faults: Faults) -> Vec<DycoreState> {
    let mut d = DistributedDycore::new(config(), &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(false);
    d.set_pool(Some(Pool::new(workers)));
    d.set_run(RunContext {
        faults,
        ..RunContext::default()
    });
    d.step();
    d.states
}

fn bit_identical(a: &DycoreState, b: &DycoreState) -> bool {
    let pairs = a.fields().into_iter().zip(b.fields());
    pairs.into_iter().all(|((_, x), (_, y))| {
        x.raw().iter().zip(y.raw()).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

/// Under a team of one and a team of six, one step with `action` at
/// `halo.corrupt` (seed 1, which picks a non-zero value — a factor
/// leaves a zero alone): the site fires once and exactly one rank
/// differs from a clean run, the same under both teams. Returns that
/// rank's state from each team.
fn corrupted_rank(action: FaultAction) -> Vec<DycoreState> {
    let clean = step_once(RankSchedule::Sequential, 1, Faults::inert());
    let teams = [(RankSchedule::Sequential, 1), (RankSchedule::Parallel, 6)];
    let mut victims = Vec::new();
    let mut states = Vec::new();
    for (schedule, workers) in teams {
        let faults = Faults::arm(1, vec![FaultSpec::new(SITE_HALO_CORRUPT, action.clone())]);
        let mut run = step_once(schedule, workers, faults.clone());
        assert_eq!(faults.fired_count(SITE_HALO_CORRUPT), 1, "{schedule:?}");
        let differ: Vec<usize> = (0..run.len())
            .filter(|&r| !bit_identical(&run[r], &clean[r]))
            .collect();
        assert_eq!(differ.len(), 1, "{schedule:?}: ranks {differ:?} differ");
        victims.push(differ[0]);
        states.push(run.swap_remove(differ[0]));
    }
    assert_eq!(victims[0], victims[1], "the same rank under both teams");
    states
}

#[test]
fn corrupt_site_poisons_exactly_one_halo_value() {
    for state in corrupted_rank(FaultAction::PoisonNan) {
        let nan = state.fields().iter().any(|(_, f)| f.raw().iter().any(|v| v.is_nan()));
        assert!(nan, "the poisoned halo value reaches its receiver's state");
    }
}

#[test]
fn corrupt_factor_is_silent_data_corruption() {
    for state in corrupted_rank(FaultAction::CorruptFactor(1000.0)) {
        let finite = state.fields().iter().all(|(_, f)| f.raw().iter().all(|v| v.is_finite()));
        assert!(finite, "factor corruption stays finite: nothing flags it");
    }
}

/// A dropped message was never posted, and a receive waits only while
/// some worker is still posting: every team fails the starved rank as
/// soon as it has posted, with no deadline to set. Only that rank never
/// writes its state back, so the rollback rewrites the other five.
#[test]
fn every_team_fails_a_dropped_message_at_once() {
    let threads = [1, 2, 3, 6].map(|w| (RankSchedule::Parallel, w));
    for (schedule, workers) in [(RankSchedule::Sequential, 1)].into_iter().chain(threads) {
        let what = format!("{schedule:?} on {workers} workers");
        let mut d = DistributedDycore::new(config(), &ExpansionAttrs::tuned());
        d.set_rank_schedule(schedule);
        d.set_pool(Some(Pool::new(workers)));
        let faults = Faults::arm(1, vec![FaultSpec::new(SITE_HALO_DROP, FaultAction::DropMessage)]);
        d.set_run(RunContext {
            faults: faults.clone(),
            ..RunContext::default()
        });
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let report = sup.run(&mut d, 1).expect("the lost message is recovered");
        assert_eq!(report.events.len(), 1, "{what}: one failed step");
        let detail = &report.events[0].detail;
        assert!(detail.contains("halo recv"), "{what}: {detail}");
        assert_eq!(faults.fired_count(SITE_HALO_DROP), 1, "{what}");
        assert_eq!(report.ranks_restored, 5, "{what}");
    }
}
