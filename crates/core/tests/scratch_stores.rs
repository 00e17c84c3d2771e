//! Deterministic counters of the step path's scratch stores and rank
//! team (the style of `fv3/tests/tile_program.rs`: counts, not clocks). A
//! driver that falls back to a store per rank-substep or a thread per
//! rank, or a dycore graph whose stores need re-zeroing between runs,
//! fails a count here, not a timing somewhere else.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{CompiledSubstep, DistributedDycore, DriverConfig, RankSchedule};
use machine::Pool;

fn config(
    n: usize,
    nk: usize,
    n_split: u32,
    k_split: u32,
    nord4_damp: Option<f64>,
) -> DriverConfig {
    DriverConfig::six_rank(
        n,
        nk,
        DycoreConfig {
            n_split,
            k_split,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp,
        },
    )
}

/// `(pool size, rank team)` for a six-rank run: one worker, even deals,
/// an uneven one (4: two workers own two ranks, two own one), a thread per
/// rank, more workers than ranks.
const TEAMS: [(usize, u64); 6] = [(1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (8, 6)];

fn dycore(cfg: DriverConfig, schedule: RankSchedule, workers: usize) -> DistributedDycore {
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(false);
    d.set_pool(Some(Pool::new(workers)));
    d
}

#[test]
fn a_sequential_step_builds_one_store_and_keeps_none() {
    for (n_split, k_split) in [(1, 1), (3, 1), (2, 2)] {
        let mut d = dycore(config(8, 3, n_split, k_split, None), RankSchedule::Sequential, 1);
        assert_eq!(d.scratch_stores_built(), 0);
        for step in 1..=3 {
            d.step();
            let what = format!("n_split={n_split} k_split={k_split} step {step}");
            assert_eq!(d.scratch_stores_built(), step, "{what}");
            assert_eq!(d.live_scratch_stores(), 0, "{what}");
            assert_eq!(d.rank_workers_launched(), 0, "{what}");
        }
    }
}

#[test]
fn a_rank_team_builds_one_store_per_worker_and_keeps_them_across_steps() {
    for (n_split, k_split) in [(1, 1), (2, 2)] {
        for (workers, team) in TEAMS {
            let mut d = dycore(config(8, 3, n_split, k_split, None), RankSchedule::Parallel, workers);
            let what = format!("workers={workers} n_split={n_split} k_split={k_split}");
            for step in 1..=5u64 {
                d.step();
                if [1, 3, 5].contains(&step) {
                    assert_eq!(d.scratch_stores_built(), team, "{what} step {step}");
                    assert_eq!(d.live_scratch_stores() as u64, team, "{what} step {step}");
                }
                // One worker body per team member per acoustic substep,
                // never one per rank.
                assert_eq!(
                    d.rank_workers_launched(),
                    step * (n_split * k_split) as u64 * team,
                    "{what} step {step}"
                );
            }
        }
    }
}

#[test]
fn stores_go_with_the_cache_the_schedule_or_on_request() {
    let mut d = dycore(config(8, 3, 1, 1, None), RankSchedule::Parallel, 2);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (2, 2));

    // Parked: nothing held; the next step builds the team's stores again.
    d.release_scratch_stores();
    assert_eq!(d.live_scratch_stores(), 0);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (4, 2));

    // A sequential instance holds no team stores.
    d.set_rank_schedule(RankSchedule::Sequential);
    assert_eq!(d.live_scratch_stores(), 0);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (5, 0));

    // A new pool is a new team.
    d.set_rank_schedule(RankSchedule::Parallel);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (7, 2));
    d.set_pool(Some(Pool::new(3)));
    assert_eq!(d.live_scratch_stores(), 0);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (10, 3));
}

#[test]
fn without_a_pool_the_team_is_what_the_host_pool_would_be() {
    let mut d = DistributedDycore::new(config(8, 3, 1, 1, None), &ExpansionAttrs::tuned());
    d.set_rank_schedule(RankSchedule::Parallel);
    d.set_tuned(false);
    d.set_pool(None);
    d.step();
    let team = machine::RunConfig::from_env().host_workers().min(6) as u64;
    assert_eq!(d.scratch_stores_built(), team);
    assert_eq!(d.rank_workers_launched(), team);
}

#[test]
fn no_dycore_graph_needs_a_container_cleared() {
    let builds = [
        ("c24L8", config(24, 8, 1, 1, None), false),
        ("c24L8 del4", config(24, 8, 1, 1, Some(0.01)), false),
        ("c12L4 tuned", config(12, 4, 1, 1, None), true),
    ];
    for (what, cfg, tuned) in builds {
        let sub = CompiledSubstep::build_with_tune(&cfg, None, tuned);
        assert_eq!(sub.is_tuned(), tuned);
        // The whole program on the sequential store; interior then rind
        // on a rank thread's.
        assert_eq!(sub.run_graphs(RankSchedule::Sequential).len(), 1, "{what}");
        assert_eq!(sub.run_graphs(RankSchedule::Parallel).len(), 2, "{what}");
        for schedule in [RankSchedule::Sequential, RankSchedule::Parallel] {
            assert_eq!(sub.clear_list(schedule), &[], "{what} {schedule:?}");
        }
    }
}

/// Whole-array copies between a rank's state, its grid and the store,
/// per rank-substep (`array_copies` over `rank_runs`). The sequential
/// schedule lends everything — prognostics swapped in and out, grid
/// metrics by reference (6 when the metrics were copied). The rank team
/// copies the seven prognostics in and out, which is what keeps a starved
/// rank's state untouched, and lends the metrics (20 when it copied them).
#[test]
fn whole_array_copies_per_rank_substep() {
    for (schedule, per_rank_substep) in [(RankSchedule::Sequential, 0), (RankSchedule::Parallel, 14)] {
        let metrics = obs::MetricsRegistry::new();
        let mut d = dycore(config(8, 3, 2, 1, None), schedule, 2);
        d.set_run(machine::RunContext {
            metrics: Some(metrics.clone()),
            ..Default::default()
        });
        d.step();
        d.step();
        let rank_substeps = metrics.counter_value("rank_runs", &[]);
        assert_eq!(rank_substeps, 2 * 2 * 6, "{schedule:?}");
        assert_eq!(
            metrics.counter_value("array_copies", &[]),
            per_rank_substep * rank_substeps,
            "{schedule:?}"
        );
    }
}
