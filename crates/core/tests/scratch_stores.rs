//! Deterministic counters of the step path's scratch stores and rank
//! team (the style of `fv3/tests/tile_program.rs`: counts, not clocks). A
//! driver that falls back to a store per rank-substep or a thread per
//! rank, or a dycore graph whose stores need re-zeroing between runs or
//! stop packing their transients, fails a count here, not a timing
//! somewhere else.

use dataflow::graph::ExpansionAttrs;
use dataflow::liveness::live_intervals;
use dataflow::{DataStore, Sdfg};
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

/// `(pool size, rank team)` for a six-rank run on rank threads: even deals,
/// an uneven one (4: two workers own two ranks, two own one), a thread per
/// rank, more workers than ranks.
const TEAMS: [(usize, u64); 5] = [(2, 2), (3, 3), (4, 4), (6, 6), (8, 6)];

fn dycore(cfg: DriverConfig, schedule: RankSchedule, workers: usize) -> DistributedDycore {
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(false);
    d.set_pool(Some(Pool::new(workers)));
    d
}

/// Width 1: `Sequential` whatever the pool, or `Parallel` on one worker.
#[test]
fn a_sequential_step_builds_one_store_and_keeps_none() {
    for (schedule, workers) in [(RankSchedule::Sequential, 4), (RankSchedule::Parallel, 1)] {
        for (n_split, k_split) in [(1, 1), (3, 1), (2, 2)] {
            let mut d = dycore(config(8, 3, n_split, k_split, None), schedule, workers);
            assert_eq!(d.scratch_stores_built(), 0);
            for step in 1..=3 {
                d.step();
                let what = format!("{schedule:?}/{workers} n_split={n_split} k_split={k_split}");
                let what = format!("{what} step {step}");
                assert_eq!(d.scratch_stores_built(), step, "{what}");
                assert_eq!(d.live_scratch_stores(), 0, "{what}");
                assert_eq!(d.rank_workers_launched(), 0, "{what}");
            }
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
fn stores_go_with_the_cache_and_the_schedule() {
    let mut d = dycore(config(8, 3, 1, 1, None), RankSchedule::Parallel, 2);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (2, 2));

    // Width 1 holds no team stores.
    d.set_rank_schedule(RankSchedule::Sequential);
    assert_eq!(d.live_scratch_stores(), 0);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (3, 0));

    // A wider team keeps the stores of the workers it had and builds
    // the rest; a narrower one drops the stores of the workers it lost.
    d.set_rank_schedule(RankSchedule::Parallel);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (5, 2));
    d.set_pool(Some(Pool::new(3)));
    assert_eq!(d.live_scratch_stores(), 2);
    d.step();
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (6, 3));
    d.set_pool(Some(Pool::new(2)));
    assert_eq!(d.live_scratch_stores(), 2);
    d.set_pool(Some(Pool::new(1)));
    assert_eq!(d.live_scratch_stores(), 0);
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
    assert_eq!(d.rank_workers_launched(), if team > 1 { team } else { 0 }, "1: inline");
}

#[test]
fn no_dycore_graph_needs_a_container_cleared() {
    let builds = [
        ("c24L8", config(24, 8, 1, 1, None), false),
        ("c24L8 del4", config(24, 8, 1, 1, Some(0.01)), false),
        ("c12L4 tuned", config(12, 4, 1, 1, None), true),
    ];
    for (what, cfg, tuned) in builds {
        let sub = CompiledSubstep::build_with_tune(&cfg, tuned);
        assert_eq!(sub.is_tuned(), tuned);
        assert_eq!(sub.clear_list(), &[], "{what}");
    }
}

/// Compiled-kernel cache traffic of c24L8 steps: the first step compiles
/// the substep graph's 25 kernels once, whichever schedule and team runs
/// it, and a steady step launches them once per rank (6 × 25 hits):
/// every width runs the one graph.
#[test]
fn a_team_compiles_and_launches_what_the_sequential_schedule_does() {
    let cfg = config(24, 8, 1, 1, None);
    let teams = [2, 3, 6].map(|w| (RankSchedule::Parallel, w));
    for (schedule, workers) in [(RankSchedule::Sequential, 1)].into_iter().chain(teams) {
        let mut d = dycore(cfg, schedule, workers);
        let what = format!("{schedule:?} workers={workers}");
        d.step();
        let (hits, misses) = d.exec_cache_counters();
        assert_eq!((hits, misses), (6 * 25 - 25, 25), "{what}: first step");
        d.step();
        let (steady_hits, steady_misses) = d.exec_cache_counters();
        assert_eq!(
            (steady_hits - hits, steady_misses - misses),
            (150, 0),
            "{what}: steady step"
        );
    }
}

/// Whole-array copies between a rank's state, its grid and the store,
/// per rank-substep: none. Every team lends everything — prognostics
/// swapped in and out, grid metrics by reference — after its receives,
/// so a starved rank's state stays untouched without a copy. The rank
/// path checks every loan itself: a `debug_assert!`
/// after `lend_state` that each prognostic the store runs on is one of
/// the rank's own arrays. This drives that check under both teams (the
/// dev profile keeps it), and a plain step copies no whole state either.
#[test]
fn whole_array_copies_per_rank_substep() {
    for schedule in [RankSchedule::Sequential, RankSchedule::Parallel] {
        let mut d = dycore(config(8, 3, 2, 1, None), schedule, 2);
        d.step();
        d.step();
        assert_eq!(d.take_state_copies(), 0, "{schedule:?}");
    }
}

/// `(owned arrays, bytes)` of a store for `g`, with every container in
/// an array of its own and as [`DataStore::for_sdfg`] packs it.
fn owned_unpacked_and_packed(g: &Sdfg) -> [(usize, usize); 2] {
    let mut unpacked = g.clone();
    for c in &mut unpacked.containers {
        c.transient = false;
    }
    [&unpacked, g].map(|g| DataStore::for_sdfg(g).owned_arrays())
}

/// The most transients of `g` live at one node.
fn most_transients_live(g: &Sdfg) -> usize {
    let live = live_intervals(g);
    let transient = |d: usize| g.containers[d].transient;
    let nodes = live.iter().flatten().map(|iv| iv.last + 1).max().unwrap_or(0);
    (0..nodes)
        .map(|at| {
            let live_at = |d: &usize| live[*d].is_some_and(|iv| iv.first <= at && at <= iv.last);
            (0..live.len()).filter(|d| transient(*d) && live_at(d)).count()
        })
        .max()
        .unwrap_or(0)
}

/// Transients whose lifetimes do not overlap share one array (see
/// `dataflow::liveness`). c24L8: the substep graph's 30 transients, at
/// most 6 of them live at once, fit 6 arrays beside the 17 containers
/// that keep their own (7 prognostics, 10 fluxes and C-grid winds), so
/// the store drops from 47 arrays of 65 760 B to 23. Every graph needs
/// as many arrays for its transients as it has live at once, the fewest
/// possible. A tuned bundle is packed from its own tuned graph, whose
/// fusions keep more transients live together; which fusions the
/// measured veto lets through varies from build to build, so only the
/// rule is pinned there.
#[test]
fn a_substep_store_packs_its_transients_into_fewer_arrays() {
    let builds = [
        ("c24L8", config(24, 8, 1, 1, None), false, Some((23, 3_090_720, 1_512_480))),
        ("c8L3", config(8, 3, 1, 1, None), false, Some((23, 47 * 6_368, 23 * 6_368))),
        ("c12L4 tuned", config(12, 4, 1, 1, None), true, None),
    ];
    for (what, cfg, tuned, expect) in builds {
        let sub = CompiledSubstep::build_with_tune(&cfg, tuned);
        let g = sub.graph();
        let [(unpacked, before), (packed, after)] = owned_unpacked_and_packed(g);
        assert_eq!((unpacked, packed), (47, 17 + most_transients_live(g)), "{what}");
        assert_eq!(after * unpacked, before * packed, "{what}: arrays of one size");
        if let Some(pinned) = expect {
            assert_eq!((packed, before, after), pinned, "{what}");
        }
        assert!(after * 100 <= before * 60, "{what}: packed to {after} of {before} B");
    }

    // A store the rank team keeps (a two-worker team keeps two across
    // steps) owns the packed arrays, shared ones once.
    let mut d = dycore(config(24, 8, 1, 1, None), RankSchedule::Parallel, 2);
    d.step();
    let owned: Vec<usize> = d.scratch_stores_mut().map(|s| s.owned_arrays().1).collect();
    assert_eq!(owned, [1_512_480; 2]);
}
