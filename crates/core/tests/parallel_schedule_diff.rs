//! Schedule-equivalence suite: a team of rank threads must be
//! bit-identical — 0 ULPs, every prognostic field, every rank, every
//! step — to the sequential schedule's team of one, and both must
//! reproduce the checked-in distributed golden capture (made when the
//! sequential schedule exchanged through the central `HaloUpdater`).

use comm::{ExchangePlan, Partition};
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3::state::HALO;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::Pool;
use validate::reference::{
    distributed_golden_path, distributed_seed_config, DIST_SEED_STEPS,
};
use validate::{capture_executed_distributed, compare_capture, Capture, Tolerances};

#[test]
fn parallel_schedule_is_bit_identical_to_sequential_on_c8l6() {
    let cfg = distributed_seed_config();
    let seq = capture_executed_distributed(cfg, DIST_SEED_STEPS, RankSchedule::Sequential);
    let par = capture_executed_distributed(cfg, DIST_SEED_STEPS, RankSchedule::Parallel);
    // 6 ranks × DIST_SEED_STEPS steps, labelled t{N}.r{R}.state.
    assert_eq!(seq.savepoints.len(), 6 * DIST_SEED_STEPS);
    assert_eq!(seq.savepoints[0].label, "t0.r0.state");
    compare_capture(&seq, &par, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("parallel rank schedule diverged from sequential: {d}")
    });
    // And the run actually integrated: step N differs from step 0.
    let first = &seq.savepoints[0];
    let last = &seq.savepoints[seq.savepoints.len() - 6];
    let (a, b) = (
        first.field("u").expect("u captured").to_array(),
        last.field("u").expect("u captured").to_array(),
    );
    assert!(
        a.raw().iter().zip(b.raw()).any(|(x, y)| x != y),
        "u never changed across {DIST_SEED_STEPS} steps"
    );
}

#[test]
fn parallel_replay_matches_checked_in_distributed_golden() {
    // Golden-replay anchor: the checked-in FV3GOLD1 capture was produced
    // by the sequential schedule; the parallel schedule must reproduce it
    // bit for bit, so it can never silently drift from the golden-era
    // numbers even if both live schedules drift together.
    let golden = Capture::load(&distributed_golden_path()).expect("golden data present");
    let par = capture_executed_distributed(
        distributed_seed_config(),
        DIST_SEED_STEPS,
        RankSchedule::Parallel,
    );
    compare_capture(&golden, &par, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("parallel schedule drifted from the distributed golden capture: {d}")
    });
}

/// A six-rank c24 configuration: one 24-cell subdomain per tile.
fn wide_config() -> DriverConfig {
    DriverConfig::six_rank(
        24,
        2,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 2.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    )
}

#[test]
fn wide_subdomains_stay_bit_identical() {
    let cfg = wide_config();
    let seq = capture_executed_distributed(cfg, 2, RankSchedule::Sequential);
    let par = capture_executed_distributed(cfg, 2, RankSchedule::Parallel);
    compare_capture(&seq, &par, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("overlapped schedule diverged from sequential on c24: {d}")
    });
}

#[test]
fn overlap_metrics_are_recorded_under_the_parallel_schedule() {
    // What the protocol guarantees: one record per rank-substep, each with
    // a receive phase and a run; no compute ahead of the receive; and
    // every packed field posted over every channel.
    let cfg = wide_config();
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_rank_schedule(RankSchedule::Parallel);
    // The team of one counts no wire traffic: at least two rank threads.
    d.set_pool(Some(Pool::new(machine::RunConfig::from_env().host_workers().max(2))));
    d.step();
    let stats = d.overlap_stats();
    assert_eq!(stats.substeps, 6, "one substep per rank");
    assert_eq!(stats.interior_seconds, 0.0, "{stats:?}");
    assert_eq!(stats.efficiency(), 0.0, "{stats:?}");
    assert!(
        stats.halo_wait_seconds > 0.0 && stats.run_seconds > 0.0,
        "{stats:?}"
    );
    let wire = ExchangePlan::new(&Partition::new(cfg.tile_n, cfg.rt), HALO).stats(cfg.nk);
    assert_eq!(
        d.halo_traffic_posted(),
        (6 * wire.total_bytes, wire.total_messages),
        "six packed fields over every channel"
    );
}

#[test]
fn sequential_schedule_reports_no_overlap() {
    let mut d = DistributedDycore::new(distributed_seed_config(), &ExpansionAttrs::tuned());
    // The width comes from the environment, once, at construction:
    // `FV3_WORKERS` above 1 starts an instance on rank threads.
    d.step();
    let wide = machine::RunConfig::from_env().workers.is_some_and(|w| w > 1);
    assert_eq!(d.rank_workers_launched() > 0, wide);
    d.set_rank_schedule(RankSchedule::Sequential);
    d.step();
    // Every team records one sample per rank-substep, and a team of one
    // computes nothing ahead of its receives either.
    let rank_substeps = 6 * d.config.dycore.n_split * d.config.dycore.k_split;
    let stats = d.overlap_stats();
    assert_eq!(stats.substeps, 2 * rank_substeps as u64, "{stats:?}");
    assert_eq!(stats.efficiency(), 0.0, "{stats:?}");
}

/// Every rank's state after each of `steps` steps under `schedule` with a
/// `workers`-wide pool (which sizes the parallel schedule's rank team and
/// nothing else).
fn run_steps(
    cfg: DriverConfig,
    steps: usize,
    schedule: RankSchedule,
    workers: usize,
    tuned: bool,
) -> Vec<Vec<fv3::state::DycoreState>> {
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(tuned);
    d.set_pool(Some(Pool::new(workers)));
    (0..steps)
        .map(|_| {
            d.step();
            d.states.clone()
        })
        .collect()
}

#[test]
fn every_team_size_is_bit_identical_to_the_sequential_schedule() {
    let c24l8 = DriverConfig::six_rank(24, 8, wide_config().dycore);
    let refined = DriverConfig {
        tile_n: 8,
        rt: 2,
        nk: 3,
        dycore: wide_config().dycore,
    };
    // (case, steps, team sizes from one worker over even and uneven deals
    // to a thread per rank, tuned too?) — tuned on the seed case only:
    // the measured veto is slow in the dev profile. The sequential c8L6
    // run is the one the golden capture pins.
    let cases = [
        ("c8L6", distributed_seed_config(), DIST_SEED_STEPS, &[1, 2, 3, 4, 5, 6][..], true),
        ("c24L8", c24l8, 3, &[1, 2, 3, 6][..], false),
        ("c8L3 rt=2", refined, 2, &[1, 2, 5, 24][..], false),
    ];
    for (what, cfg, steps, teams, with_tuned) in cases {
        let seq = run_steps(cfg, steps, RankSchedule::Sequential, 1, false);
        for tuned in [false, true].into_iter().filter(|t| !t || with_tuned) {
            for &workers in teams.iter().filter(|w| !tuned || [1, 2, 6].contains(*w)) {
                let par = run_steps(cfg, steps, RankSchedule::Parallel, workers, tuned);
                for (step, (a, b)) in seq.iter().zip(&par).enumerate() {
                    for (r, (sa, sb)) in a.iter().zip(b).enumerate() {
                        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
                            assert!(
                                fa.raw()
                                    .iter()
                                    .zip(fb.raw())
                                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                                "{what} team of {workers} tuned={tuned}: \
                                 step {step} rank {r} field {name} diverged"
                            );
                        }
                    }
                }
            }
        }
    }
}
