//! Reused scratch stores, checked against fresh ones.
//!
//! A sequential `step()` builds a `DataStore` at its first rank-substep
//! and runs every later rank and substep of the step on it; a rank-team
//! worker does the same with a store it keeps for the next step too. `CompiledSubstep::build_with_tune`
//! proves that safe per graph (`dataflow::reuse`); this file is the
//! dynamic side of that proof, with no wall clock in any assertion:
//!
//! * **the poison oracle** — learn which cells a rank-substep writes (run
//!   it on scratch filled with a pattern it cannot compute), then rerun it
//!   on a store whose written cells are all NaN and whose clear-list
//!   containers are zeroed: every container must come out with the bits
//!   a fresh store gives;
//! * **the driver** — `step()` with several substeps, under both rank
//!   schedules, against a reference that allocates a fresh store for
//!   every rank of every substep, the way the driver used to;
//! * **kept stores** — a rank team keeps its stores from step to step:
//!   between two steps every value they hold is turned into NaN, and the
//!   run continues to the bits of one that was left alone;
//! * **aborted steps** — after a step cut short by a `CancelToken`,
//!   failed by a mid-step NaN and rolled back by the supervisor, or
//!   failed by a rank that starved mid-substep while its worker went on
//!   using its store, the run continues bit for bit like an instance that
//!   never saw any of it.

use comm::{CornerPolicy, HaloUpdater};
use dataflow::exec::{DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use dataflow::{Array3, DataId, Sdfg};
use fv3::dyn_core::{extract_state, load_state, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use fv3core::{Checkpoint, CompiledSubstep, DistributedDycore, DriverConfig, RankSchedule};
use machine::cancel::CancelToken;
use machine::{Pool, RunContext};
use resilience::{FaultPlan, Supervisor, SupervisorPolicy};

const SCHEDULES: [RankSchedule; 2] = [RankSchedule::Sequential, RankSchedule::Parallel];
const SIZES: [(usize, usize); 3] = [(8, 3), (12, 4), (24, 8)];

fn config(n: usize, nk: usize, n_split: u32, k_split: u32) -> DriverConfig {
    DriverConfig::six_rank(
        n,
        nk,
        DycoreConfig {
            n_split,
            k_split,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    )
}

fn dycore(cfg: DriverConfig, schedule: RankSchedule, tuned: bool) -> DistributedDycore {
    let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(tuned);
    d
}

/// Attach `d` to a run that has only a fault plan.
fn arm(d: &mut DistributedDycore, plan: &str) {
    d.set_run(RunContext {
        faults: FaultPlan::parse(plan).unwrap().arm(),
        ..RunContext::default()
    });
}

fn assert_states_bit_identical(a: &[DycoreState], b: &[DycoreState], what: &str) {
    for (r, (sa, sb)) in a.iter().zip(b).enumerate() {
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

/// One rank-substep: load, run the substep graph, as the driver does.
fn run_rank(
    g: &Sdfg,
    prog: &DycoreProgram,
    store: &mut DataStore,
    state: &DycoreState,
    grid: &Grid,
) {
    load_state(store, &prog.ids, state, grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    Executor::serial().run(g, store, &prog.params, &mut hooks);
}

/// Bit pattern no computation produces: marks cells a run left alone.
const UNTOUCHED: u64 = 0x7ff8_dead_beef_0001;

#[test]
fn poisoned_store_reruns_to_the_bits_of_a_fresh_one() {
    for (n, nk) in SIZES {
        // Realistic inputs with exchanged halos: rank states one step in.
        let mut d = dycore(config(n, nk, 1, 1), RankSchedule::Sequential, false);
        d.step();
        // The measured veto makes a tuned build slow in the dev profile;
        // the two smaller sizes exercise the same transforms.
        for tuned in [false, true].into_iter().filter(|t| !t || n < 24) {
            let sub = CompiledSubstep::build_with_tune(&d.config, None, tuned);
            let what = format!("c{n}L{nk} tuned={tuned}");
            let (g, prog) = (sub.graph(), sub.program());
            let scratch: Vec<DataId> = (0..g.containers.len())
                .map(DataId)
                // Constants are the grid's arrays on loan, not the store's.
                .filter(|c| !prog.ids.loaded().contains(c) && !g.containers[c.0].constant)
                .collect();
            let (state, grid) = (&d.states[1], &d.grids[1]);

            let mut fresh = DataStore::for_sdfg(g);
            run_rank(g, prog, &mut fresh, state, grid);
            let mut out = state.clone();
            extract_state(&fresh, &prog.ids, &mut out);
            assert!(!out.has_nonfinite(), "{what}: NaN would hide the poison");

            let mut probe = DataStore::for_sdfg(g);
            for c in &scratch {
                probe.get_mut(*c).raw_mut().fill(f64::from_bits(UNTOUCHED));
            }
            run_rank(g, prog, &mut probe, state, grid);

            let mut used = DataStore::for_sdfg(g);
            let mut poisoned = 0usize;
            for c in scratch.iter().filter(|c| !sub.clear_list().contains(c)) {
                for (v, p) in used
                    .get_mut(*c)
                    .raw_mut()
                    .iter_mut()
                    .zip(probe.get(*c).raw())
                {
                    if p.to_bits() != UNTOUCHED {
                        *v = f64::NAN;
                        poisoned += 1;
                    }
                }
            }
            assert!(
                poisoned > 10 * n * n * nk,
                "{what}: only {poisoned} cells written"
            );
            // Another rank's inputs last time round, as in the driver.
            run_rank(g, prog, &mut used, state, grid);

            for c in (0..fresh.len()).map(DataId) {
                let name = &g.containers[c.0].name;
                for (i, (x, y)) in fresh.get(c).raw().iter().zip(used.get(c).raw()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what}: container {name} element {i}: fresh {x}, reused {y}"
                    );
                }
            }
        }
    }
}

/// The driver as it was before stores were reused, from public parts: the
/// central exchange, then a fresh zeroed store for every rank.
fn fresh_store_substep(
    states: &mut [DycoreState],
    grids: &[Grid],
    updater: &HaloUpdater,
    sub: &CompiledSubstep,
) {
    let field = |states: &[DycoreState], name: &str| -> Vec<Array3> {
        states
            .iter()
            .map(|s| {
                s.fields()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("prognostic")
                    .1
                    .clone()
            })
            .collect()
    };
    let (mut us, mut vs) = (field(states, "u"), field(states, "v"));
    updater.exchange_vector(&mut us, &mut vs);
    for (s, (u, v)) in states.iter_mut().zip(us.into_iter().zip(vs)) {
        (s.u, s.v) = (u, v);
    }
    for name in ["w", "delp", "pt", "q"] {
        let mut arrays = field(states, name);
        updater.exchange_scalar(&mut arrays);
        for (s, a) in states.iter_mut().zip(arrays) {
            *s.field_mut(name) = a;
        }
    }
    for (state, grid) in states.iter_mut().zip(grids) {
        let mut store = DataStore::for_sdfg(sub.graph());
        run_rank(sub.graph(), sub.program(), &mut store, state, grid);
        extract_state(&store, &sub.program().ids, state);
    }
}

#[test]
fn multi_substep_steps_match_a_fresh_store_per_rank_substep() {
    let (n_split, k_split, steps) = (2, 2, 2);
    for (n, nk) in SIZES {
        let cfg = config(n, nk, n_split, k_split);
        let reference = {
            let d = dycore(cfg, RankSchedule::Sequential, false);
            let updater = HaloUpdater::new(d.partition.clone(), HALO, CornerPolicy::Fold);
            let sub = CompiledSubstep::build_with_tune(&cfg, None, false);
            let mut states = d.states.clone();
            for _ in 0..steps * n_split * k_split {
                fresh_store_substep(&mut states, &d.grids, &updater, &sub);
            }
            states
        };
        for schedule in SCHEDULES {
            for tuned in [false, true].into_iter().filter(|t| !t || n == 8) {
                let mut d = dycore(cfg, schedule, tuned);
                for _ in 0..steps {
                    d.step();
                }
                let what = format!("c{n}L{nk} {schedule:?} tuned={tuned}");
                assert_states_bit_identical(&d.states, &reference, &what);
            }
        }
    }
}

#[test]
fn a_step_after_a_cancelled_one_matches_an_instance_that_never_stopped() {
    for schedule in SCHEDULES {
        let cfg = config(8, 3, 2, 2);
        let mut d = dycore(cfg, schedule, false);
        let token = CancelToken::new();
        d.set_run(RunContext {
            cancel: token.clone(),
            ..RunContext::default()
        });
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let canceller = std::thread::spawn(move || {
            gone.recv().expect("main thread is stepping");
            token.cancel();
        });
        // Wherever the cancel lands — between two substeps or between two
        // steps — the step it stops is thrown away with its stores.
        go.send(()).expect("canceller is waiting");
        let mut last_good = Checkpoint::capture(&d);
        while !d.step_interrupted() {
            last_good = Checkpoint::capture(&d);
            d.step();
        }
        canceller.join().expect("canceller exits");

        d.restore(&last_good);
        d.set_run(RunContext::default());
        d.step();
        assert!(!d.step_interrupted());

        let mut never_stopped = dycore(cfg, schedule, false);
        while never_stopped.step_index() < d.step_index() {
            never_stopped.step();
        }
        assert_states_bit_identical(&d.states, &never_stopped.states, &format!("{schedule:?}"));
    }
}

#[test]
fn a_rolled_back_step_leaves_nothing_in_the_next_one() {
    for schedule in SCHEDULES {
        let cfg = config(8, 3, 2, 2);
        // NaN lands in `pt` at the second substep of the second step, so
        // the failed step has run ranks on a store full of NaN-derived
        // scratch before the supervisor rolls it back.
        let faulted = {
            let mut d = dycore(cfg, schedule, false);
            arm(&mut d, "seed=3;nan@step=1,module=k0.s1,field=pt");
            let mut sup = Supervisor::new(SupervisorPolicy::default());
            let report = sup.run(&mut d, 3).expect("the blowup is recovered");
            assert_eq!((report.retries, d.step_index()), (1, 3));
            d
        };
            let mut clean = dycore(cfg, schedule, false);
        for _ in 0..3 {
            clean.step();
        }
        assert_states_bit_identical(&faulted.states, &clean.states, &format!("{schedule:?}"));
    }
}

/// A parallel instance whose rank team has `workers` members.
fn team_dycore(cfg: DriverConfig, workers: usize) -> DistributedDycore {
    let mut d = dycore(cfg, RankSchedule::Parallel, false);
    d.set_pool(Some(Pool::new(workers)));
    d
}

#[test]
fn kept_stores_full_of_nan_step_to_the_same_bits() {
    for ((n, nk), workers) in SIZES.into_iter().zip([1, 2, 3]) {
        let cfg = config(n, nk, 2, 1);
        let mut left_alone = team_dycore(cfg, workers);
        let mut poisoned = team_dycore(cfg, workers);
        for step in 0..3 {
            left_alone.step();
            poisoned.step();
            // Every value the team's stores hold: all of it was written
            // by the steps so far (a fresh store is all zero bits), and
            // the next step must overwrite it before reading it.
            let mut cells = 0usize;
            // Except the constants: those are the grid's arrays on loan.
            let owned: Vec<DataId> = (0..poisoned.program_graph().containers.len())
                .filter(|c| !poisoned.program_graph().containers[*c].constant)
                .map(DataId)
                .collect();
            for store in poisoned.scratch_stores_mut() {
                for &c in &owned {
                    for v in store.get_mut(c).raw_mut() {
                        if v.to_bits() != 0 {
                            *v = f64::NAN;
                            cells += 1;
                        }
                    }
                }
            }
            assert!(
                cells > workers * 10 * n * n * nk,
                "c{n}L{nk} step {step}: only {cells} cells poisoned"
            );
            assert_eq!(poisoned.live_scratch_stores(), workers);
        }
        assert!(!left_alone.any_nonfinite());
        let what = format!("c{n}L{nk} team of {workers}");
        assert_states_bit_identical(&poisoned.states, &left_alone.states, &what);
        assert_eq!(poisoned.scratch_stores_built(), workers as u64, "{what}");
    }
}

#[test]
fn a_rank_starved_mid_substep_fails_alone_and_leaves_nothing_behind() {
    // The starved rank's receive times out before its state is lent, and
    // the worker runs its other ranks on the same store afterwards.
    let cfg = config(24, 2, 2, 1);
    let clean = {
            let mut d = dycore(cfg, RankSchedule::Sequential, false);
        for _ in 0..2 {
            d.step();
        }
        d
    };
    let teams = [1, 2, 3, 6].map(|w| (RankSchedule::Parallel, w));
    for (schedule, workers) in [(RankSchedule::Sequential, 1)].into_iter().chain(teams) {
        let mut d = match schedule {
            RankSchedule::Sequential => dycore(cfg, schedule, false),
            RankSchedule::Parallel => team_dycore(cfg, workers),
        };
        arm(&mut d, "seed=11;drop");
        d.set_halo_recv_timeout(std::time::Duration::from_millis(250));
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let report = sup.run(&mut d, 2).expect("the lost message is recovered");
        let what = format!("{schedule:?} team of {workers}");
        assert_eq!((report.retries, d.step_index()), (1, 2), "{what}");
        // Whatever the team, only the starved rank never wrote its state
        // back: the rollback rewrites the other five.
        assert_eq!(report.ranks_restored, 5, "{what}");
        // The failed step took its stores with it: a team of threads
        // builds its own again (the cache went too); a team of one builds
        // one per step attempt anyway.
        let built = match schedule {
            RankSchedule::Sequential => 3,
            RankSchedule::Parallel => 2 * workers as u64,
        };
        assert_eq!(d.scratch_stores_built(), built, "{what}");
        assert_states_bit_identical(&d.states, &clean.states, &what);
    }
}
