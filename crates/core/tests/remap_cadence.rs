//! The vertical remap runs at FV3's cadence: once per `k_split` round,
//! after the round's last acoustic substep, on every rank and under
//! every rank team — as often per step as `fv3::dyn_core`'s whole
//! program runs its remap callback.

use comm::CubeGeometry;
use dataflow::exec::{DataStore, Executor};
use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::{build_dycore_program, load_state, DycoreConfig};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::{Pool, RunContext};

const SPLITS: [(u32, u32); 4] = [(1, 1), (2, 1), (3, 1), (2, 2)];
const STEPS: u64 = 2;

fn dycore(n_split: u32, k_split: u32) -> DycoreConfig {
    DycoreConfig {
        n_split,
        k_split,
        dt: 4.0,
        dddmp: 0.02,
        nord4_damp: None,
    }
}

/// Remap callbacks one run of the whole single-tile program makes.
fn whole_program_remaps(config: DycoreConfig) -> u64 {
    let (n, nk) = (8, 3);
    let prog = build_dycore_program(n, nk, config);
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let grid = Grid::compute(&CubeGeometry::new(n).faces[1], n, 0, 0, n, HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &prog.ids };
    Executor::serial()
        .run(&g, &mut store, &prog.params, &mut hooks)
        .callbacks
}

#[test]
fn every_rank_remaps_once_per_k_split_round() {
    for (n_split, k_split) in SPLITS {
        let config = dycore(n_split, k_split);
        let per_step = whole_program_remaps(config);
        assert_eq!(
            per_step, k_split as u64,
            "dyn_core n_split={n_split} k_split={k_split}"
        );
        for (schedule, workers) in [(RankSchedule::Sequential, 1), (RankSchedule::Parallel, 3)] {
            let what = format!("n_split={n_split} k_split={k_split} {schedule:?}");
            let mut d = DistributedDycore::new(
                DriverConfig::six_rank(8, 3, config),
                &ExpansionAttrs::tuned(),
            );
            d.set_rank_schedule(schedule);
            d.set_pool(Some(Pool::new(workers)));
            let tracer = obs::Tracer::new();
            d.set_run(RunContext {
                tracer: Some(tracer.clone()),
                ..RunContext::default()
            });
            for _ in 0..STEPS {
                d.step();
            }
            let ranks = d.partition.ranks();
            let events = tracer.finished();
            for r in 0..ranks {
                let rank = format!("rank{r}");
                // The remap spans that lie inside one of this rank's spans.
                let remaps = events
                    .iter()
                    .filter(|e| e.cat == "remap")
                    .filter(|e| {
                        events.iter().any(|s| {
                            s.cat == "rank"
                                && s.name == rank
                                && s.tid == e.tid
                                && s.ts_us <= e.ts_us
                                && e.ts_us + e.dur_us <= s.ts_us + s.dur_us
                        })
                    })
                    .count() as u64;
                assert_eq!(remaps, STEPS * per_step, "{what}: rank {r}");
            }
            let total = events.iter().filter(|e| e.cat == "remap").count() as u64;
            assert_eq!(total, STEPS * per_step * ranks as u64, "{what}");
            assert!(!d.states.iter().any(|s| s.has_nonfinite()), "{what}");
        }
    }
}
