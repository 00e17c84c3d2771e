//! Deterministic counters of the step path's scratch stores (the style of
//! `fv3/tests/tile_program.rs`: counts, not clocks). A driver that falls
//! back to a store per rank-substep, or a dycore graph whose stores need
//! re-zeroing between runs, fails a count here, not a timing somewhere
//! else.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{CompiledSubstep, DistributedDycore, DriverConfig, RankSchedule};

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

#[test]
fn a_step_builds_one_store_or_one_per_rank_whatever_its_substeps() {
    // Unfaulted steps must not consume a sibling test's armed fault.
    let _quiet = machine::faults::arm(0, Vec::new());
    for (n_split, k_split) in [(1, 1), (3, 1), (2, 2)] {
        for (schedule, per_step) in [(RankSchedule::Sequential, 1), (RankSchedule::Parallel, 6)] {
            let cfg = config(8, 3, n_split, k_split, None);
            let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
            d.set_rank_schedule(schedule);
            d.set_tuned(false);
            assert_eq!(d.scratch_stores_built(), 0);
            for step in 1..=3 {
                d.step();
                assert_eq!(
                    d.scratch_stores_built(),
                    step * per_step,
                    "{schedule:?} n_split={n_split} k_split={k_split} step {step}"
                );
            }
        }
    }
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
