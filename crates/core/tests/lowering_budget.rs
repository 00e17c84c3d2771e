//! A count, not a clock: a cold instance lowers its substep program once,
//! whether it is inspected first or stepped first, an instance adopts an
//! installed bundle whatever its rank-team width, and a width change
//! keeps the bundle.
//! Every `Sdfg::new` / `clone` draws the next value of one process-wide
//! uid counter, so the difference between two probe graphs' uids is the
//! number of graphs minted in between — and a lowering mints its own
//! (the substep program, then the clone `lower_substep` expands). This
//! binary holds exactly one `#[test]` so that nothing else draws from
//! the counter.

use dataflow::graph::Sdfg;
use fv3::dyn_core::DycoreConfig;
use fv3core::{CompiledSubstep, DistributedDycore, DriverConfig, RankSchedule};
use machine::{Pool, RunConfig};
use std::sync::Arc;

fn probe() -> u64 {
    Sdfg::new("probe").uid()
}

/// Graphs minted by `f`, not counting the closing probe.
fn minted(f: impl FnOnce()) -> u64 {
    let before = probe();
    f();
    probe() - before - 1
}

fn instance(cfg: DriverConfig) -> DistributedDycore {
    // Untuned, sequential, no pool: the defaults, not the environment.
    DistributedDycore::from_config(cfg, &RunConfig::default())
}

#[test]
fn construction_and_first_step_lower_the_substep_once() {
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
    let mut bundle = None;
    let one_lowering = minted(|| bundle = Some(CompiledSubstep::build_with_tune(&cfg, false)));
    assert!(one_lowering >= 2, "a lowering mints {one_lowering} graphs");

    // On its own, a cold instance's first step builds its bundle: one
    // lowering, and construction adds none.
    let mut d = None;
    assert_eq!(
        minted(|| d = Some(instance(cfg))),
        0,
        "construction lowers nothing"
    );
    let mut d = d.unwrap();
    assert_eq!(
        minted(|| d.step()),
        one_lowering,
        "the first step lowers once"
    );
    assert_eq!(minted(|| d.step()), 0, "a warm step lowers nothing");

    // With a bundle installed (the serving engine's cold path), the
    // instance never lowers its own graph.
    let bundle = Arc::new(bundle.unwrap());
    let mut shared = instance(cfg);
    shared.set_shared_substep(Arc::clone(&bundle));
    assert_eq!(
        minted(|| shared.step()),
        0,
        "an installed bundle is adopted"
    );
    assert_eq!(minted(|| shared.step()), 0);

    // A bundle is matched by its configuration only: an instance whose
    // rank-team width differs from the bundle builder's adopts it too.
    let mut wide = instance(cfg);
    wide.set_pool(Some(Pool::new(2)));
    wide.set_shared_substep(Arc::clone(&bundle));
    assert_eq!(
        minted(|| wide.step()),
        0,
        "a bundle is adopted whatever the instance's pool"
    );
    assert_eq!(shared.states.len(), d.states.len());
    for (a, b) in shared.states.iter().zip(&d.states) {
        for ((name, x), (_, y)) in a.fields().into_iter().zip(b.fields()) {
            let bits =
                |a: &dataflow::Array3| a.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(x) == bits(y),
                "{name} differs under the adopted bundle"
            );
        }
    }

    // Inspecting a stepped instance reads the graph its untuned bundle
    // runs: no lowering.
    let inspect = || assert!(!shared.program_graph().states.is_empty());
    assert_eq!(minted(inspect), 0);
    assert!(std::ptr::eq(shared.program_graph(), bundle.graph()));

    // Inspected before its first step, an instance lowers once, and the
    // step adopts that lowering.
    let mut inspected = instance(cfg);
    assert_eq!(
        minted(|| {
            assert!(!inspected.program_graph().states.is_empty());
            inspected.step();
        }),
        one_lowering,
        "program_graph() then the first step lower once"
    );
    assert_eq!(
        minted(|| assert!(!inspected.program_graph().states.is_empty())),
        0
    );
    assert_eq!(minted(|| inspected.step()), 0);
    for (a, b) in inspected.states.iter().zip(&d.states) {
        for ((name, x), (_, y)) in a.fields().into_iter().zip(b.fields()) {
            assert!(x.raw() == y.raw(), "{name} differs after inspection");
        }
    }

    // A width change keeps the bundle: a stepped instance taken from width
    // 1 to 2 and 3 and back lowers nothing and compiles nothing again.
    let (_, misses) = d.exec_cache_counters();
    let (par, seq) = (RankSchedule::Parallel, RankSchedule::Sequential);
    for (workers, schedule) in [(2, par), (3, par), (3, seq)] {
        d.set_pool(Some(Pool::new(workers)));
        d.set_rank_schedule(schedule);
        assert_eq!(minted(|| d.step()), 0, "{schedule:?}/{workers} lowers nothing");
    }
    assert_eq!(d.exec_cache_counters().1, misses, "a width change compiles nothing");
}
