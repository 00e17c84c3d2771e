//! A count, not a clock: a cold instance lowers its substep program once.
//! Every `Sdfg::new` / `clone` draws the next value of one process-wide
//! uid counter, so the difference between two probe graphs' uids is the
//! number of graphs minted in between — and a lowering mints its own
//! (the substep program, then the clone `lower_substep` expands). This
//! binary holds exactly one `#[test]` so that nothing else draws from
//! the counter.

use dataflow::graph::{ExpansionAttrs, Sdfg};
use fv3::dyn_core::DycoreConfig;
use fv3core::{CompiledSubstep, DistributedDycore, DriverConfig};
use machine::RunConfig;
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
    DistributedDycore::new_with_grids(cfg, &ExpansionAttrs::tuned(), None, &RunConfig::default())
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
    let one_lowering =
        minted(|| bundle = Some(CompiledSubstep::build_with_tune(&cfg, None, false)));
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
    let mut shared = instance(cfg);
    shared.set_shared_substep(Arc::new(bundle.unwrap()));
    assert_eq!(
        minted(|| shared.step()),
        0,
        "an installed bundle is adopted"
    );
    assert_eq!(minted(|| shared.step()), 0);
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

    // Only inspection lowers on the instance, on demand, once.
    let inspect = || assert!(!shared.program_graph().states.is_empty());
    assert_eq!(minted(inspect), one_lowering);
    assert_eq!(minted(inspect), 0);
}
