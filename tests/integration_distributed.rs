//! Integration: the distributed (multi-rank) dycore over the cubed
//! sphere — conservation, stability, and halo consistency at 6 and 24
//! ranks.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::driver::{DistributedDycore, DriverConfig};

fn config(tile_n: usize, rt: usize, nk: usize) -> DriverConfig {
    DriverConfig {
        tile_n,
        rt,
        nk,
        dycore: DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 3.0,
            dddmp: 0.03,
            nord4_damp: None,
        },
    }
}

#[test]
fn six_rank_global_simulation_conserves_and_stays_finite() {
    let mut d = DistributedDycore::new(config(12, 1, 5), &ExpansionAttrs::tuned());
    let mass0 = d.global_air_mass();
    let tracer0 = d.global_tracer_mass();
    for _ in 0..4 {
        d.step();
        assert!(!d.any_nonfinite());
    }
    assert!((d.global_air_mass() / mass0 - 1.0).abs() < 1e-3);
    assert!((d.global_tracer_mass() / tracer0 - 1.0).abs() < 1e-3);
}

#[test]
fn twenty_four_rank_decomposition_matches_rank_structure() {
    let d = DistributedDycore::new(config(8, 2, 3), &ExpansionAttrs::tuned());
    assert_eq!(d.partition.ranks(), 24);
    // Every rank holds an edge at rt = 2 (2x2 per tile).
    assert_eq!(d.partition.edge_rank_fraction(), 1.0);
}

#[test]
fn two_fresh_instances_step_bit_identically() {
    let mut a = DistributedDycore::new(config(8, 1, 4), &ExpansionAttrs::tuned());
    let mut b = DistributedDycore::new(config(8, 1, 4), &ExpansionAttrs::tuned());
    a.step();
    b.step();
    for r in 0..6 {
        assert_eq!(a.states[r].max_abs_diff(&b.states[r]), 0.0, "deterministic");
    }
}

#[test]
fn halo_widths_fit_smallest_supported_subdomain() {
    // HALO-wide exchange must be constructible down to sub_n = HALO.
    let d = DistributedDycore::new(config(8, 2, 2), &ExpansionAttrs::tuned());
    assert_eq!(d.partition.sub_n, 4);
    assert_eq!(fv3::state::HALO, 4);
}
