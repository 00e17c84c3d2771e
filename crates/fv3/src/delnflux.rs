//! `delnflux` — del-n (hyper-)diffusion fluxes, FV3's scale-selective
//! damping operator (used by the D-grid solver for divergence and
//! vorticity damping; the `nord` configuration knob selects ∇² or ∇⁴).
//!
//! The ∇⁴ form iterates the Laplacian: `d2 = ∇²q`, then fluxes of `d2`
//! are *subtracted* (sign flip relative to ∇²) so the damping is
//! scale-selective — grid-scale noise is removed fastest while large
//! scales are nearly untouched. Structurally this is a chain of wide
//! stencils with intermediate temporaries, which makes it prime fusion
//! and transfer-tuning material.

use dataflow::expr::NumLike;
use dataflow::kernel::{AxisInterval, KOrder};
use dataflow::{Array3, Expr};
use stencil::{StencilBuilder, StencilDef};
use std::sync::Arc;

/// Damping order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nord {
    /// Second-order (∇²) damping.
    Del2,
    /// Fourth-order (∇⁴) damping.
    Del4,
}

/// Five-point Laplacian with metric weights folded into the coefficient.
fn laplacian<T: NumLike>(qm_i: T, qp_i: T, qm_j: T, qp_j: T, q0: T) -> T {
    qm_i + qp_i + qm_j + qp_j - T::from(4.0) * q0
}

/// Build the delnflux stencil: in/out `q`, input `rarea`; param `damp`.
///
/// `Del2`:  `q += damp * ∇²q`
/// `Del4`:  `d2 = ∇²q ; q -= damp * ∇²d2` (note the sign flip).
pub fn delnflux_stencil(nord: Nord) -> Arc<StencilDef> {
    let name = match nord {
        Nord::Del2 => "delnflux_del2",
        Nord::Del4 => "delnflux_del4",
    };
    Arc::new(
        StencilBuilder::new(name, |b| {
            let q = b.inout("q");
            let damp = b.param("damp");
            let qnew = b.temp("qnew");
            match nord {
                Nord::Del2 => {
                    b.computation(KOrder::Parallel, AxisInterval::FULL, |s| {
                        s.assign(
                            &qnew,
                            q.c() + damp.ex()
                                * laplacian::<Expr>(
                                    q.at(-1, 0, 0),
                                    q.at(1, 0, 0),
                                    q.at(0, -1, 0),
                                    q.at(0, 1, 0),
                                    q.c(),
                                ),
                        );
                        s.assign(&q, qnew.c());
                    });
                }
                Nord::Del4 => {
                    let d2 = b.temp("d2");
                    b.computation(KOrder::Parallel, AxisInterval::FULL, |s| {
                        s.assign(
                            &d2,
                            laplacian::<Expr>(
                                q.at(-1, 0, 0),
                                q.at(1, 0, 0),
                                q.at(0, -1, 0),
                                q.at(0, 1, 0),
                                q.c(),
                            ),
                        );
                        s.assign(
                            &qnew,
                            q.c() - damp.ex()
                                * laplacian::<Expr>(
                                    d2.at(-1, 0, 0),
                                    d2.at(1, 0, 0),
                                    d2.at(0, -1, 0),
                                    d2.at(0, 1, 0),
                                    d2.c(),
                                ),
                        );
                        s.assign(&q, qnew.c());
                    });
                }
            }
        })
        .expect("delnflux is valid"),
    )
}

/// FORTRAN-style baseline with identical arithmetic.
pub fn baseline_delnflux(nord: Nord, q: &mut Array3, damp: f64) {
    let [ni, nj, nk] = q.layout().domain;
    let (ni, nj, nk) = (ni as i64, nj as i64, nk as i64);
    let w = (ni.max(nj) + 8) as usize;
    let at = |i: i64, j: i64| ((j + 4) * w as i64 + i + 4) as usize;
    for k in 0..nk {
        match nord {
            Nord::Del2 => {
                let mut qnew = vec![0.0f64; w * w];
                for j in 0..nj {
                    for i in 0..ni {
                        qnew[at(i, j)] = q.get(i, j, k)
                            + damp
                                * laplacian::<f64>(
                                    q.get(i - 1, j, k),
                                    q.get(i + 1, j, k),
                                    q.get(i, j - 1, k),
                                    q.get(i, j + 1, k),
                                    q.get(i, j, k),
                                );
                    }
                }
                for j in 0..nj {
                    for i in 0..ni {
                        q.set(i, j, k, qnew[at(i, j)]);
                    }
                }
            }
            Nord::Del4 => {
                let mut d2 = vec![0.0f64; w * w];
                // d2 is needed one cell beyond the domain (the extent
                // analysis computes exactly this in the DSL path).
                for j in -1..nj + 1 {
                    for i in -1..ni + 1 {
                        d2[at(i, j)] = laplacian::<f64>(
                            q.get(i - 1, j, k),
                            q.get(i + 1, j, k),
                            q.get(i, j - 1, k),
                            q.get(i, j + 1, k),
                            q.get(i, j, k),
                        );
                    }
                }
                let mut qnew = vec![0.0f64; w * w];
                for j in 0..nj {
                    for i in 0..ni {
                        qnew[at(i, j)] = q.get(i, j, k)
                            - damp
                                * laplacian::<f64>(
                                    d2[at(i - 1, j)],
                                    d2[at(i + 1, j)],
                                    d2[at(i, j - 1)],
                                    d2[at(i, j + 1)],
                                    d2[at(i, j)],
                                );
                    }
                }
                for j in 0..nj {
                    for i in 0..ni {
                        q.set(i, j, k, qnew[at(i, j)]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::kernel::Domain;
    use dataflow::Layout;
    use rand::{Rng, SeedableRng};
    use stencil::debug::run_stencil;

    fn layout(n: usize, nk: usize) -> Layout {
        Layout::fv3_default([n, n, nk], [4, 4, 0])
    }

    fn rand_field(n: usize, nk: usize, seed: u64) -> Array3 {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut a = Array3::zeros(layout(n, nk));
        for k in 0..nk as i64 {
            for j in -4..n as i64 + 4 {
                for i in -4..n as i64 + 4 {
                    a.set(i, j, k, rng.gen_range(-1.0..1.0));
                }
            }
        }
        a
    }

    #[test]
    fn dsl_matches_baseline_for_both_orders() {
        for (nord, tol) in [(Nord::Del2, 1e-13), (Nord::Del4, 1e-12)] {
            let (n, nk) = (10, 2);
            let q0 = rand_field(n, nk, 3);
            let mut qb = q0.clone();
            baseline_delnflux(nord, &mut qb, 0.05);

            let def = delnflux_stencil(nord);
            let mut qd = q0.clone();
            run_stencil(
                &def,
                &mut [("q", &mut qd)],
                &[("damp", 0.05)],
                Domain::from_shape([n, n, nk]),
            )
            .unwrap();
            // Compare the domain interior only: the baseline leaves the
            // halo untouched while the DSL's extent-extended temporaries
            // do not write q outside the domain either.
            let mut m = 0.0f64;
            for k in 0..nk as i64 {
                for j in 0..n as i64 {
                    for i in 0..n as i64 {
                        m = m.max((qb.get(i, j, k) - qd.get(i, j, k)).abs());
                    }
                }
            }
            assert!(m < tol, "{nord:?}: {m}");
        }
    }

    #[test]
    fn del4_is_scale_selective() {
        // A grid-scale checkerboard must be damped far more strongly
        // than a long wave of the same amplitude.
        let n = 16;
        let damp = 0.005;
        let measure = |mk: &dyn Fn(i64, i64) -> f64, nord: Nord| -> f64 {
            let mut q = Array3::zeros(layout(n, 1));
            for j in -4..n as i64 + 4 {
                for i in -4..n as i64 + 4 {
                    q.set(i, j, 0, mk(i, j));
                }
            }
            let before: f64 = (4..12)
                .flat_map(|j| (4..12).map(move |i| (i, j)))
                .map(|(i, j)| q.get(i, j, 0).abs())
                .sum();
            baseline_delnflux(nord, &mut q, damp);
            let after: f64 = (4..12)
                .flat_map(|j| (4..12).map(move |i| (i, j)))
                .map(|(i, j)| q.get(i, j, 0).abs())
                .sum();
            after / before
        };
        let checker = |i: i64, j: i64| if (i + j).rem_euclid(2) == 0 { 1.0 } else { -1.0 };
        let long_wave =
            |i: i64, _j: i64| (i as f64 * std::f64::consts::PI / n as f64).sin();
        let damp_checker = measure(&checker, Nord::Del4);
        let damp_wave = measure(&long_wave, Nord::Del4);
        assert!(
            damp_checker < 0.8,
            "checkerboard strongly damped: {damp_checker}"
        );
        assert!(damp_wave > 0.98, "long wave nearly untouched: {damp_wave}");
    }

    #[test]
    fn del2_conserves_interior_sum_on_uniform_weights() {
        // The Laplacian telescopes: on a domain with untouched halo, the
        // interior-sum change equals the boundary flux, so a compactly
        // supported bump (zero near the boundary) conserves exactly.
        let n = 12;
        let mut q = Array3::zeros(layout(n, 1));
        q.set(6, 6, 0, 1.0);
        q.set(6, 5, 0, 0.5);
        let before = q.domain_sum();
        baseline_delnflux(Nord::Del2, &mut q, 0.1);
        let after = q.domain_sum();
        assert!((before - after).abs() < 1e-12, "{before} vs {after}");
    }

    #[test]
    fn zero_damp_is_identity() {
        let q0 = rand_field(8, 2, 9);
        for nord in [Nord::Del2, Nord::Del4] {
            let mut q = q0.clone();
            baseline_delnflux(nord, &mut q, 0.0);
            assert_eq!(q.max_abs_diff(&q0), 0.0, "{nord:?}");
        }
    }
}
