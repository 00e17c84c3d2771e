//! Finite-volume transport (`fv_tp_2d`) — "a subroutine to compute fluxes
//! for horizontal finite volume transport [...] reused across several
//! components of the model" (Section VIII-C).
//!
//! The Lin–Rood scheme: an inner (advective) half-update transverse to
//! each sweep removes the splitting error, then PPM provides the
//! interface values, which multiply the mass fluxes. The module exposes
//! one stencil definition plus the FORTRAN-style baseline. In FORTRAN
//! this module is "designed to be two-dimensional [...] vertical
//! K-blocking is employed", the exact cache-friendly schedule our CPU
//! machine model prices.

use crate::ppm::{edge_value, ppm_flux};
use dataflow::expr::NumLike;
use dataflow::kernel::{AxisInterval, Domain, KOrder};
use dataflow::{Array3, Expr};
use stencil::{StencilBuilder, StencilDef};
use std::sync::Arc;

/// Inner advective half-update transverse to a sweep: first-order upwind
/// with the cell-centred Courant number `cc`.
/// `q_t = q - 0.5 cc (q - q_upwind)`.
fn inner_update<T: NumLike>(q0: T, qm: T, qp: T, cc: T) -> T {
    q0.clone()
        - T::from(0.5)
            * cc.clone()
            * T::select_pos(cc, q0.clone() - qm, qp - q0)
}

/// Build the `fv_tp_2d` stencil.
///
/// Inputs: `q` (transported scalar), `crx`/`cry` (interface Courant
/// numbers), `xfx`/`yfx` (interface mass fluxes). Outputs: `fx`, `fy`
/// (mass-weighted scalar fluxes at interfaces). The caller must run on a
/// domain grown by +1 in both horizontal axes so the high-side
/// interfaces exist.
pub fn fv_tp_2d_stencil() -> Arc<StencilDef> {
    Arc::new(
        StencilBuilder::new("fv_tp_2d", |b| {
            let q = b.input("q");
            let crx = b.input("crx");
            let cry = b.input("cry");
            let xfx = b.input("xfx");
            let yfx = b.input("yfx");
            let fx = b.output("fx");
            let fy = b.output("fy");
            // Transverse-updated scalars.
            let qy = b.temp("qy"); // y-updated, used by the x sweep
            let qx = b.temp("qx");
            // PPM coefficients for each sweep.
            let alx = b.temp("al_x");
            let blx = b.temp("bl_x");
            let brx = b.temp("br_x");
            let aly = b.temp("al_y");
            let bly = b.temp("bl_y");
            let bry = b.temp("br_y");

            b.computation(KOrder::Parallel, AxisInterval::FULL, |s| {
                // Inner updates (transverse Courant at cell centre).
                let cyc = Expr::c(0.5) * (cry.c() + cry.at(0, 1, 0));
                s.assign(
                    &qy,
                    inner_update::<Expr>(q.c(), q.at(0, -1, 0), q.at(0, 1, 0), cyc),
                );
                let cxc = Expr::c(0.5) * (crx.c() + crx.at(1, 0, 0));
                s.assign(
                    &qx,
                    inner_update::<Expr>(q.c(), q.at(-1, 0, 0), q.at(1, 0, 0), cxc),
                );

                // X sweep over qy.
                s.assign(
                    &alx,
                    edge_value::<Expr>(qy.at(-2, 0, 0), qy.at(-1, 0, 0), qy.c(), qy.at(1, 0, 0)),
                );
                s.assign(&blx, alx.c() - qy.c());
                s.assign(&brx, alx.at(1, 0, 0) - qy.c());
                s.assign(
                    &fx,
                    ppm_flux::<Expr>(
                        qy.at(-1, 0, 0),
                        blx.at(-1, 0, 0),
                        brx.at(-1, 0, 0),
                        qy.c(),
                        blx.c(),
                        brx.c(),
                        crx.c(),
                    ) * xfx.c(),
                );

                // Y sweep over qx.
                s.assign(
                    &aly,
                    edge_value::<Expr>(qx.at(0, -2, 0), qx.at(0, -1, 0), qx.c(), qx.at(0, 1, 0)),
                );
                s.assign(&bly, aly.c() - qx.c());
                s.assign(&bry, aly.at(0, 1, 0) - qx.c());
                s.assign(
                    &fy,
                    ppm_flux::<Expr>(
                        qx.at(0, -1, 0),
                        bly.at(0, -1, 0),
                        bry.at(0, -1, 0),
                        qx.c(),
                        bly.c(),
                        bry.c(),
                        cry.c(),
                    ) * yfx.c(),
                );
            });
        })
        .expect("fv_tp_2d is valid"),
    )
}

/// Build the conservative flux-form update applying `fv_tp_2d` fluxes:
/// `delp' = delp + rarea Σ mass-flux divergence`,
/// `q' = (q delp + rarea Σ scalar-flux divergence) / delp'`.
pub fn transport_update_stencil() -> Arc<StencilDef> {
    Arc::new(
        StencilBuilder::new("transport_update", |b| {
            let q = b.inout("q");
            let delp = b.inout("delp");
            let fx = b.input("fx");
            let fy = b.input("fy");
            let xfx = b.input("xfx");
            let yfx = b.input("yfx");
            let rarea = b.input("rarea");
            let qdp = b.temp("qdp");
            let delp_new = b.temp("delp_new");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |s| {
                s.assign(
                    &qdp,
                    q.c() * delp.c()
                        + rarea.c() * (fx.c() - fx.at(1, 0, 0) + fy.c() - fy.at(0, 1, 0)),
                );
                s.assign(
                    &delp_new,
                    delp.c()
                        + rarea.c()
                            * (xfx.c() - xfx.at(1, 0, 0) + yfx.c() - yfx.at(0, 1, 0)),
                );
                s.assign(&q, qdp.c() / delp_new.c());
                s.assign(&delp, delp_new.c());
            });
        })
        .expect("transport_update is valid"),
    )
}

/// FORTRAN-style baseline for the whole transport call: identical
/// arithmetic, k-outer loops, writing `fx`/`fy` on the `n+1` interface
/// ranges.
#[allow(clippy::too_many_arguments)]
pub fn baseline_fv_tp_2d(
    q: &Array3,
    crx: &Array3,
    cry: &Array3,
    xfx: &Array3,
    yfx: &Array3,
    fx: &mut Array3,
    fy: &mut Array3,
) {
    let [ni, nj, nk] = q.layout().domain;
    let (ni, nj, nk) = (ni as i64, nj as i64, nk as i64);
    // Temporaries sized to the extended ranges the sweeps need. Indexing
    // helper: hold values for logical [-3, n+3).
    let w = (ni.max(nj) + 8) as usize;
    let at = |i: i64, j: i64| ((j + 4) * (w as i64) + (i + 4)) as usize;
    for k in 0..nk {
        let mut qy = vec![0.0f64; w * w];
        let mut qx = vec![0.0f64; w * w];
        // Inner updates on [-3, n+3) (the PPM sweeps read three cells
        // beyond the flux range; needs one more halo cell of q).
        for j in -3..nj + 3 {
            for i in -3..ni + 3 {
                let cyc = 0.5 * (cry.get(i, j, k) + cry.get(i, j + 1, k));
                qy[at(i, j)] = inner_update::<f64>(
                    q.get(i, j, k),
                    q.get(i, j - 1, k),
                    q.get(i, j + 1, k),
                    cyc,
                );
                let cxc = 0.5 * (crx.get(i, j, k) + crx.get(i + 1, j, k));
                qx[at(i, j)] = inner_update::<f64>(
                    q.get(i, j, k),
                    q.get(i - 1, j, k),
                    q.get(i + 1, j, k),
                    cxc,
                );
            }
        }
        // X sweep.
        let mut alx = vec![0.0f64; w * w];
        for j in 0..nj + 1 {
            for i in -1..ni + 2 {
                alx[at(i, j)] = edge_value::<f64>(
                    qy[at(i - 2, j)],
                    qy[at(i - 1, j)],
                    qy[at(i, j)],
                    qy[at(i + 1, j)],
                );
            }
            for i in 0..ni + 1 {
                let bl = |s: i64| alx[at(s, j)] - qy[at(s, j)];
                let br = |s: i64| alx[at(s + 1, j)] - qy[at(s, j)];
                let f = ppm_flux::<f64>(
                    qy[at(i - 1, j)],
                    bl(i - 1),
                    br(i - 1),
                    qy[at(i, j)],
                    bl(i),
                    br(i),
                    crx.get(i, j, k),
                );
                fx.set(i, j, k, f * xfx.get(i, j, k));
            }
        }
        // Y sweep.
        let mut aly = vec![0.0f64; w * w];
        for i in 0..ni + 1 {
            for j in -1..nj + 2 {
                aly[at(i, j)] = edge_value::<f64>(
                    qx[at(i, j - 2)],
                    qx[at(i, j - 1)],
                    qx[at(i, j)],
                    qx[at(i, j + 1)],
                );
            }
            for j in 0..nj + 1 {
                let bl = |s: i64| aly[at(i, s)] - qx[at(i, s)];
                let br = |s: i64| aly[at(i, s + 1)] - qx[at(i, s)];
                let f = ppm_flux::<f64>(
                    qx[at(i, j - 1)],
                    bl(j - 1),
                    br(j - 1),
                    qx[at(i, j)],
                    bl(j),
                    br(j),
                    cry.get(i, j, k),
                );
                fy.set(i, j, k, f * yfx.get(i, j, k));
            }
        }
    }
}

/// Baseline for the conservative update (matches
/// [`transport_update_stencil`]).
#[allow(clippy::too_many_arguments)]
pub fn baseline_transport_update(
    q: &mut Array3,
    delp: &mut Array3,
    fx: &Array3,
    fy: &Array3,
    xfx: &Array3,
    yfx: &Array3,
    rarea: &Array3,
) {
    let [ni, nj, nk] = q.layout().domain;
    for k in 0..nk as i64 {
        for j in 0..nj as i64 {
            for i in 0..ni as i64 {
                let qdp = q.get(i, j, k) * delp.get(i, j, k)
                    + rarea.get(i, j, k)
                        * (fx.get(i, j, k) - fx.get(i + 1, j, k) + fy.get(i, j, k)
                            - fy.get(i, j + 1, k));
                let dp = delp.get(i, j, k)
                    + rarea.get(i, j, k)
                        * (xfx.get(i, j, k) - xfx.get(i + 1, j, k) + yfx.get(i, j, k)
                            - yfx.get(i, j + 1, k));
                q.set(i, j, k, qdp / dp);
                delp.set(i, j, k, dp);
            }
        }
    }
}

/// The domain to run [`fv_tp_2d_stencil`] on: grown +1 on the high side
/// of both horizontal axes so `fx(n, j)` / `fy(i, n)` exist.
pub fn flux_domain(n: usize, nk: usize) -> Domain {
    Domain {
        start: [0, 0, 0],
        end: [n as i64 + 1, n as i64 + 1, nk as i64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::Layout;
    use rand::{Rng, SeedableRng};
    use stencil::debug::run_stencil;

    fn layout(n: usize, nk: usize) -> Layout {
        Layout::fv3_default([n, n, nk], [4, 4, 0])
    }

    fn rand_field(n: usize, nk: usize, rng: &mut impl Rng, lo: f64, hi: f64) -> Array3 {
        let l = layout(n, nk);
        let mut a = Array3::zeros(l);
        for k in 0..nk as i64 {
            for j in -4..n as i64 + 4 {
                for i in -4..n as i64 + 4 {
                    a.set(i, j, k, rng.gen_range(lo..hi));
                }
            }
        }
        a
    }

    #[test]
    fn dsl_matches_baseline() {
        let n = 8;
        let nk = 2;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let q = rand_field(n, nk, &mut rng, 1.0, 2.0);
        let crx = rand_field(n, nk, &mut rng, -0.8, 0.8);
        let cry = rand_field(n, nk, &mut rng, -0.8, 0.8);
        let xfx = rand_field(n, nk, &mut rng, 0.5, 1.5);
        let yfx = rand_field(n, nk, &mut rng, 0.5, 1.5);

        let mut fx_b = Array3::zeros(layout(n, nk));
        let mut fy_b = Array3::zeros(layout(n, nk));
        baseline_fv_tp_2d(&q, &crx, &cry, &xfx, &yfx, &mut fx_b, &mut fy_b);

        let def = fv_tp_2d_stencil();
        let (mut qd, mut crxd, mut cryd, mut xfxd, mut yfxd) =
            (q.clone(), crx.clone(), cry.clone(), xfx.clone(), yfx.clone());
        let mut fx_d = Array3::zeros(layout(n, nk));
        let mut fy_d = Array3::zeros(layout(n, nk));
        run_stencil(
            &def,
            &mut [
                ("q", &mut qd),
                ("crx", &mut crxd),
                ("cry", &mut cryd),
                ("xfx", &mut xfxd),
                ("yfx", &mut yfxd),
                ("fx", &mut fx_d),
                ("fy", &mut fy_d),
            ],
            &[],
            flux_domain(n, nk),
        )
        .unwrap();

        let mut max_diff = 0.0f64;
        for k in 0..nk as i64 {
            for j in 0..n as i64 {
                for i in 0..=n as i64 {
                    max_diff = max_diff.max((fx_b.get(i, j, k) - fx_d.get(i, j, k)).abs());
                    max_diff = max_diff.max((fy_b.get(j, i, k) - fy_d.get(j, i, k)).abs());
                }
            }
        }
        assert!(max_diff < 1e-12, "max diff {max_diff}");
    }

    #[test]
    fn update_conserves_mass_up_to_boundary_fluxes() {
        let n = 8;
        let nk = 1;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let mut q = rand_field(n, nk, &mut rng, 0.5, 1.5);
        let mut delp = rand_field(n, nk, &mut rng, 50.0, 100.0);
        let crx = rand_field(n, nk, &mut rng, -0.5, 0.5);
        let cry = rand_field(n, nk, &mut rng, -0.5, 0.5);
        let xfx = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let yfx = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let rarea = Array3::filled(layout(n, nk), 1.0);

        let mut fx = Array3::zeros(layout(n, nk));
        let mut fy = Array3::zeros(layout(n, nk));
        baseline_fv_tp_2d(&q, &crx, &cry, &xfx, &yfx, &mut fx, &mut fy);

        let before: f64 = (0..n as i64)
            .flat_map(|j| (0..n as i64).map(move |i| (i, j)))
            .map(|(i, j)| q.get(i, j, 0) * delp.get(i, j, 0))
            .sum();
        // Net boundary import of q-mass (rarea = 1, area = 1).
        let mut boundary = 0.0;
        for j in 0..n as i64 {
            boundary += fx.get(0, j, 0) - fx.get(n as i64, j, 0);
        }
        for i in 0..n as i64 {
            boundary += fy.get(i, 0, 0) - fy.get(i, n as i64, 0);
        }
        baseline_transport_update(&mut q, &mut delp, &fx, &fy, &xfx, &yfx, &rarea);
        let after: f64 = (0..n as i64)
            .flat_map(|j| (0..n as i64).map(move |i| (i, j)))
            .map(|(i, j)| q.get(i, j, 0) * delp.get(i, j, 0))
            .sum();
        assert!(
            (after - before - boundary).abs() < 1e-9,
            "mass change {} vs boundary {boundary}",
            after - before
        );
    }

    #[test]
    fn update_dsl_matches_baseline() {
        let n = 6;
        let nk = 2;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let q0 = rand_field(n, nk, &mut rng, 0.5, 1.5);
        let delp0 = rand_field(n, nk, &mut rng, 50.0, 100.0);
        let fx = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let fy = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let xfx = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let yfx = rand_field(n, nk, &mut rng, -1.0, 1.0);
        let rarea = rand_field(n, nk, &mut rng, 0.9, 1.1);

        let mut qb = q0.clone();
        let mut delpb = delp0.clone();
        baseline_transport_update(&mut qb, &mut delpb, &fx, &fy, &xfx, &yfx, &rarea);

        let def = transport_update_stencil();
        let mut qd = q0.clone();
        let mut delpd = delp0.clone();
        let (mut fxd, mut fyd, mut xfxd, mut yfxd, mut raread) = (
            fx.clone(),
            fy.clone(),
            xfx.clone(),
            yfx.clone(),
            rarea.clone(),
        );
        run_stencil(
            &def,
            &mut [
                ("q", &mut qd),
                ("delp", &mut delpd),
                ("fx", &mut fxd),
                ("fy", &mut fyd),
                ("xfx", &mut xfxd),
                ("yfx", &mut yfxd),
                ("rarea", &mut raread),
            ],
            &[],
            Domain::from_shape([n, n, nk]),
        )
        .unwrap();
        assert!(qb.max_abs_diff(&qd) < 1e-13);
        assert!(delpb.max_abs_diff(&delpd) < 1e-13);
    }

    #[test]
    fn zero_wind_means_no_flux_divergence() {
        let n = 6;
        let q = Array3::filled(layout(n, 1), 2.0);
        let zero = Array3::zeros(layout(n, 1));
        let mut fx = Array3::zeros(layout(n, 1));
        let mut fy = Array3::zeros(layout(n, 1));
        baseline_fv_tp_2d(&q, &zero, &zero, &zero, &zero, &mut fx, &mut fy);
        for j in 0..n as i64 {
            for i in 0..=n as i64 {
                assert_eq!(fx.get(i, j, 0), 0.0);
                assert_eq!(fy.get(j, i, 0), 0.0);
            }
        }
    }
}
