//! C-grid shallow-water half step (`c_sw`).
//!
//! The first stage of the acoustic substep (Fig. 2): interpolate the
//! D-grid winds to the C-grid, form interface Courant numbers and mass
//! fluxes, and advance `delp` and `pt` a half step in flux form. The
//! Courant numbers / mass fluxes are also what the tracer transport
//! consumes (the accumulated fluxes of the red path in Fig. 2).

use dataflow::expr::NumLike;
use dataflow::kernel::{AxisInterval, Domain, KOrder};
use dataflow::{Array3, Expr};
use stencil::{StencilBuilder, StencilDef};
use std::sync::Arc;

/// Upwind interface value.
fn upwind<T: NumLike>(c: T, qm: T, q0: T) -> T {
    T::select_pos(c, qm, q0)
}

/// Build the `c_sw` stencil.
///
/// Inputs: `u`, `v`, `delp`, `pt`, `rdx`, `rdy`, `rarea`; params `dt2`
/// (the half timestep). Outputs: `crx`, `cry` (interface Courant
/// numbers), `xfx`, `yfx` (interface mass fluxes), `uc`, `vc` (C-grid
/// winds, consumed by d_sw), `delpc`, `ptc` (half-updated copies). Run on
/// the flux domain (+1 both axes).
pub fn c_sw_stencil() -> Arc<StencilDef> {
    Arc::new(
        StencilBuilder::new("c_sw", |b| {
            let u = b.input("u");
            let v = b.input("v");
            let delp = b.input("delp");
            let pt = b.input("pt");
            let rdx = b.input("rdx");
            let rdy = b.input("rdy");
            let area = b.input("area");
            let rarea = b.input("rarea");
            let crx = b.output("crx");
            let cry = b.output("cry");
            let xfx = b.output("xfx");
            let yfx = b.output("yfx");
            let delpc = b.output("delpc");
            let ptc = b.output("ptc");
            let uc = b.output("uc");
            let vc = b.output("vc");
            let dt2 = b.param("dt2");
            let fx = b.temp("fx");
            let fy = b.temp("fy");
            let fxp = b.temp("fxp"); // pt flux
            let fyp = b.temp("fyp");

            b.computation(KOrder::Parallel, AxisInterval::FULL, |s| {
                // C-grid winds at cell interfaces (simple average).
                s.assign(&uc, Expr::c(0.5) * (u.c() + u.at(-1, 0, 0)));
                s.assign(&vc, Expr::c(0.5) * (v.c() + v.at(0, -1, 0)));
                // Courant numbers at interfaces.
                s.assign(&crx, uc.c() * dt2.ex() * rdx.c());
                s.assign(&cry, vc.c() * dt2.ex() * rdy.c());
                // Upwind mass fluxes through the interfaces, area-weighted
                // so the flux-form update is conservative in Pa * m^2.
                s.assign(
                    &xfx,
                    crx.c() * area.c() * upwind::<Expr>(crx.c(), delp.at(-1, 0, 0), delp.c()),
                );
                s.assign(
                    &yfx,
                    cry.c() * area.c() * upwind::<Expr>(cry.c(), delp.at(0, -1, 0), delp.c()),
                );
                // Upwind pt fluxes (mass-weighted).
                s.assign(
                    &fx,
                    xfx.c() * upwind::<Expr>(crx.c(), pt.at(-1, 0, 0), pt.c()),
                );
                s.assign(
                    &fy,
                    yfx.c() * upwind::<Expr>(cry.c(), pt.at(0, -1, 0), pt.c()),
                );
                // Half-step flux-form updates.
                s.assign(
                    &fxp,
                    pt.c() * delp.c()
                        + rarea.c() * (fx.c() - fx.at(1, 0, 0) + fy.c() - fy.at(0, 1, 0)),
                );
                s.assign(
                    &fyp,
                    delp.c()
                        + rarea.c()
                            * (xfx.c() - xfx.at(1, 0, 0) + yfx.c() - yfx.at(0, 1, 0)),
                );
                s.assign(&ptc, fxp.c() / fyp.c());
                s.assign(&delpc, fyp.c());
            });
        })
        .expect("c_sw is valid"),
    )
}

/// FORTRAN-style baseline with identical arithmetic.
#[allow(clippy::too_many_arguments)]
pub fn baseline_c_sw(
    u: &Array3,
    v: &Array3,
    delp: &Array3,
    pt: &Array3,
    rdx: &Array3,
    rdy: &Array3,
    area: &Array3,
    rarea: &Array3,
    crx: &mut Array3,
    cry: &mut Array3,
    xfx: &mut Array3,
    yfx: &mut Array3,
    delpc: &mut Array3,
    ptc: &mut Array3,
    uc: &mut Array3,
    vc: &mut Array3,
    dt2: f64,
) {
    let [ni, nj, nk] = delp.layout().domain;
    let (ni, nj, nk) = (ni as i64, nj as i64, nk as i64);
    for k in 0..nk {
        // Interfaces (including the +1 row/column).
        for j in 0..nj + 2 {
            for i in 0..ni + 2 {
                let ucv = 0.5 * (u.get(i, j, k) + u.get(i - 1, j, k));
                let vcv = 0.5 * (v.get(i, j, k) + v.get(i, j - 1, k));
                uc.set(i, j, k, ucv);
                vc.set(i, j, k, vcv);
                let crxv = ucv * dt2 * rdx.get(i, j, k);
                let cryv = vcv * dt2 * rdy.get(i, j, k);
                crx.set(i, j, k, crxv);
                cry.set(i, j, k, cryv);
                xfx.set(
                    i,
                    j,
                    k,
                    crxv
                        * area.get(i, j, k)
                        * upwind::<f64>(crxv, delp.get(i - 1, j, k), delp.get(i, j, k)),
                );
                yfx.set(
                    i,
                    j,
                    k,
                    cryv
                        * area.get(i, j, k)
                        * upwind::<f64>(cryv, delp.get(i, j - 1, k), delp.get(i, j, k)),
                );
            }
        }
        for j in 0..nj + 1 {
            for i in 0..ni + 1 {
                let fx = |ii: i64, jj: i64| {
                    xfx.get(ii, jj, k)
                        * upwind::<f64>(crx.get(ii, jj, k), pt.get(ii - 1, jj, k), pt.get(ii, jj, k))
                };
                let fy = |ii: i64, jj: i64| {
                    yfx.get(ii, jj, k)
                        * upwind::<f64>(cry.get(ii, jj, k), pt.get(ii, jj - 1, k), pt.get(ii, jj, k))
                };
                let qdp = pt.get(i, j, k) * delp.get(i, j, k)
                    + rarea.get(i, j, k)
                        * (fx(i, j) - fx(i + 1, j) + fy(i, j) - fy(i, j + 1));
                let dp = delp.get(i, j, k)
                    + rarea.get(i, j, k)
                        * (xfx.get(i, j, k) - xfx.get(i + 1, j, k) + yfx.get(i, j, k)
                            - yfx.get(i, j + 1, k));
                ptc.set(i, j, k, qdp / dp);
                delpc.set(i, j, k, dp);
            }
        }
    }
}

/// Domain for the c_sw call (+1 both axes so interface `n` exists).
pub fn c_sw_domain(n: usize, nk: usize) -> Domain {
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
        let mut a = Array3::zeros(layout(n, nk));
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
        let (n, nk) = (6, 2);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let u = rand_field(n, nk, &mut rng, -10.0, 10.0);
        let v = rand_field(n, nk, &mut rng, -10.0, 10.0);
        let delp = rand_field(n, nk, &mut rng, 800.0, 1200.0);
        let pt = rand_field(n, nk, &mut rng, 280.0, 320.0);
        let rdx = rand_field(n, nk, &mut rng, 0.9e-5, 1.1e-5);
        let rdy = rand_field(n, nk, &mut rng, 0.9e-5, 1.1e-5);
        let area = rand_field(n, nk, &mut rng, 0.9, 1.1);
        let rarea = rand_field(n, nk, &mut rng, 0.9, 1.1);
        let dt2 = 30.0;

        let mk = || Array3::zeros(layout(n, nk));
        let (mut crx_b, mut cry_b, mut xfx_b, mut yfx_b, mut delpc_b, mut ptc_b) =
            (mk(), mk(), mk(), mk(), mk(), mk());
        let (mut uc_b, mut vc_b) = (mk(), mk());
        baseline_c_sw(
            &u, &v, &delp, &pt, &rdx, &rdy, &area, &rarea, &mut crx_b, &mut cry_b, &mut xfx_b,
            &mut yfx_b, &mut delpc_b, &mut ptc_b, &mut uc_b, &mut vc_b, dt2,
        );

        let def = c_sw_stencil();
        let (mut ud, mut vd, mut delpd, mut ptd) =
            (u.clone(), v.clone(), delp.clone(), pt.clone());
        let (mut rdxd, mut rdyd, mut aread, mut raread) =
            (rdx.clone(), rdy.clone(), area.clone(), rarea.clone());
        let (mut crx_d, mut cry_d, mut xfx_d, mut yfx_d, mut delpc_d, mut ptc_d) =
            (mk(), mk(), mk(), mk(), mk(), mk());
        let (mut uc_d, mut vc_d) = (mk(), mk());
        run_stencil(
            &def,
            &mut [
                ("u", &mut ud),
                ("v", &mut vd),
                ("delp", &mut delpd),
                ("pt", &mut ptd),
                ("rdx", &mut rdxd),
                ("rdy", &mut rdyd),
                ("area", &mut aread),
                ("rarea", &mut raread),
                ("crx", &mut crx_d),
                ("cry", &mut cry_d),
                ("xfx", &mut xfx_d),
                ("yfx", &mut yfx_d),
                ("delpc", &mut delpc_d),
                ("ptc", &mut ptc_d),
                ("uc", &mut uc_d),
                ("vc", &mut vc_d),
            ],
            &[("dt2", dt2)],
            c_sw_domain(n, nk),
        )
        .unwrap();

        // Compare on the target interface/cell ranges.
        let mut m = 0.0f64;
        for k in 0..nk as i64 {
            for j in 0..=n as i64 {
                for i in 0..=n as i64 {
                    m = m.max((crx_b.get(i, j, k) - crx_d.get(i, j, k)).abs());
                    m = m.max((cry_b.get(i, j, k) - cry_d.get(i, j, k)).abs());
                    m = m.max((xfx_b.get(i, j, k) - xfx_d.get(i, j, k)).abs());
                    m = m.max((yfx_b.get(i, j, k) - yfx_d.get(i, j, k)).abs());
                    m = m.max((delpc_b.get(i, j, k) - delpc_d.get(i, j, k)).abs());
                    m = m.max((ptc_b.get(i, j, k) - ptc_d.get(i, j, k)).abs());
                }
            }
        }
        assert!(m < 1e-10, "max diff {m}");
    }

    #[test]
    fn calm_atmosphere_stays_calm() {
        let (n, nk) = (4, 2);
        let zero = Array3::zeros(layout(n, nk));
        let delp = Array3::filled(layout(n, nk), 1000.0);
        let pt = Array3::filled(layout(n, nk), 300.0);
        let one = Array3::filled(layout(n, nk), 1.0);
        let mk = || Array3::zeros(layout(n, nk));
        let (mut crx, mut cry, mut xfx, mut yfx, mut delpc, mut ptc) =
            (mk(), mk(), mk(), mk(), mk(), mk());
        let (mut ucb, mut vcb) = (mk(), mk());
        baseline_c_sw(
            &zero, &zero, &delp, &pt, &one, &one, &one, &one, &mut crx, &mut cry, &mut xfx,
            &mut yfx, &mut delpc, &mut ptc, &mut ucb, &mut vcb, 10.0,
        );
        for j in 0..n as i64 {
            for i in 0..n as i64 {
                assert_eq!(crx.get(i, j, 0), 0.0);
                assert_eq!(delpc.get(i, j, 1), 1000.0);
                assert_eq!(ptc.get(i, j, 0), 300.0);
            }
        }
    }

    #[test]
    fn half_step_conserves_mass_up_to_boundary() {
        let (n, nk) = (6, 1);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
        let u = rand_field(n, nk, &mut rng, -5.0, 5.0);
        let v = rand_field(n, nk, &mut rng, -5.0, 5.0);
        let delp = rand_field(n, nk, &mut rng, 900.0, 1100.0);
        let pt = rand_field(n, nk, &mut rng, 280.0, 320.0);
        let one = Array3::filled(layout(n, nk), 1.0);
        let small = Array3::filled(layout(n, nk), 1e-3);
        let mk = || Array3::zeros(layout(n, nk));
        let (mut crx, mut cry, mut xfx, mut yfx, mut delpc, mut ptc) =
            (mk(), mk(), mk(), mk(), mk(), mk());
        let (mut ucb, mut vcb) = (mk(), mk());
        baseline_c_sw(
            &u, &v, &delp, &pt, &small, &small, &one, &one, &mut crx, &mut cry, &mut xfx,
            &mut yfx, &mut delpc, &mut ptc, &mut ucb, &mut vcb, 10.0,
        );
        let mut before = 0.0f64;
        let mut after = 0.0f64;
        for j in 0..n as i64 {
            for i in 0..n as i64 {
                before += delp.get(i, j, 0);
                after += delpc.get(i, j, 0);
            }
        }
        let mut boundary = 0.0;
        for j in 0..n as i64 {
            boundary += xfx.get(0, j, 0) - xfx.get(n as i64, j, 0);
        }
        for i in 0..n as i64 {
            boundary += yfx.get(i, 0, 0) - yfx.get(i, n as i64, 0);
        }
        assert!(
            (after - before - boundary).abs() < 1e-9,
            "mass delta {} vs boundary {boundary}",
            after - before
        );
    }
}
