//! Initial conditions: the baroclinic-instability test case.
//!
//! Section IX sets "the initial state of the model corresponding to a
//! uniform zonal flow with a perturbation which evolves into a baroclinic
//! instability" (Ullrich et al. 2014). We implement the analytic shape of
//! that test: a balanced mid-latitude zonal jet, a stably stratified
//! temperature profile, hydrostatic layer thicknesses from the reference
//! pressures, and a localized Gaussian wind perturbation that seeds the
//! instability. "This analytical test case enables generation of
//! arbitrary domain sizes".

use crate::grid::{reference_pressures, Grid};
use crate::state::DycoreState;
use dataflow::Array3;

/// Physical constants (SI).
pub mod constants {
    /// Dry-air gas constant \[J/(kg K)\].
    pub const RDGAS: f64 = 287.05;
    /// Gravity \[m/s^2\].
    pub const GRAV: f64 = 9.80665;
    /// Reference surface pressure \[Pa\].
    pub const P0: f64 = 101_325.0;
    /// Model-top pressure \[Pa\].
    pub const PTOP: f64 = 300.0;
    /// Jet peak speed \[m/s\].
    pub(crate) const U0: f64 = 35.0;
    /// Surface temperature \[K\].
    pub(crate) const T0: f64 = 288.0;
    /// Kappa = R/cp.
    pub(crate) const KAPPA: f64 = 2.0 / 7.0;
}

/// Configuration of the test case.
#[derive(Debug, Clone, Copy)]
pub struct BaroclinicConfig {
    /// Jet amplitude (m/s).
    pub u0: f64,
    /// Perturbation amplitude (m/s).
    pub up: f64,
    /// Perturbation centre (lon, lat) in radians.
    pub centre: (f64, f64),
    /// Perturbation width (radians).
    pub width: f64,
}

impl Default for BaroclinicConfig {
    fn default() -> Self {
        BaroclinicConfig {
            u0: constants::U0,
            up: 1.0,
            centre: (std::f64::consts::PI / 9.0, 2.0 * std::f64::consts::PI / 9.0),
            width: 0.1,
        }
    }
}

/// What [`init_baroclinic`] writes into one column, whatever the level:
/// the factors that depend on latitude and longitude only.
struct Column {
    /// `sin²(2 lat)`, the jet's meridional shape.
    s2: f64,
    /// `cos(lat)`.
    c: f64,
    /// The Gaussian wind perturbation.
    pert: f64,
    /// The tracer blob before its vertical weight.
    qa: f64,
}

/// The `w` elements of row `j` at level `k`, from `i = -h` on.
fn row_mut(a: &mut Array3, j: i64, k: i64, h: i64, w: usize) -> impl Iterator<Item = &mut f64> {
    let off = a.layout().offset(-h, j, k);
    let si = a.layout().strides[0];
    a.raw_mut()[off..].iter_mut().step_by(si).take(w)
}

/// Fill `state` for the subdomain described by `grid`, halo included.
///
/// Each factor is evaluated once where its inputs vary, with the
/// expression and association a per-cell evaluation would use: the
/// vertical profile once per level, the latitude/longitude shapes once
/// per column (`lat`/`lon` are horizontal), so every cell gets the bits
/// it would get from evaluating the whole formula in place
/// (`tests/init_identity.rs` holds this to 0 ULP).
pub fn init_baroclinic(state: &mut DycoreState, grid: &Grid, cfg: &BaroclinicConfig) {
    use constants::*;
    use std::f64::consts::PI;
    let n = state.n as i64;
    let nk = state.nk;
    let p_ref = reference_pressures(nk, PTOP, P0);
    let h = crate::state::HALO as i64;
    let w = (n + 2 * h) as usize;

    let mut columns = Vec::with_capacity(w * w);
    for j in -h..n + h {
        for i in -h..n + h {
            let lat = grid.lat.get(i, j, 0);
            let lon = grid.lon.get(i, j, 0);
            // Gaussian perturbation in the northern jet.
            let dlon = (lon - cfg.centre.0 + PI).rem_euclid(2.0 * PI) - PI;
            let dlat = lat - cfg.centre.1;
            let r2 = (dlon * dlon + dlat * dlat) / (cfg.width * cfg.width);
            columns.push(Column {
                s2: (2.0 * lat).sin().powi(2),
                c: lat.cos(),
                pert: cfg.up * (-r2).exp(),
                // Tracer: a smooth blob for transport experiments.
                qa: 1e-3 * (1.0 + (3.0 * lat).cos() * (2.0 * lon).sin()),
            });
        }
    }

    for k in 0..nk {
        let dp = p_ref[k + 1] - p_ref[k];
        let p_mid = 0.5 * (p_ref[k + 1] + p_ref[k]);
        // Stable stratification: theta increases with height.
        let theta = T0 * (P0 / p_mid).powf(KAPPA);
        // Vertical jet structure: strongest in the mid-troposphere.
        let sigma = p_mid / P0;
        let vert = (sigma * PI).sin().powi(2);
        // Hydrostatic depth (negative, FV3 convention).
        let t_mid = theta * (p_mid / P0).powf(KAPPA);
        let delz = -RDGAS * t_mid * dp / (GRAV * p_mid);
        // The zonal jet's two mid-latitude maxima are `u0 * vert * s2 * c`,
        // left to right: this is its first product.
        let u0v = cfg.u0 * vert;
        let k = k as i64;
        for (row, j) in columns.chunks_exact(w).zip(-h..n + h) {
            row_mut(&mut state.delp, j, k, h, w).for_each(|x| *x = dp);
            row_mut(&mut state.pt, j, k, h, w).for_each(|x| *x = theta);
            for (x, col) in row_mut(&mut state.u, j, k, h, w).zip(row) {
                *x = u0v * col.s2 * col.c + col.pert;
            }
            row_mut(&mut state.v, j, k, h, w).for_each(|x| *x = 0.0);
            row_mut(&mut state.w, j, k, h, w).for_each(|x| *x = 0.0);
            row_mut(&mut state.delz, j, k, h, w).for_each(|x| *x = delz);
            for (x, col) in row_mut(&mut state.q, j, k, h, w).zip(row) {
                *x = (col.qa * vert).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::CubeGeometry;

    fn setup(n: usize, nk: usize, face: usize) -> (DycoreState, Grid) {
        let geom = CubeGeometry::new(n);
        let grid = Grid::compute(
            &geom.faces[face],
            n,
            0,
            0,
            n,
            crate::state::HALO,
            nk,
        );
        let mut s = DycoreState::zeros(n, nk);
        init_baroclinic(&mut s, &grid, &BaroclinicConfig::default());
        (s, grid)
    }

    #[test]
    fn state_is_finite_everywhere() {
        let (s, _) = setup(8, 10, 0);
        assert!(!s.has_nonfinite());
    }

    #[test]
    fn delp_matches_reference_pressure_column() {
        let (s, _) = setup(6, 12, 1);
        let p = reference_pressures(12, constants::PTOP, constants::P0);
        let col: f64 = (0..12).map(|k| s.delp.get(3, 3, k)).sum();
        assert!((col - (p[12] - p[0])).abs() < 1e-6);
        // Every layer positive.
        for k in 0..12 {
            assert!(s.delp.get(0, 0, k) > 0.0);
        }
    }

    #[test]
    fn jet_is_strongest_at_midlatitude_midtroposphere() {
        let n = 16;
        let (s, grid) = setup(n, 16, 2);
        // Find max |u| and check its latitude is in a jet band.
        let mut best = (0.0f64, 0.0f64);
        for k in 0..16 {
            for j in 0..n as i64 {
                for i in 0..n as i64 {
                    let u = s.u.get(i, j, k).abs();
                    if u > best.0 {
                        best = (u, grid.lat.get(i, j, 0).abs());
                    }
                }
            }
        }
        assert!(best.0 > 1.0, "jet present: {}", best.0);
        assert!(
            (0.3..1.2).contains(&best.1),
            "jet at mid-latitudes, found |lat| = {}",
            best.1
        );
    }

    #[test]
    fn stratification_is_stable() {
        let (s, _) = setup(4, 12, 0);
        // theta decreases from model top (k=0) to surface? No: theta is
        // larger aloft (smaller p). k=0 is the top layer in our ordering.
        let top = s.pt.get(2, 2, 0);
        let bottom = s.pt.get(2, 2, 11);
        assert!(top > bottom, "theta top {top} vs bottom {bottom}");
    }

    #[test]
    fn delz_is_negative_and_hydrostatic_scale() {
        let (s, _) = setup(4, 12, 3);
        for k in 0..12 {
            let dz = s.delz.get(1, 1, k);
            assert!(dz < 0.0, "FV3 delz convention is negative");
            assert!(dz > -30_000.0, "layer depth sane: {dz}");
        }
        // Column depth should be tropopause-scale (tens of km).
        let depth: f64 = (0..12).map(|k| -s.delz.get(1, 1, k)).sum();
        assert!((10_000.0..120_000.0).contains(&depth), "column {depth} m");
    }

    #[test]
    fn tracer_is_nonnegative() {
        let (s, _) = setup(8, 8, 4);
        for k in 0..8 {
            for j in 0..8 {
                for i in 0..8 {
                    assert!(s.q.get(i, j, k) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn perturbation_breaks_zonal_symmetry() {
        // With the perturbation on, u varies with longitude at fixed
        // latitude; with up = 0 the flow is (nearly) zonally symmetric in
        // the jet term (symmetry broken only by lat variation).
        let n = 16;
        let geom = CubeGeometry::new(n);
        let grid = Grid::compute(&geom.faces[5], n, 0, 0, n, crate::state::HALO, 4);
        let mut pert = DycoreState::zeros(n, 4);
        init_baroclinic(&mut pert, &grid, &BaroclinicConfig::default());
        let mut zonal = DycoreState::zeros(n, 4);
        init_baroclinic(
            &mut zonal,
            &grid,
            &BaroclinicConfig {
                up: 0.0,
                ..Default::default()
            },
        );
        assert!(pert.u.max_abs_diff(&zonal.u) > 0.0);
    }
}
