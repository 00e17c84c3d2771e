//! `init_baroclinic` evaluates each factor once where its inputs vary —
//! the vertical profile per level, the latitude/longitude shapes per
//! column. This holds it to 0 ULP against the formula evaluated whole in
//! every cell, the loop it replaced, kept here as the reference: all
//! seven prognostics, halo included, on every face of the cube, for
//! whole tiles and for 2 × 2 subdomains of one.

use comm::CubeGeometry;
use fv3::grid::{reference_pressures, Grid};
use fv3::init::constants::{GRAV, P0, PTOP, RDGAS};
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::state::{DycoreState, HALO, PROGNOSTICS};

/// Private in the crate; the values the library uses.
const T0: f64 = 288.0;
const KAPPA: f64 = 2.0 / 7.0;

/// The baroclinic state, every formula evaluated in full in every cell.
fn per_cell(state: &mut DycoreState, grid: &Grid, cfg: &BaroclinicConfig) {
    let n = state.n as i64;
    let nk = state.nk;
    let p_ref = reference_pressures(nk, PTOP, P0);
    let h = HALO as i64;
    for k in 0..nk as i64 {
        let dp = p_ref[k as usize + 1] - p_ref[k as usize];
        let p_mid = 0.5 * (p_ref[k as usize + 1] + p_ref[k as usize]);
        let theta = T0 * (P0 / p_mid).powf(KAPPA);
        let sigma = p_mid / P0;
        let vert = (sigma * std::f64::consts::PI).sin().powi(2);
        for j in -h..n + h {
            for i in -h..n + h {
                let lat = grid.lat.get(i, j, k);
                let lon = grid.lon.get(i, j, k);
                let jet = cfg.u0 * vert * (2.0 * lat).sin().powi(2) * lat.cos();
                let dlon = (lon - cfg.centre.0 + std::f64::consts::PI)
                    .rem_euclid(2.0 * std::f64::consts::PI)
                    - std::f64::consts::PI;
                let dlat = lat - cfg.centre.1;
                let r2 = (dlon * dlon + dlat * dlat) / (cfg.width * cfg.width);
                let pert = cfg.up * (-r2).exp();

                state.delp.set(i, j, k, dp);
                state.pt.set(i, j, k, theta);
                state.u.set(i, j, k, jet + pert);
                state.v.set(i, j, k, 0.0);
                state.w.set(i, j, k, 0.0);
                let t_mid = theta * (p_mid / P0).powf(KAPPA);
                state
                    .delz
                    .set(i, j, k, -RDGAS * t_mid * dp / (GRAV * p_mid));
                let q = 1e-3 * (1.0 + (3.0 * lat).cos() * (2.0 * lon).sin()) * vert;
                state.q.set(i, j, k, q.max(0.0));
            }
        }
    }
}

/// Every subdomain of a `tile_n` cube split `rt × rt` per face, at `nk`
/// levels: both initialisations, field by field, bit by bit.
fn assert_identical(tile_n: usize, rt: usize, nk: usize, cfg: &BaroclinicConfig) {
    let geom = CubeGeometry::new(tile_n);
    let sub_n = tile_n / rt;
    for (face, frame) in geom.faces.iter().enumerate() {
        for (rx, ry) in (0..rt).flat_map(|ry| (0..rt).map(move |rx| (rx, ry))) {
            let grid = Grid::compute(frame, tile_n, rx, ry, sub_n, HALO, nk);
            // Neither initialisation may lean on what the array held.
            let mut hoisted = DycoreState::zeros(sub_n, nk);
            for name in PROGNOSTICS {
                hoisted.field_mut(name).raw_mut().fill(f64::NAN);
            }
            init_baroclinic(&mut hoisted, &grid, cfg);
            let mut reference = DycoreState::zeros(sub_n, nk);
            per_cell(&mut reference, &grid, cfg);
            for ((name, got), (_, want)) in hoisted.fields().into_iter().zip(reference.fields()) {
                let (got, want) = (got.export_logical(), want.export_logical());
                assert_eq!(got.len(), want.len());
                let first = got
                    .iter()
                    .zip(&want)
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                if let Some(at) = first {
                    panic!(
                        "c{tile_n}L{nk} face {face} subdomain ({rx}, {ry}): {name}[{at}] \
                         = {:e}, per-cell {:e}",
                        got[at], want[at]
                    );
                }
            }
        }
    }
}

#[test]
fn whole_tiles_match_the_per_cell_formula_bit_for_bit() {
    let cfg = BaroclinicConfig::default();
    assert_identical(8, 1, 3, &cfg);
    assert_identical(24, 1, 8, &cfg);
}

#[test]
fn subdomains_match_the_per_cell_formula_bit_for_bit() {
    assert_identical(24, 2, 5, &BaroclinicConfig::default());
}

#[test]
fn other_test_cases_match_too() {
    // A perturbation centred elsewhere, wider and stronger, and a
    // weaker jet: every configuration field enters a hoisted factor.
    let cfg = BaroclinicConfig {
        u0: 20.0,
        up: 3.5,
        centre: (-2.0, -0.6),
        width: 0.45,
    };
    assert_identical(8, 1, 3, &cfg);
    assert_identical(24, 2, 5, &cfg);
}
