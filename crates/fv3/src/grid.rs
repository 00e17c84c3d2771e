//! Gnomonic cubed-sphere grid metrics (Section II).
//!
//! FV3 solves on the gnomonic cubed sphere: each cube face is projected
//! radially onto the unit sphere. The metric terms the solver needs —
//! cell areas, edge lengths, and the sine/cosine of the (non-orthogonal)
//! grid angle — are computed here from the projected corner positions.
//! The grid is where the paper's horizontal regions come from: metric
//! factors degrade toward tile edges and corners, requiring the
//! specialized edge computations of Section IV-B.

use comm::geometry::FaceFrame;
use dataflow::storage::StorageOrder;
use dataflow::{Array3, Layout};
use std::sync::Arc;

/// Earth radius \[m\] — metric terms are in SI so Courant numbers come out
/// dimensionless for m/s winds.
const RADIUS: f64 = 6.3712e6;

/// Normalize a 3-vector onto the unit sphere.
fn normalize(p: [f64; 3]) -> [f64; 3] {
    let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
    [p[0] / r, p[1] / r, p[2] / r]
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm(a: [f64; 3]) -> f64 {
    dot(a, a).sqrt()
}

/// Great-circle distance between two unit vectors.
fn gc_dist(a: [f64; 3], b: [f64; 3]) -> f64 {
    norm(cross(a, b)).atan2(dot(a, b))
}

/// Spherical triangle area via the dihedral-angle formula.
fn tri_area(a: [f64; 3], b: [f64; 3], c: [f64; 3]) -> f64 {
    // Girard: sum of angles - pi, angles from tangent-plane vectors.
    let ang = |p: [f64; 3], q: [f64; 3], r: [f64; 3]| {
        // angle at p between arcs p->q and p->r
        let tq = sub(q, scale_v(p, dot(q, p)));
        let tr = sub(r, scale_v(p, dot(r, p)));
        (dot(tq, tr) / (norm(tq) * norm(tr))).clamp(-1.0, 1.0).acos()
    };
    ang(a, b, c) + ang(b, c, a) + ang(c, a, b) - std::f64::consts::PI
}

fn scale_v(a: [f64; 3], s: f64) -> [f64; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

/// Metric terms for one rank's subdomain of one tile.
///
/// Every field is horizontal, FV3core's `IJ` fields: the logical extent
/// of a 3-D field, so it binds directly to DSL stencil inputs at any
/// level, stored as one plane with a K stride of 0
/// ([`Layout::horizontal`]). The six the dycore program reads (`area`,
/// `rarea`, `rdx`, `rdy`, `cosa`, `sina`) are its `constant` containers
/// and sit behind an `Arc`, so every store of every tenant of a case
/// reads the one allocation ([`crate::dyn_core::load_state`] lends,
/// never copies).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Cells per subdomain edge.
    pub n: usize,
    /// Vertical levels (every level of a metric reads its one plane).
    pub nk: usize,
    /// Cell areas \[m^2\].
    pub area: Arc<Array3>,
    /// Inverse cell areas.
    pub rarea: Arc<Array3>,
    /// Inverse cell widths along i and j (great-circle, at cell centres).
    pub rdx: Arc<Array3>,
    pub rdy: Arc<Array3>,
    /// Cosine of the angle between grid lines (0 for orthogonal would be
    /// sin; FV3 convention: cosa = cos(angle), sina = sin(angle)).
    pub cosa: Arc<Array3>,
    pub sina: Arc<Array3>,
    /// Latitude (radians) of each cell centre — used by initial
    /// conditions and diagnostics.
    pub lat: Array3,
    /// Longitude (radians).
    pub lon: Array3,
}

impl Grid {
    /// Compute metrics for the subdomain `(rx, ry)` of `face` on a cube
    /// with `tile_n` cells per edge, subdomain size `n`, with `halo`
    /// metric halo cells and `nk` levels.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        face: &FaceFrame,
        tile_n: usize,
        rx: usize,
        ry: usize,
        n: usize,
        halo: usize,
        nk: usize,
    ) -> Grid {
        let layout = Layout::horizontal([n, n, nk], [halo, halo, 0], StorageOrder::IContiguous, 32);
        let mut area = Array3::zeros(layout.clone());
        let mut rarea = Array3::zeros(layout.clone());
        let mut rdx = Array3::zeros(layout.clone());
        let mut rdy = Array3::zeros(layout.clone());
        let mut cosa = Array3::zeros(layout.clone());
        let mut sina = Array3::zeros(layout.clone());
        let mut lat = Array3::zeros(layout.clone());
        let mut lon = Array3::zeros(layout);

        let nn = tile_n as f64;
        let centre = [nn / 2.0; 3];
        // Project a tile-global lattice position (gi, gj) to the sphere.
        // The face frame lives on the [0, N]^3 cube; recentre first.
        let proj = |gi: f64, gj: f64| -> [f64; 3] {
            let p = [
                face.origin[0] as f64 + face.u[0] as f64 * gi + face.v[0] as f64 * gj,
                face.origin[1] as f64 + face.u[1] as f64 * gi + face.v[1] as f64 * gj,
                face.origin[2] as f64 + face.u[2] as f64 * gi + face.v[2] as f64 * gj,
            ];
            normalize(sub(p, centre))
        };

        let h = halo as i64;
        let base_i = (rx * n) as i64;
        let base_j = (ry * n) as i64;
        for j in -h..(n as i64 + h) {
            for i in -h..(n as i64 + h) {
                let gi = (base_i + i) as f64;
                let gj = (base_j + j) as f64;
                // Cell corners on the sphere.
                let c00 = proj(gi, gj);
                let c10 = proj(gi + 1.0, gj);
                let c01 = proj(gi, gj + 1.0);
                let c11 = proj(gi + 1.0, gj + 1.0);
                let centre_pt = proj(gi + 0.5, gj + 0.5);

                let a = (tri_area(c00, c10, c11) + tri_area(c00, c11, c01)) * RADIUS * RADIUS;
                let dxi = gc_dist(c00, c10).max(1e-12) * RADIUS;
                let dyj = gc_dist(c00, c01).max(1e-12) * RADIUS;
                // Grid angle at the cell centre from tangents.
                let ti = sub(proj(gi + 1.0, gj + 0.5), proj(gi, gj + 0.5));
                let tj = sub(proj(gi + 0.5, gj + 1.0), proj(gi + 0.5, gj));
                let ca = (dot(ti, tj) / (norm(ti) * norm(tj))).clamp(-1.0, 1.0);
                let sa = (1.0 - ca * ca).sqrt();

                let latv = centre_pt[2].clamp(-1.0, 1.0).asin();
                let lonv = centre_pt[1].atan2(centre_pt[0]);

                area.set(i, j, 0, a);
                rarea.set(i, j, 0, 1.0 / a);
                rdx.set(i, j, 0, 1.0 / dxi);
                rdy.set(i, j, 0, 1.0 / dyj);
                cosa.set(i, j, 0, ca);
                sina.set(i, j, 0, sa);
                lat.set(i, j, 0, latv);
                lon.set(i, j, 0, lonv);
            }
        }

        Grid {
            n,
            nk,
            area: Arc::new(area),
            rarea: Arc::new(rarea),
            rdx: Arc::new(rdx),
            rdy: Arc::new(rdy),
            cosa: Arc::new(cosa),
            sina: Arc::new(sina),
            lat,
            lon,
        }
    }

    /// Sum of cell areas over the compute domain (one level).
    #[cfg(test)]
    fn domain_area(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.n as i64 {
            for i in 0..self.n as i64 {
                s += self.area.get(i, j, 0);
            }
        }
        s
    }
}

/// Reference vertical coordinate: hybrid-like pressure levels from the
/// model top to the surface, `nk + 1` interfaces.
pub fn reference_pressures(nk: usize, p_top: f64, p_surf: f64) -> Vec<f64> {
    (0..=nk)
        .map(|k| reference_pressure(p_top, p_surf, reference_level(k, nk)))
        .collect()
}

/// Interface `k` of `nk` layers as `(x, shape)`: the part of
/// [`reference_pressure`] that does not depend on the column, so the
/// remap computes it once per call rather than once per column.
pub fn reference_level(k: usize, nk: usize) -> (f64, f64) {
    let x = k as f64 / nk as f64;
    (x, (3.0 - 2.0 * x).max(0.2))
}

/// Pressure of one interface: quadratic spacing, thin layers aloft, thick
/// near the surface. The product is evaluated left to right.
#[inline]
pub fn reference_pressure(p_top: f64, p_surf: f64, (x, shape): (f64, f64)) -> f64 {
    p_top + (p_surf - p_top) * x * x * shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::CubeGeometry;

    #[test]
    fn six_tiles_cover_the_sphere() {
        let n = 8;
        let geom = CubeGeometry::new(n);
        let mut total = 0.0;
        for f in 0..6 {
            let g = Grid::compute(&geom.faces[f], n, 0, 0, n, 0, 1);
            total += g.domain_area();
        }
        let sphere = 4.0 * std::f64::consts::PI * RADIUS * RADIUS;
        assert!(
            (total - sphere).abs() / sphere < 1e-6,
            "total {total} vs {sphere}"
        );
    }

    #[test]
    fn areas_are_positive_and_vary_toward_corners() {
        let n = 16;
        let geom = CubeGeometry::new(n);
        let g = Grid::compute(&geom.faces[0], n, 0, 0, n, 0, 1);
        let centre = g.area.get(n as i64 / 2, n as i64 / 2, 0);
        let corner = g.area.get(0, 0, 0);
        assert!(centre > 0.0 && corner > 0.0);
        assert!(
            centre > corner,
            "gnomonic cells shrink toward corners: {centre} vs {corner}"
        );
    }

    #[test]
    fn grid_angle_is_orthogonal_at_face_centre_and_skewed_at_corners() {
        let n = 16;
        let geom = CubeGeometry::new(n);
        let g = Grid::compute(&geom.faces[2], n, 0, 0, n, 0, 1);
        let c = n as i64 / 2;
        assert!(g.cosa.get(c, c, 0).abs() < 0.02, "centre ~orthogonal");
        assert!(g.sina.get(c, c, 0) > 0.99);
        assert!(
            g.cosa.get(0, 0, 0).abs() > 0.1,
            "corner skew: {}",
            g.cosa.get(0, 0, 0)
        );
    }

    #[test]
    fn partitioned_grids_tile_the_face() {
        let tile_n = 8;
        let geom = CubeGeometry::new(tile_n);
        let whole = Grid::compute(&geom.faces[1], tile_n, 0, 0, tile_n, 0, 1);
        let mut parts = 0.0;
        for ry in 0..2 {
            for rx in 0..2 {
                let g = Grid::compute(&geom.faces[1], tile_n, rx, ry, 4, 0, 1);
                parts += g.domain_area();
            }
        }
        let rel = (whole.domain_area() - parts).abs() / whole.domain_area();
        assert!(rel < 1e-12, "relative mismatch {rel}");
    }

    #[test]
    fn metric_halo_is_filled() {
        let n = 8;
        let geom = CubeGeometry::new(n);
        let g = Grid::compute(&geom.faces[0], n, 0, 0, n, 3, 4);
        assert!(g.area.get(-3, -3, 3) > 0.0);
        assert!(g.rdx.get(10, 10, 3) > 0.0);
    }

    #[test]
    fn latitudes_cover_both_hemispheres() {
        let n = 8;
        let geom = CubeGeometry::new(n);
        let mut min_lat = f64::INFINITY;
        let mut max_lat = f64::NEG_INFINITY;
        for f in 0..6 {
            let g = Grid::compute(&geom.faces[f], n, 0, 0, n, 0, 1);
            for j in 0..n as i64 {
                for i in 0..n as i64 {
                    min_lat = min_lat.min(g.lat.get(i, j, 0));
                    max_lat = max_lat.max(g.lat.get(i, j, 0));
                }
            }
        }
        assert!(min_lat < -1.0 && max_lat > 1.0, "{min_lat} {max_lat}");
    }

    #[test]
    fn reference_pressures_are_monotone() {
        let p = reference_pressures(20, 300.0, 101325.0);
        assert_eq!(p.len(), 21);
        assert!(p.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(p[0], 300.0);
        assert!((p.last().unwrap() - 101325.0).abs() < 1e-9);
    }
}
