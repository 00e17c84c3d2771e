//! Vertical Lagrangian-to-Eulerian remapping (the green hexagon of
//! Fig. 2).
//!
//! After the acoustic substeps deform the Lagrangian surfaces, each
//! column is conservatively remapped back to the reference coordinate.
//! The overlap search is inherently a data-dependent loop per column —
//! one of the code shapes GT4Py cannot express (no variable offsets,
//! Section IV-D). The Python port ran such pieces through the
//! orchestrator's **callback** mechanism (Section V-B); we do the same:
//! [`remap_state`] is host code, and it doubles as the FORTRAN-style
//! baseline.
//!
//! Each column takes **one walk** over its source/target overlap, which
//! advances every field's target sum at each `(mass taken, source
//! layer)` pair: each field keeps its own operations in its own order.
//!
//! Reconstruction is piecewise-constant (first-order), which makes
//! conservation exact and monotonicity trivial — higher-order PPM remap
//! is listed as future work in DESIGN.md.

use crate::grid::{reference_level, reference_pressure};
use crate::init::constants::{P0, PTOP};
use dataflow::Array3;
use std::array;

/// Fields one walk advances together (the dycore remaps five: `pt`, `w`,
/// `q`, `u`, `v`). More fields take one walk per group.
const GROUP: usize = 5;

/// Walk one column's source layers once for the target thicknesses and
/// `put(k, means)` the target means of all `N` fields per target layer.
/// Source and target must span the same total within round-off; a tail
/// the source no longer covers takes the last layer's value, and an
/// empty source column reads as zero.
fn walk<const N: usize>(
    src_dp: &[f64],
    dst_dp: &[f64],
    vals: [&[f64]; N],
    mut put: impl FnMut(usize, [f64; N]),
) {
    let n = src_dp.len();
    let tail = vals.map(|v| v.last().copied().unwrap_or(0.0));
    let mut k_src = 0usize;
    // Mass remaining in the current source layer.
    let mut avail = src_dp.first().copied().unwrap_or(0.0);
    for (k, &need_total) in dst_dp.iter().enumerate() {
        let mut need = need_total;
        let mut acc = [0.0f64; N];
        while need > 0.0 {
            if k_src >= n {
                for (a, t) in acc.iter_mut().zip(tail) {
                    *a += need * t;
                }
                break;
            }
            let take = need.min(avail);
            for (a, v) in acc.iter_mut().zip(vals) {
                *a += take * v[k_src];
            }
            need -= take;
            avail -= take;
            if avail <= 1e-30 {
                k_src += 1;
                avail = src_dp.get(k_src).copied().unwrap_or(0.0);
            }
            if take <= 0.0 && avail <= 0.0 && k_src >= n {
                break;
            }
        }
        put(k, acc.map(|a| if need_total > 0.0 { a / need_total } else { 0.0 }));
    }
}

/// Conservatively remap one column from source layers to target layers.
///
/// `src_dp[k]`, `src_val[k]`: source layer thicknesses (positive) and
/// mean values; `dst_dp[k]`: target thicknesses. Source and target must
/// span the same total (within round-off; the tail is clamped). Returns
/// target mean values.
pub fn remap_column(src_dp: &[f64], src_val: &[f64], dst_dp: &[f64]) -> Vec<f64> {
    assert_eq!(src_dp.len(), src_val.len());
    let mut out = vec![0.0; dst_dp.len()];
    walk(src_dp, dst_dp, [src_val], |k, [v]| out[k] = v);
    out
}

/// The reference coordinate of `nk` layers, rescaled per column.
struct Targets {
    /// [`reference_level`] of the `nk + 1` interfaces.
    levels: Vec<(f64, f64)>,
    p_ref: Vec<f64>,
}

impl Targets {
    fn new(nk: usize) -> Self {
        Targets {
            levels: (0..=nk).map(|k| reference_level(k, nk)).collect(),
            p_ref: vec![0.0; nk + 1],
        }
    }

    /// Fill `out` with the reference thicknesses of a column holding
    /// `column_mass`, rescaled so they sum exactly to it.
    fn fill(&mut self, p_top: f64, column_mass: f64, out: &mut [f64]) {
        let p_surf = p_top + column_mass * (P0 - PTOP) / (P0 - PTOP);
        for (p, &level) in self.p_ref.iter_mut().zip(&self.levels) {
            *p = reference_pressure(p_top, p_surf, level);
        }
        let total: f64 = self.p_ref.windows(2).map(|w| w[1] - w[0]).sum();
        for (d, w) in out.iter_mut().zip(self.p_ref.windows(2)) {
            *d = (w[1] - w[0]) * column_mass / total;
        }
    }
}

/// Target layer thicknesses for a column with surface pressure
/// `p_surf`: the reference distribution rescaled to the column's mass.
pub fn target_thicknesses(nk: usize, p_top: f64, column_mass: f64) -> Vec<f64> {
    let mut out = vec![0.0; nk];
    Targets::new(nk).fill(p_top, column_mass, &mut out);
    out
}

/// Remap every column of the given fields back to the reference
/// coordinate. `delp` is both input (Lagrangian thicknesses) and output
/// (reference thicknesses); `fields` are remapped in place, `GROUP` at
/// a time by one walk per column. Nothing is allocated per column.
pub fn remap_state(delp: &mut Array3, fields: &mut [&mut Array3]) {
    let [ni, nj, nk] = delp.layout().domain;
    let mut targets = Targets::new(nk);
    let mut src_dp = vec![0.0f64; nk];
    let mut dst_dp = vec![0.0f64; nk];
    // A group's source columns, gathered before the walk overwrites them.
    // Rows past a short group's last field are read and discarded.
    let mut src_val = vec![0.0f64; GROUP * nk];
    for j in 0..nj as i64 {
        for i in 0..ni as i64 {
            let (at, sk) = delp.column(i, j);
            let raw = delp.raw_mut();
            for (k, v) in src_dp.iter_mut().enumerate() {
                *v = raw[at + k * sk];
            }
            let mass: f64 = src_dp.iter().sum();
            targets.fill(PTOP, mass, &mut dst_dp);
            for (k, v) in dst_dp.iter().enumerate() {
                raw[at + k * sk] = *v;
            }
            for group in fields.chunks_mut(GROUP) {
                let mut cols = [(0usize, 0usize); GROUP];
                for (f, field) in group.iter().enumerate() {
                    cols[f] = field.column(i, j);
                    let (at, sk) = cols[f];
                    let raw = field.raw();
                    for (k, v) in src_val[f * nk..(f + 1) * nk].iter_mut().enumerate() {
                        *v = raw[at + k * sk];
                    }
                }
                let vals = array::from_fn(|f| &src_val[f * nk..(f + 1) * nk]);
                walk::<GROUP>(&src_dp, &dst_dp, vals, |k, means| {
                    for ((field, (at, sk)), v) in group.iter_mut().zip(cols).zip(means) {
                        field.raw_mut()[at + k * sk] = v;
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::Layout;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identity_when_grids_match() {
        let dp = vec![1.0, 2.0, 3.0];
        let v = vec![10.0, 20.0, 30.0];
        let out = remap_column(&dp, &v, &dp);
        for (a, b) in out.iter().zip(v.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn remap_conserves_mass_weighted_integral() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        for _ in 0..50 {
            let nk = rng.gen_range(3..12);
            let src_dp: Vec<f64> = (0..nk).map(|_| rng.gen_range(0.5..2.0)).collect();
            let src_val: Vec<f64> = (0..nk).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let total: f64 = src_dp.iter().sum();
            // Random target partition with the same total.
            let mut dst_dp: Vec<f64> = (0..nk).map(|_| rng.gen_range(0.5..2.0)).collect();
            let dsum: f64 = dst_dp.iter().sum();
            dst_dp.iter_mut().for_each(|d| *d *= total / dsum);

            let out = remap_column(&src_dp, &src_val, &dst_dp);
            let m_src: f64 = src_dp.iter().zip(&src_val).map(|(d, v)| d * v).sum();
            let m_dst: f64 = dst_dp.iter().zip(&out).map(|(d, v)| d * v).sum();
            assert!(
                (m_src - m_dst).abs() < 1e-9 * m_src.abs().max(1.0),
                "conservation: {m_src} vs {m_dst}"
            );
        }
    }

    #[test]
    fn remap_is_monotone_bounded() {
        // Piecewise-constant remap cannot create new extrema.
        let src_dp = vec![1.0, 1.0, 1.0, 1.0];
        let src_val = vec![0.0, 1.0, 3.0, 2.0];
        let dst_dp = vec![0.5, 1.5, 1.0, 1.0];
        let out = remap_column(&src_dp, &src_val, &dst_dp);
        for v in &out {
            assert!((0.0..=3.0).contains(v), "{v} out of [0,3]");
        }
    }

    #[test]
    fn target_thicknesses_sum_to_column_mass() {
        let t = target_thicknesses(10, 300.0, 98000.0);
        let s: f64 = t.iter().sum();
        assert!((s - 98000.0).abs() < 1e-6);
        assert!(t.iter().all(|d| *d > 0.0));
    }

    #[test]
    fn remap_state_restores_reference_thicknesses_and_conserves() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let l = Layout::fv3_default([4, 4, 8], [0, 0, 0]);
        let mut delp = Array3::zeros(l.clone());
        let mut pt = Array3::zeros(l.clone());
        let mut q = Array3::zeros(l);
        for j in 0..4 {
            for i in 0..4 {
                for k in 0..8 {
                    delp.set(i, j, k, rng.gen_range(500.0..1500.0));
                    pt.set(i, j, k, rng.gen_range(250.0..350.0));
                    q.set(i, j, k, rng.gen_range(0.0..1e-2));
                }
            }
        }
        let mass_pt_before: f64 = (0..8)
            .map(|k| pt.get(1, 2, k) * delp.get(1, 2, k))
            .sum();
        let col_before: f64 = (0..8).map(|k| delp.get(1, 2, k)).sum();

        remap_state(&mut delp, &mut [&mut pt, &mut q]);

        let col_after: f64 = (0..8).map(|k| delp.get(1, 2, k)).sum();
        assert!((col_before - col_after).abs() < 1e-8, "column mass kept");
        let mass_pt_after: f64 = (0..8)
            .map(|k| pt.get(1, 2, k) * delp.get(1, 2, k))
            .sum();
        assert!(
            (mass_pt_before - mass_pt_after).abs() < 1e-6 * mass_pt_before.abs(),
            "pt mass conserved"
        );
        // Thicknesses now follow the reference distribution: monotone
        // increase toward the surface with our smoothstep spacing.
        for k in 0..7i64 {
            assert!(delp.get(0, 0, k) > 0.0);
        }
        // Repeating the remap is (nearly) the identity.
        let pt_once = pt.clone();
        remap_state(&mut delp, &mut [&mut pt, &mut q]);
        assert!(pt.max_abs_diff(&pt_once) < 1e-9);
    }
}
