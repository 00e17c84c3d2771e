//! Vertical Lagrangian-to-Eulerian remapping (the green hexagon of
//! Fig. 2).
//!
//! After the acoustic substeps deform the Lagrangian surfaces, each
//! column is conservatively remapped back to the reference coordinate.
//! The overlap search is inherently a data-dependent loop per column —
//! one of the code shapes GT4Py cannot express (no variable offsets,
//! Section IV-D). The Python port ran such pieces through the
//! orchestrator's **callback** mechanism (Section V-B); we do the same:
//! [`remap_state`] is host code invoked via a `Callback` node, and it
//! doubles as the FORTRAN-style baseline.
//!
//! Reconstruction is piecewise-constant (first-order), which makes
//! conservation exact and monotonicity trivial — higher-order PPM remap
//! is listed as future work in DESIGN.md.

use crate::grid::{reference_level, reference_pressure};
use crate::init::constants::{P0, PTOP};
use dataflow::Array3;

/// How one column's source layers overlap its target layers: for every
/// target layer the `(mass taken, source layer)` pairs in the order the
/// walk meets them. The walk reads thicknesses only, so one overlap
/// serves every field of the column.
#[derive(Default)]
struct Overlap {
    /// All target layers' pairs back to back.
    takes: Vec<(f64, usize)>,
    /// Where each target layer's run of `takes` ends.
    ends: Vec<usize>,
}

impl Overlap {
    /// Walk the source layers once for the given target thicknesses.
    /// Source and target must span the same total within round-off; a
    /// tail the source no longer covers takes the last layer's value.
    fn build(&mut self, src_dp: &[f64], dst_dp: &[f64]) {
        self.takes.clear();
        self.ends.clear();
        let last = src_dp.len().saturating_sub(1);
        let mut k_src = 0usize;
        // Mass remaining in the current source layer.
        let mut avail = src_dp.first().copied().unwrap_or(0.0);
        for &need_total in dst_dp {
            let mut need = need_total;
            while need > 0.0 {
                if k_src >= src_dp.len() {
                    self.takes.push((need, last));
                    break;
                }
                let take = need.min(avail);
                self.takes.push((take, k_src));
                need -= take;
                avail -= take;
                if avail <= 1e-30 {
                    k_src += 1;
                    avail = src_dp.get(k_src).copied().unwrap_or(0.0);
                }
                if take <= 0.0 && avail <= 0.0 && k_src >= src_dp.len() {
                    break;
                }
            }
            self.ends.push(self.takes.len());
        }
    }

    /// Target mean values of one field: `put(k, mean)` per target layer.
    /// An empty source column reads as zero.
    fn apply(&self, src_val: &[f64], dst_dp: &[f64], mut put: impl FnMut(usize, f64)) {
        let mut start = 0;
        for (k, (&end, &need_total)) in self.ends.iter().zip(dst_dp).enumerate() {
            let mut acc = 0.0;
            for &(take, s) in &self.takes[start..end] {
                acc += take * src_val.get(s).copied().unwrap_or(0.0);
            }
            start = end;
            put(k, if need_total > 0.0 { acc / need_total } else { 0.0 });
        }
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
    let mut overlap = Overlap::default();
    overlap.build(src_dp, dst_dp);
    let mut out = vec![0.0; dst_dp.len()];
    overlap.apply(src_val, dst_dp, |k, v| out[k] = v);
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
/// (reference thicknesses); `fields` are remapped in place. Nothing is
/// allocated per column: the overlap of a column is found once and
/// applied to every field.
pub fn remap_state(delp: &mut Array3, fields: &mut [&mut Array3]) {
    let [ni, nj, nk] = delp.layout().domain;
    let mut targets = Targets::new(nk);
    let mut overlap = Overlap::default();
    let mut src_dp = vec![0.0f64; nk];
    let mut dst_dp = vec![0.0f64; nk];
    let mut src_val = vec![0.0f64; nk];
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
            overlap.build(&src_dp, &dst_dp);
            for f in fields.iter_mut() {
                let (at, sk) = f.column(i, j);
                let raw = f.raw_mut();
                for (k, v) in src_val.iter_mut().enumerate() {
                    *v = raw[at + k * sk];
                }
                overlap.apply(&src_val, &dst_dp, |k, v| raw[at + k * sk] = v);
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
