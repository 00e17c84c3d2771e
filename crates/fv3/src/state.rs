//! Prognostic model state for the dynamical core.
//!
//! The non-hydrostatic FV3 prognoses layer thickness (`delp`), potential
//! temperature (`pt`), horizontal winds (`u`, `v`), vertical velocity
//! (`w`), geometric layer depth (`delz`), and advected tracers (`q`).
//! Each rank owns one [`DycoreState`]; fields carry a 3-cell halo as the
//! production model does.

use dataflow::{Array3, Layout};

/// Halo width used by every prognostic field. The FORTRAN model uses 3;
/// our Lin-Rood transport recomputes the transverse inner update inside
/// the extended compute domain (instead of exchanging it), which costs
/// one extra halo cell — see DESIGN.md.
pub const HALO: usize = 4;

/// Names of the prognostic fields, in canonical order.
pub const PROGNOSTICS: [&str; 7] = ["delp", "pt", "u", "v", "w", "delz", "q"];

/// One rank's prognostic state.
#[derive(Debug, Clone)]
pub struct DycoreState {
    /// Horizontal cells per subdomain edge.
    pub n: usize,
    /// Vertical levels.
    pub nk: usize,
    /// Pressure thickness per layer (Pa).
    pub delp: Array3,
    /// Potential temperature (K).
    pub pt: Array3,
    /// D-grid wind, first covariant component (m/s).
    pub u: Array3,
    /// D-grid wind, second covariant component (m/s).
    pub v: Array3,
    /// Vertical velocity (m/s).
    pub w: Array3,
    /// Geometric layer thickness (m, negative by FV3 convention).
    pub delz: Array3,
    /// Specific-humidity-like tracer (kg/kg).
    pub q: Array3,
}

impl DycoreState {
    /// Zero-initialized state with the standard halo.
    pub fn zeros(n: usize, nk: usize) -> Self {
        let layout = Layout::fv3_default([n, n, nk], [HALO, HALO, 0]);
        let mk = || Array3::zeros(layout.clone());
        DycoreState {
            n,
            nk,
            delp: mk(),
            pt: mk(),
            u: mk(),
            v: mk(),
            w: mk(),
            delz: mk(),
            q: mk(),
        }
    }

    /// The shared field layout.
    pub fn layout(&self) -> Layout {
        self.delp.layout().clone()
    }

    /// Iterate `(name, field)` pairs.
    pub fn fields(&self) -> [(&'static str, &Array3); 7] {
        [
            ("delp", &self.delp),
            ("pt", &self.pt),
            ("u", &self.u),
            ("v", &self.v),
            ("w", &self.w),
            ("delz", &self.delz),
            ("q", &self.q),
        ]
    }

    /// Mutable access by name.
    pub fn field_mut(&mut self, name: &str) -> &mut Array3 {
        match name {
            "delp" => &mut self.delp,
            "pt" => &mut self.pt,
            "u" => &mut self.u,
            "v" => &mut self.v,
            "w" => &mut self.w,
            "delz" => &mut self.delz,
            "q" => &mut self.q,
            other => panic!("unknown field '{other}'"),
        }
    }

    /// Overwrite every prognostic with `src`'s, into the arrays this state
    /// already owns. A field whose array is not of `src`'s layout — moved
    /// out by a halo exchange that unwound — is reallocated instead.
    pub fn copy_from(&mut self, src: &DycoreState) {
        for (name, from) in src.fields() {
            let to = self.field_mut(name);
            if to.layout() == from.layout() {
                to.copy_from(from);
            } else {
                *to = from.clone();
            }
        }
    }

    /// Total tracer mass `sum(q * delp * area)` — conserved by transport.
    pub fn tracer_mass(&self, area: &Array3) -> f64 {
        let mut s = 0.0;
        for k in 0..self.nk as i64 {
            for j in 0..self.n as i64 {
                for i in 0..self.n as i64 {
                    s += self.q.get(i, j, k) * self.delp.get(i, j, k) * area.get(i, j, 0);
                }
            }
        }
        s
    }

    /// Total air mass `sum(delp * area)`.
    pub fn air_mass(&self, area: &Array3) -> f64 {
        let mut s = 0.0;
        for k in 0..self.nk as i64 {
            for j in 0..self.n as i64 {
                for i in 0..self.n as i64 {
                    s += self.delp.get(i, j, k) * area.get(i, j, 0);
                }
            }
        }
        s
    }

    /// Max |diff| over all prognostics vs another state (validation).
    pub fn max_abs_diff(&self, other: &DycoreState) -> f64 {
        self.fields()
            .iter()
            .zip(other.fields().iter())
            .map(|((_, a), (_, b))| a.max_abs_diff(b))
            .fold(0.0, f64::max)
    }

    /// True if any prognostic contains a non-finite value in the domain.
    pub fn has_nonfinite(&self) -> bool {
        for (_, f) in self.fields() {
            for k in 0..self.nk as i64 {
                for j in 0..self.n as i64 {
                    for i in 0..self.n as i64 {
                        if !f.get(i, j, k).is_finite() {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_allocates_consistent_layouts() {
        let s = DycoreState::zeros(8, 4);
        assert_eq!(s.layout().domain, [8, 8, 4]);
        assert_eq!(s.layout().halo, [HALO, HALO, 0]);
        for (_, f) in s.fields() {
            assert_eq!(f.layout().domain, [8, 8, 4]);
        }
    }

    #[test]
    fn field_mut_roundtrips() {
        let mut s = DycoreState::zeros(4, 2);
        s.field_mut("pt").set(1, 1, 1, 300.0);
        assert_eq!(s.pt.get(1, 1, 1), 300.0);
    }

    #[test]
    #[should_panic(expected = "unknown field")]
    fn unknown_field_panics() {
        let mut s = DycoreState::zeros(4, 2);
        s.field_mut("nope");
    }

    #[test]
    fn mass_sums_weight_by_area_and_delp() {
        let mut s = DycoreState::zeros(2, 2);
        let area = Array3::filled(Layout::fv3_default([2, 2, 1], [0, 0, 0]), 2.0);
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..2 {
                    s.delp.set(i, j, k, 10.0);
                    s.q.set(i, j, k, 0.5);
                }
            }
        }
        assert_eq!(s.air_mass(&area), 2.0 * 10.0 * 8.0);
        assert_eq!(s.tracer_mass(&area), 2.0 * 10.0 * 0.5 * 8.0);
    }

    #[test]
    fn nonfinite_detection() {
        let mut s = DycoreState::zeros(4, 2);
        assert!(!s.has_nonfinite());
        s.w.set(2, 2, 1, f64::NAN);
        assert!(s.has_nonfinite());
    }

    #[test]
    fn max_abs_diff_spans_all_fields() {
        let a = DycoreState::zeros(4, 2);
        let mut b = DycoreState::zeros(4, 2);
        b.v.set(0, 0, 0, -7.0);
        assert_eq!(a.max_abs_diff(&b), 7.0);
    }
}
