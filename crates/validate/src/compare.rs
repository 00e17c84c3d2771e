//! Comparators for savepoint replay: ULP distance, relative error,
//! per-field tolerances, and structured divergence reports.
//!
//! The Python port's translate tests compare against FORTRAN dumps with
//! per-variable "near" tolerances; our reproduction can usually demand
//! more — bit identity ([`Tolerance::exact`]) within one platform, a few
//! ULPs across libm versions. When a comparison fails, the
//! [`Divergence`] names the first failing field, its worst logical
//! `(i, j, k)` index, and the error magnitude in both ULPs and relative
//! terms — the information needed to bisect which dycore module drifted.

use crate::savepoint::{Capture, FieldSnapshot, Savepoint};
use std::collections::BTreeMap;
use std::fmt;

/// Distance between two doubles in units in the last place, under the
/// usual monotone mapping of the f64 bit patterns onto a signed line.
/// Equal values (including `-0.0` vs `0.0`) are 0; any NaN on either
/// side is `u64::MAX` unless both are bitwise-equal NaNs.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map bits to a monotone signed integer line: positive floats map to
    // [0, 2^63), negatives mirror below zero.
    fn rank(x: f64) -> i128 {
        let b = x.to_bits();
        if b >> 63 == 0 {
            b as i128
        } else {
            -((b & 0x7FFF_FFFF_FFFF_FFFF) as i128)
        }
    }
    let d = rank(a) - rank(b);
    d.unsigned_abs().min(u64::MAX as u128) as u64
}

/// Relative error `|a - b| / max(|a|, |b|)`; 0 for equal values, infinity
/// when exactly one side is non-finite.
pub fn rel_error(a: f64, b: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0.0;
    }
    if !a.is_finite() || !b.is_finite() {
        return f64::INFINITY;
    }
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Acceptance threshold for one field: a comparison passes if the ULP
/// distance *or* the relative error is within bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum acceptable ULP distance.
    pub max_ulps: u64,
    /// Maximum acceptable relative error.
    pub max_rel: f64,
}

impl Tolerance {
    /// Bit identity: 0 ULPs, no relative slack.
    pub fn exact() -> Self {
        Tolerance {
            max_ulps: 0,
            max_rel: 0.0,
        }
    }

    /// A few ULPs — absorbs libm differences across platforms while
    /// still catching any real numerical change.
    pub fn ulps(n: u64) -> Self {
        Tolerance {
            max_ulps: n,
            max_rel: 0.0,
        }
    }

    /// Relative-error tolerance (the translate-test "near" mode).
    pub fn rel(r: f64) -> Self {
        Tolerance {
            max_ulps: 0,
            max_rel: r,
        }
    }

    /// Whether `(expected, actual)` is acceptable.
    pub fn accepts(&self, expected: f64, actual: f64) -> bool {
        ulp_distance(expected, actual) <= self.max_ulps
            || rel_error(expected, actual) <= self.max_rel
    }
}

/// Per-field tolerance table with a default.
#[derive(Debug, Clone)]
pub struct Tolerances {
    default: Tolerance,
    per_field: BTreeMap<String, Tolerance>,
}

impl Tolerances {
    /// All fields use `default`.
    pub fn all(default: Tolerance) -> Self {
        Tolerances {
            default,
            per_field: BTreeMap::new(),
        }
    }

    /// Bit identity everywhere.
    pub fn exact() -> Self {
        Tolerances::all(Tolerance::exact())
    }

    /// Override the tolerance for one field.
    pub fn with_field(mut self, name: &str, tol: Tolerance) -> Self {
        self.per_field.insert(name.to_string(), tol);
        self
    }

    /// The tolerance applying to `field`.
    pub fn for_field(&self, field: &str) -> Tolerance {
        self.per_field.get(field).copied().unwrap_or(self.default)
    }
}

/// A failed comparison: the first failing field and its worst element.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Savepoint label the failure occurred at.
    pub savepoint: String,
    /// First field (in savepoint order) that exceeded its tolerance.
    pub field: String,
    /// Logical index of the worst (largest-ULP) failing element.
    pub index: (i64, i64, i64),
    /// Reference value there.
    pub expected: f64,
    /// Replayed value there.
    pub actual: f64,
    /// ULP distance at the worst element.
    pub ulps: u64,
    /// Relative error at the worst element.
    pub rel: f64,
    /// Number of elements of the field outside tolerance.
    pub failing: usize,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (i, j, k) = self.index;
        write!(
            f,
            "savepoint '{}': field '{}' diverges at ({i}, {j}, {k}): \
             expected {:e}, got {:e} ({} ulps, rel {:.3e}; {} elements out of tolerance)",
            self.savepoint, self.field, self.expected, self.actual, self.ulps, self.rel,
            self.failing
        )
    }
}

/// Largest [`ulp_distance`] between two savepoints' values, per field in
/// capture order: the observed figure a budgeted comparison is held to.
pub fn max_ulps_per_field(expected: &Savepoint, actual: &Savepoint) -> Vec<(String, u64)> {
    assert_eq!(expected.fields.len(), actual.fields.len(), "field count mismatch");
    let worst = |e: &FieldSnapshot, a: &FieldSnapshot| {
        assert_eq!((&e.name, e.values.len()), (&a.name, a.values.len()));
        let pairs = e.values.iter().zip(&a.values);
        pairs.map(|(&x, &y)| ulp_distance(x, y)).max().unwrap_or(0)
    };
    let pairs = expected.fields.iter().zip(&actual.fields);
    pairs.map(|(e, a)| (e.name.clone(), worst(e, a))).collect()
}

/// Compare one field snapshot pair. On failure, reports the worst
/// (largest ULP distance, ties broken by relative error) failing element.
pub fn compare_field(
    savepoint: &str,
    expected: &FieldSnapshot,
    actual: &FieldSnapshot,
    tol: Tolerance,
) -> Result<(), Divergence> {
    assert_eq!(
        expected.domain, actual.domain,
        "field '{}': domain mismatch",
        expected.name
    );
    assert_eq!(
        expected.halo, actual.halo,
        "field '{}': halo mismatch",
        expected.name
    );
    let mut worst: Option<(usize, u64, f64)> = None;
    let mut failing = 0usize;
    for (idx, (&e, &a)) in expected.values.iter().zip(&actual.values).enumerate() {
        if tol.accepts(e, a) {
            continue;
        }
        failing += 1;
        let u = ulp_distance(e, a);
        let r = rel_error(e, a);
        let beats = match worst {
            None => true,
            Some((_, wu, wr)) => u > wu || (u == wu && r > wr),
        };
        if beats {
            worst = Some((idx, u, r));
        }
    }
    match worst {
        None => Ok(()),
        Some((idx, ulps, rel)) => Err(Divergence {
            savepoint: savepoint.to_string(),
            field: expected.name.clone(),
            index: expected.index_of(idx),
            expected: expected.values[idx],
            actual: actual.values[idx],
            ulps,
            rel,
            failing,
        }),
    }
}

/// Compare two savepoints field-by-field, failing on the *first* field
/// (in capture order) that exceeds its tolerance.
pub fn compare_savepoint(
    expected: &Savepoint,
    actual: &Savepoint,
    tols: &Tolerances,
) -> Result<(), Divergence> {
    assert_eq!(expected.label, actual.label, "savepoint label mismatch");
    assert_eq!(
        expected.fields.len(),
        actual.fields.len(),
        "savepoint '{}': field count mismatch",
        expected.label
    );
    for (e, a) in expected.fields.iter().zip(&actual.fields) {
        assert_eq!(e.name, a.name, "savepoint '{}': field order", expected.label);
        compare_field(&expected.label, e, a, tols.for_field(&e.name))?;
    }
    Ok(())
}

/// Compare two whole captures savepoint-by-savepoint, in order.
pub fn compare_capture(
    expected: &Capture,
    actual: &Capture,
    tols: &Tolerances,
) -> Result<(), Divergence> {
    assert_eq!(
        expected.savepoints.len(),
        actual.savepoints.len(),
        "capture length mismatch: {} vs {} savepoints",
        expected.savepoints.len(),
        actual.savepoints.len()
    );
    for (e, a) in expected.savepoints.iter().zip(&actual.savepoints) {
        compare_savepoint(e, a, tols)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{Array3, Layout};

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(-1.0, f64::from_bits((-1.0f64).to_bits() + 3)), 3);
        // Across zero: distance adds the two sides.
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0, "same-bits NaN");
    }

    #[test]
    fn rel_error_basics() {
        assert_eq!(rel_error(2.0, 2.0), 0.0);
        assert!((rel_error(100.0, 101.0) - 1.0 / 101.0).abs() < 1e-15);
        assert_eq!(rel_error(1.0, f64::INFINITY), f64::INFINITY);
        assert_eq!(rel_error(f64::NAN, f64::NAN), 0.0);
    }

    #[test]
    fn tolerance_accepts_either_criterion() {
        let next = f64::from_bits(1.0f64.to_bits() + 1);
        assert!(Tolerance::exact().accepts(1.0, 1.0));
        assert!(!Tolerance::exact().accepts(1.0, next));
        assert!(Tolerance::ulps(1).accepts(1.0, next));
        assert!(Tolerance::rel(1e-6).accepts(1000.0, 1000.0005));
        assert!(!Tolerance::rel(1e-9).accepts(1000.0, 1000.0005));
    }

    fn snap(name: &str, f: impl Fn(i64, i64, i64) -> f64) -> FieldSnapshot {
        let l = Layout::fv3_default([4, 3, 2], [1, 1, 0]);
        FieldSnapshot::capture(name, &Array3::from_fn(l, f))
    }

    #[test]
    fn perturbed_field_is_flagged_at_the_right_index() {
        let base = |i: i64, j: i64, k: i64| 1.0 + i as f64 + 10.0 * j as f64 + 100.0 * k as f64;
        let e = snap("pt", base);
        // Perturb two elements; (2, 1, 1) is the larger error.
        let a = snap("pt", |i, j, k| {
            let v = base(i, j, k);
            if (i, j, k) == (2, 1, 1) {
                v + 1e-3
            } else if (i, j, k) == (0, 0, 0) {
                v + 1e-9
            } else {
                v
            }
        });
        let d = compare_field("sp", &e, &a, Tolerance::exact()).unwrap_err();
        assert_eq!(d.field, "pt");
        assert_eq!(d.index, (2, 1, 1));
        assert_eq!(d.failing, 2);
        assert_eq!(d.expected, base(2, 1, 1));
        assert!((d.actual - (base(2, 1, 1) + 1e-3)).abs() < 1e-12);
        assert!(d.ulps > 0 && d.rel > 0.0);
        let msg = d.to_string();
        assert!(msg.contains("'pt'") && msg.contains("(2, 1, 1)"), "{msg}");
    }

    #[test]
    fn savepoint_compare_reports_first_failing_field() {
        let e = Savepoint {
            label: "k0.s0.d_sw".into(),
            fields: vec![snap("u", |i, _, _| i as f64), snap("v", |_, j, _| j as f64)],
        };
        let mut a = e.clone();
        // Break both fields; the report must name `u` (first in order).
        a.fields[0].values[5] += 1.0;
        a.fields[1].values[3] += 1.0;
        let d = compare_savepoint(&e, &a, &Tolerances::exact()).unwrap_err();
        assert_eq!(d.field, "u");
        assert_eq!(d.savepoint, "k0.s0.d_sw");
    }

    #[test]
    fn per_field_tolerances_apply() {
        let e = Savepoint {
            label: "x".into(),
            fields: vec![snap("q", |_, _, _| 1.0)],
        };
        let mut a = e.clone();
        // Perturb a compute-domain element (halo values are zero, where
        // relative tolerance has nothing to scale by).
        let idx = (0..e.fields[0].values.len())
            .find(|&i| e.fields[0].in_domain(i))
            .unwrap();
        a.fields[0].values[idx] = 1.0 + 1e-10;
        assert!(compare_savepoint(&e, &a, &Tolerances::exact()).is_err());
        let tols = Tolerances::exact().with_field("q", Tolerance::rel(1e-9));
        assert!(compare_savepoint(&e, &a, &tols).is_ok());
    }

    #[test]
    fn identical_captures_compare_clean() {
        let e = Capture {
            savepoints: vec![Savepoint {
                label: "a".into(),
                fields: vec![snap("w", |i, j, k| (i * j + k) as f64 * 0.1)],
            }],
        };
        assert!(compare_capture(&e, &e.clone(), &Tolerances::exact()).is_ok());
    }
}
