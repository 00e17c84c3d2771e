//! The vertical remap against its pre-rewrite self, to the last bit.
//!
//! `remap_state` walks a column's source/target overlap once and
//! advances every field's sum at each pair it meets, on raw strided
//! columns; `remap_column` and `target_thicknesses` wrap the same core. The reference below is the
//! implementation they replaced — one `Vec` per column per field, `get`/
//! `set` per element — kept here verbatim as the oracle.

use dataflow::storage::{Array3, Layout, StorageOrder};
use fv3::init::constants::{P0, PTOP};
use fv3::remapping::{remap_column, remap_state, target_thicknesses};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};

fn old_remap_column(src_dp: &[f64], src_val: &[f64], dst_dp: &[f64]) -> Vec<f64> {
    assert_eq!(src_dp.len(), src_val.len());
    let mut out = Vec::with_capacity(dst_dp.len());
    let mut k_src = 0usize;
    let mut avail = src_dp.first().copied().unwrap_or(0.0);
    for &need_total in dst_dp {
        let mut need = need_total;
        let mut acc = 0.0;
        while need > 0.0 {
            if k_src >= src_dp.len() {
                acc += need * src_val.last().copied().unwrap_or(0.0);
                break;
            }
            let take = need.min(avail);
            acc += take * src_val[k_src];
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
        out.push(if need_total > 0.0 {
            acc / need_total
        } else {
            0.0
        });
    }
    out
}

fn old_reference_pressures(nk: usize, p_top: f64, p_surf: f64) -> Vec<f64> {
    (0..=nk)
        .map(|k| {
            let x = k as f64 / nk as f64;
            p_top + (p_surf - p_top) * x * x * (3.0 - 2.0 * x).max(0.2)
        })
        .collect()
}

fn old_target_thicknesses(nk: usize, p_top: f64, column_mass: f64) -> Vec<f64> {
    let p_ref = old_reference_pressures(nk, p_top, p_top + column_mass * (P0 - PTOP) / (P0 - PTOP));
    let total: f64 = (0..nk).map(|k| p_ref[k + 1] - p_ref[k]).sum();
    (0..nk)
        .map(|k| (p_ref[k + 1] - p_ref[k]) * column_mass / total)
        .collect()
}

fn old_remap_state(delp: &mut Array3, fields: &mut [&mut Array3]) {
    let [ni, nj, nk] = delp.layout().domain;
    let mut src_dp = vec![0.0f64; nk];
    let mut src_val = vec![0.0f64; nk];
    for j in 0..nj as i64 {
        for i in 0..ni as i64 {
            for (k, v) in src_dp.iter_mut().enumerate() {
                *v = delp.get(i, j, k as i64);
            }
            let mass: f64 = src_dp.iter().sum();
            let dst_dp = old_target_thicknesses(nk, PTOP, mass);
            for f in fields.iter_mut() {
                for (k, v) in src_val.iter_mut().enumerate() {
                    *v = f.get(i, j, k as i64);
                }
                let new = old_remap_column(&src_dp, &src_val, &dst_dp);
                for (k, v) in new.iter().enumerate() {
                    f.set(i, j, k as i64, *v);
                }
            }
            for (k, v) in dst_dp.iter().enumerate() {
                delp.set(i, j, k as i64, *v);
            }
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Equal bits, except that a NaN matches any NaN: where two NaNs of
/// different bits meet in one add, which one it hands on is the
/// compiler's choice per call site.
fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// A field value that is NaN, +inf or -inf now and then.
fn poisoned_value(r: &mut SmallRng) -> f64 {
    match r.gen_range(0..40) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => r.gen_range(-300.0..300.0),
    }
}

const ORDERS: [StorageOrder; 3] = [
    StorageOrder::IContiguous,
    StorageOrder::KContiguous,
    StorageOrder::JContiguous,
];

/// A field with its own storage order, halo and alignment, filled (halo
/// included) by `f`.
fn random_field(
    rng: &mut SmallRng,
    shape: [usize; 3],
    mut f: impl FnMut(&mut SmallRng) -> f64,
) -> Array3 {
    let halo = [rng.gen_range(0..3), rng.gen_range(0..3), 0];
    let order = ORDERS[rng.gen_range(0..3)];
    let mut a = Array3::zeros(Layout::new(
        shape,
        halo,
        order,
        [1, 8, 32][rng.gen_range(0..3)],
    ));
    for v in a.raw_mut() {
        *v = f(rng);
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whole states: every storage order, 1 to 32 layers, thickness
    /// ratios up to 40 between neighbouring layers, one to eight fields
    /// (more than one walk's group of five).
    #[test]
    fn remap_state_matches_the_column_by_column_reference(
        ni in 1usize..5,
        nj in 1usize..5,
        nk in 1usize..33,
        n_fields in 1usize..9,
        seed in 0u64..1u64 << 48,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = [ni, nj, nk];
        let mut delp = random_field(&mut rng, shape, |r| {
            r.gen_range(50.0..2000.0) * if r.gen_bool(0.2) { 0.05 } else { 1.0 }
        });
        let mut fields: Vec<Array3> = (0..n_fields)
            .map(|_| random_field(&mut rng, shape, |r| r.gen_range(-300.0..300.0)))
            .collect();
        let mut ref_delp = delp.clone();
        let mut ref_fields = fields.clone();

        remap_state(&mut delp, &mut fields.iter_mut().collect::<Vec<_>>());
        old_remap_state(&mut ref_delp, &mut ref_fields.iter_mut().collect::<Vec<_>>());

        prop_assert_eq!(bits(delp.raw()), bits(ref_delp.raw()), "delp");
        for (n, (a, b)) in fields.iter().zip(&ref_fields).enumerate() {
            prop_assert_eq!(bits(a.raw()), bits(b.raw()), "field {}", n);
        }
    }

    /// Single columns, where source and target need not be the dycore's:
    /// different lengths, a target longer than the source by round-off or
    /// by a whole layer (the clamped tail), zero-thickness targets.
    #[test]
    fn remap_column_matches_the_old_walk(
        n_src in 0usize..33,
        n_dst in 0usize..33,
        stretch in prop_oneof![Just(1.0), Just(1.0 + 1e-15), Just(1.0 - 1e-15), Just(1.3), Just(0.7)],
        seed in 0u64..1u64 << 48,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src_dp: Vec<f64> = (0..n_src).map(|_| rng.gen_range(0.01..2.0)).collect();
        let src_val: Vec<f64> = (0..n_src).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut dst_dp: Vec<f64> = (0..n_dst)
            .map(|_| if rng.gen_bool(0.15) { 0.0 } else { rng.gen_range(0.01..2.0) })
            .collect();
        let (total, dsum): (f64, f64) = (src_dp.iter().sum(), dst_dp.iter().sum());
        if dsum > 0.0 {
            dst_dp.iter_mut().for_each(|d| *d *= stretch * total / dsum);
        }
        prop_assert_eq!(
            bits(&remap_column(&src_dp, &src_val, &dst_dp)),
            bits(&old_remap_column(&src_dp, &src_val, &dst_dp))
        );
    }

    #[test]
    fn target_thicknesses_match_the_old_formula(
        nk in 1usize..33,
        p_top in 0.0f64..1000.0,
        mass in 0.0f64..120000.0,
    ) {
        prop_assert_eq!(
            bits(&target_thicknesses(nk, p_top, mass)),
            bits(&old_target_thicknesses(nk, p_top, mass))
        );
    }

    /// Poisoned and degenerate states, as the blowup path remaps them
    /// before the health check looks: NaN and ±inf in the fields, `delp`
    /// columns with a NaN layer or no mass at all, and zero-thickness
    /// source layers.
    #[test]
    fn remap_state_matches_the_reference_on_poisoned_columns(
        ni in 1usize..4,
        nj in 1usize..4,
        nk in 1usize..17,
        n_fields in 1usize..9,
        seed in 0u64..1u64 << 48,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shape = [ni, nj, nk];
        let mut delp = random_field(&mut rng, shape, |r| match r.gen_range(0..20) {
            0 => f64::NAN,
            1..=3 => 0.0,
            _ => r.gen_range(50.0..2000.0),
        });
        for j in 0..nj as i64 {
            for i in 0..ni as i64 {
                if rng.gen_bool(0.2) {
                    for k in 0..nk as i64 {
                        delp.set(i, j, k, 0.0);
                    }
                }
            }
        }
        let mut fields: Vec<Array3> = (0..n_fields)
            .map(|_| random_field(&mut rng, shape, poisoned_value))
            .collect();
        let mut ref_delp = delp.clone();
        let mut ref_fields = fields.clone();

        remap_state(&mut delp, &mut fields.iter_mut().collect::<Vec<_>>());
        old_remap_state(&mut ref_delp, &mut ref_fields.iter_mut().collect::<Vec<_>>());

        prop_assert!(same(delp.raw(), ref_delp.raw()), "delp");
        for (n, (a, b)) in fields.iter().zip(&ref_fields).enumerate() {
            prop_assert!(same(a.raw(), b.raw()), "field {}", n);
        }
    }

    /// Single columns with zero-thickness source layers and NaN or ±inf
    /// values.
    #[test]
    fn remap_column_matches_the_old_walk_on_poisoned_columns(
        n_src in 0usize..17,
        n_dst in 0usize..17,
        seed in 0u64..1u64 << 48,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let src_dp: Vec<f64> = (0..n_src)
            .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(0.01..2.0) })
            .collect();
        let src_val: Vec<f64> = (0..n_src).map(|_| poisoned_value(&mut rng)).collect();
        let mut dst_dp: Vec<f64> = (0..n_dst).map(|_| rng.gen_range(0.01..2.0)).collect();
        let (total, dsum): (f64, f64) = (src_dp.iter().sum(), dst_dp.iter().sum());
        if dsum > 0.0 {
            dst_dp.iter_mut().for_each(|d| *d *= total / dsum);
        }
        prop_assert!(same(
            &remap_column(&src_dp, &src_val, &dst_dp),
            &old_remap_column(&src_dp, &src_val, &dst_dp)
        ));
    }
}
