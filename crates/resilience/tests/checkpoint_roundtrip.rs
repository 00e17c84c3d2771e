//! Property tests for the `FV3CKPT1` round trip (ISSUE 5, satellite c):
//! capture → encode → decode → restore must be 0 ULP across storage
//! orders, halo widths, alignments, and special values (NaN payloads,
//! ±inf, -0.0, subnormals).

use dataflow::snapshot::{FieldSnapshot, Reader};
use dataflow::storage::StorageOrder;
use dataflow::{Array3, Layout};
use fv3core::checkpoint::Checkpoint;
use fv3core::{DistributedDycore, DriverConfig};
use proptest::prelude::*;

fn order_strategy() -> impl Strategy<Value = StorageOrder> {
    prop_oneof![
        Just(StorageOrder::IContiguous),
        Just(StorageOrder::KContiguous),
        Just(StorageOrder::JContiguous),
    ]
}

/// f64 bit patterns that stress bit-exactness: ordinary values plus
/// every special class (the range entry repeats to weight it up).
fn value_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e30..1e30f64,
        -1e30..1e30f64,
        -1e30..1e30f64,
        Just(f64::NAN),
        Just(f64::from_bits(0x7ff8_dead_beef_0001)), // NaN payload
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::MIN_POSITIVE / 2.0), // subnormal
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn field_snapshot_roundtrip_is_zero_ulp(
        order in order_strategy(),
        ni in 1usize..6,
        nj in 1usize..6,
        nk in 1usize..4,
        hi in 0usize..3,
        hj in 0usize..3,
        alignment in prop_oneof![Just(1usize), Just(8usize)],
        values in proptest::collection::vec(value_strategy(), 1..256),
    ) {
        let layout = Layout::new([ni, nj, nk], [hi, hj, 0], order, alignment);
        let mut a = Array3::zeros(layout);
        // Fill every logical cell (halo included) from the value pool.
        let total = (ni + 2 * hi) * (nj + 2 * hj) * nk;
        let logical: Vec<f64> =
            (0..total).map(|n| values[n % values.len()]).collect();
        a.import_logical(&logical);

        let snap = FieldSnapshot::capture("delp", &a);
        let mut bytes = Vec::new();
        snap.encode(&mut bytes);
        let back = FieldSnapshot::decode(&mut Reader::new(&bytes)).unwrap();

        prop_assert_eq!(back.domain, [ni, nj, nk]);
        prop_assert_eq!(back.halo, [hi, hj, 0]);
        prop_assert_eq!(back.values.len(), snap.values.len());
        for (x, y) in snap.values.iter().zip(&back.values) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "0 ULP required");
        }
        // Checksums survive the trip; restored array matches bit-for-bit
        // regardless of the source storage order (to_array uses the
        // default layout).
        prop_assert_eq!(snap.checksum(), back.checksum());
        let restored = back.to_array();
        for (x, y) in a.export_logical().iter().zip(&restored.export_logical()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn corrupting_any_value_byte_changes_the_checksum(
        flip_bit in 0u8..8,
        victim in 0usize..64,
        values in proptest::collection::vec(-1e12..1e12f64, 64),
    ) {
        let layout = Layout::fv3_default([4, 4, 4], [0, 0, 0]);
        let mut a = Array3::zeros(layout);
        a.import_logical(&values);
        let snap = FieldSnapshot::capture("pt", &a);
        let before = snap.checksum();
        let mut tampered = snap.clone();
        let bits = tampered.values[victim].to_bits() ^ (1u64 << flip_bit);
        tampered.values[victim] = f64::from_bits(bits);
        prop_assert_ne!(before, tampered.checksum());
    }
}

/// Full-checkpoint round trip on a stepped dycore, bit-for-bit.
#[test]
fn dycore_checkpoint_roundtrip_after_steps() {
    let cfg = DriverConfig::six_rank(
        8,
        3,
        fv3::dyn_core::DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    let mut d = DistributedDycore::new(cfg, &dataflow::graph::ExpansionAttrs::tuned());
    d.step();
    d.step();
    let ck = Checkpoint::capture(&d);
    assert_eq!(ck.step, 2);
    let back = Checkpoint::from_bytes(&ck.to_bytes()).expect("decode");
    assert_eq!(back.step, 2);
    assert_eq!(back.states.len(), 6);
    for (a, b) in ck.states.iter().zip(back.states.iter()) {
        for ((na, fa), (nb, fb)) in a.fields().iter().zip(b.fields().iter()) {
            assert_eq!(na, nb);
            let (va, vb) = (fa.export_logical(), fb.export_logical());
            for (x, y) in va.iter().zip(&vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "field {na}");
            }
        }
    }
}
