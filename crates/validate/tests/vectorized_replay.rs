//! Golden replay guard for the vectorized execution engine (ISSUE 4).
//!
//! Runs the c8L6 seed case through the tuned dycore SDFG twice — once
//! under the per-point reference tree walk and once under the tile VM — and
//! demands bit identity, with the savepoint comparator producing a
//! first-divergence report (step, field, index) on any mismatch. A
//! second test anchors the executed path to the checked-in golden
//! capture's end-of-step prognostics, so the vectorized engine cannot
//! silently drift away from the numbers the baseline reference produced.

use dataflow::exec::VmMode;
use validate::reference::{golden_path, seed_case, seed_config, SEED_STEPS};
use validate::{capture_executed, compare_capture, compare_savepoint, Capture, Tolerance, Tolerances};

#[test]
fn vectorized_path_is_bit_identical_to_scalar_on_seed_case() {
    let (state0, grid) = seed_case();
    let scalar = capture_executed(&state0, &grid, seed_config(), SEED_STEPS, VmMode::Scalar);
    let lanes = capture_executed(&state0, &grid, seed_config(), SEED_STEPS, VmMode::Lanes);
    assert_eq!(scalar.savepoints.len(), SEED_STEPS);
    assert_eq!(scalar.savepoints[0].label, "t0.state");
    // Bit identity, not approximate: the tile VM reorders nothing and
    // computes with the same scalar kernels, so 0 ULPs is the bar.
    compare_capture(&scalar, &lanes, &Tolerances::exact()).unwrap_or_else(|d| {
        panic!("tile VM diverged from the scalar reference on the seed case: {d}")
    });
    // And the run actually integrated something.
    let u0 = state0.fields()[0].1.clone();
    let u1 = scalar.savepoints[0].field("u").expect("u captured").to_array();
    assert!(
        u0.raw().iter().zip(u1.raw()).any(|(a, b)| a != b),
        "first step left u untouched"
    );
}

#[test]
fn vectorized_replay_is_deterministic() {
    let (state0, grid) = seed_case();
    let a = capture_executed(&state0, &grid, seed_config(), SEED_STEPS, VmMode::Lanes);
    let b = capture_executed(&state0, &grid, seed_config(), SEED_STEPS, VmMode::Lanes);
    assert_eq!(a.to_bytes(), b.to_bytes());
}

#[test]
fn vectorized_path_tracks_the_checked_in_golden_capture() {
    // The golden capture's `t{N}.k0.remap` savepoints hold the same
    // seven prognostic fields as `capture_executed`'s `t{N}.state`
    // (end-of-step, after vertical remap). The SDFG path iterates in a
    // different loop order than the baseline reference, so this is a
    // tight-tolerance check, not bitwise — bitwise is enforced between
    // the two VM modes above.
    let golden = Capture::load(&golden_path()).expect("golden data present");
    let (state0, grid) = seed_case();
    let lanes = capture_executed(&state0, &grid, seed_config(), SEED_STEPS, VmMode::Lanes);
    let tols = Tolerances::all(Tolerance::rel(1e-9));
    for (step, executed) in lanes.savepoints.iter().enumerate() {
        let label = format!("t{step}.k0.remap");
        let mut reference = golden
            .savepoint(&label)
            .unwrap_or_else(|| panic!("golden capture lacks {label}"))
            .clone();
        reference.label = executed.label.clone();
        compare_savepoint(&reference, executed, &tols).unwrap_or_else(|d| {
            panic!("vectorized engine drifted from golden end-of-step state: {d}")
        });
    }
}
