//! Savepoint translate-test harness: golden-data capture/replay with ULP
//! comparators and physical-invariant checks.
//!
//! The Python FV3 port was validated against the FORTRAN reference with
//! *translate tests*: instrument the reference with savepoints, dump the
//! fields, replay every module against the dumps under per-variable
//! tolerances. This crate is that methodology for our reproduction:
//!
//! * [`savepoint`] — capture/replay of named [`dataflow::Array3`] fields
//!   at the instrumented points of the baseline dycore step
//!   (`fv3::dyn_core::baseline_step_recorded`), and the self-describing
//!   `FV3GOLD1` binary format under `testdata/golden/`.
//! * [`compare`] — ULP-distance and relative-error comparators with
//!   per-field tolerances; failures produce a [`compare::Divergence`]
//!   naming the first failing field, its worst `(i, j, k)`, and the
//!   error magnitude.
//! * [`invariants`] — flux-corrected air-mass and tracer-mass
//!   conservation and an energy-drift bound across acoustic substeps.
//! * [`stages`] — pipeline tier enforcement: every bit-exact
//!   `fv3core::pipeline::PipelineStage` must produce bit-identical
//!   dycore state, the budgeted one state within its ULP budget.
//! * [`reference`] — the fixed seed case and the deterministic golden
//!   generator behind `cargo run -p validate --bin capture_golden`.
//!
//! See `crates/validate/README.md` for the golden-data workflow.

pub mod compare;
pub mod invariants;
pub mod reference;
pub mod savepoint;
pub mod stages;

pub use compare::{
    compare_capture, compare_field, compare_savepoint, max_ulps_per_field, rel_error,
    ulp_distance, Divergence, Tolerance, Tolerances,
};
pub use invariants::{check_finite, check_invariants, ConservationLedger, InvariantReport};
pub use savepoint::{Capture, CaptureRecorder, FieldSnapshot, Savepoint};
pub use stages::{
    capture_executed, capture_executed_distributed, check_pipeline_bit_identity, run_stage_on,
    StageOutcome,
};
