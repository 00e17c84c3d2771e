//! Orchestration, optimization pipeline, and experiment drivers — the
//! top-level crate tying the reproduction together.
//!
//! * [`driver`] — the distributed dycore: one orchestrated program per
//!   rank over the cubed sphere, with real halo exchanges between
//!   simulated ranks and the vertical-remap callback (Sections IV-C, V-B,
//!   IX);
//! * [`pipeline`] — the Fig. 7 optimization pipeline, reproducing the
//!   Table III cycle stages;
//! * [`bounds`] — the automated memory-bandwidth bounds analysis behind
//!   Fig. 10 (the paper's "17 lines of Python");
//! * [`experiments`] — shared harnesses for the evaluation binaries
//!   (Tables I–III, Figs. 10–11, the bandwidth study, JUWELS);
//! * [`checkpoint`] — crash-consistent `FV3CKPT1` checkpoint/restart
//!   (ISSUE 5; supervision policy lives in `crates/resilience`);
//! * [`parallel`] — true parallel rank execution: a rank team that posts
//!   every halo send into the mailboxes before it receives, then
//!   runs each rank's substep graph, bit-identical to the sequential
//!   schedule.

pub mod bounds;
pub mod checkpoint;
pub mod driver;
pub mod experiments;
pub mod parallel;
pub mod pipeline;

pub use bounds::{bounds_report, BoundsRow};
pub use checkpoint::{Checkpoint, CheckpointBasis};
pub use driver::{DistributedDycore, DriverConfig};
pub use parallel::{CompiledSubstep, RankSchedule};
pub use pipeline::{run_pipeline, PipelineReport, PipelineStage};
