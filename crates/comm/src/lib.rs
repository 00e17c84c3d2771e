//! Cubed-sphere communication substrate — the MPI / halo-exchange analog.
//!
//! FV3 parallelizes with "a two-dimensional domain decomposition in the
//! horizontal dimensions using MPI library calls" over the six tiles of
//! the gnomonic cubed sphere (Section II). This crate provides that
//! substrate for the reproduction: face geometry with derived edge
//! connectivity ([`geometry`]), rank decomposition ([`partition`]), the
//! message-passing exchange the driver runs — channel plans and
//! epoch-tagged mailboxes ([`plan`]) — and its central-gather oracle
//! ([`halo`]). Ranks are simulated in-process (see DESIGN.md); the
//! packing, orientation and corner logic is the real thing, and exchange
//! statistics feed `machine::NetworkModel` for the scaling studies.

pub mod geometry;
pub mod halo;
pub mod partition;
pub mod plan;

pub use geometry::{CubeGeometry, Edge, EdgeLink, FaceFrame};
pub use halo::{rank_arrays, CornerPolicy, ExchangeStats, HaloUpdater, Orientation};
pub use partition::{HaloSource, Partition, RankId};
pub use plan::{CellTap, Channel, ExchangePlan, FoldCell, HaloMailboxes, PackField, RecvError};
