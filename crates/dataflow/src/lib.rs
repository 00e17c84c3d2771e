//! Data-centric program representation and optimization — the DaCe analog.
//!
//! This crate provides the Stateful-Dataflow-Multigraph-like intermediate
//! representation of the SC'22 paper's toolchain (Section III-B): programs
//! are state machines over dataflow states; stencil computations enter as
//! library nodes and expand to schedulable [`kernel::Kernel`]s; data
//! movement is queryable at exact ranges; and optimization is graph
//! rewriting ([`transforms`]). An executor ([`exec`]) lowers each kernel
//! statement to a tile program ([`bytecode`]) and runs programs numerically
//! on the host, while [`model`] prices them on the analytic machine models
//! of the `machine` crate.

pub mod bytecode;
pub mod exec;
pub mod expr;
pub mod graph;
pub mod kernel;
pub mod liveness;
pub mod model;
pub mod passes;
pub mod reuse;
pub mod snapshot;
pub mod storage;
pub mod transforms;

pub use exec::{
    CompiledKernel, DataStore, ExecHooks, ExecReport, Executor, KernelRunStats, NoHooks, VmMode,
};
pub use expr::{BinOp, CmpOp, DataId, Expr, LocalId, Offset3, ParamId, UnOp};
pub use graph::{
    Container, ControlNode, DataflowNode, ExpansionAttrs, LibraryNode, Sdfg, State,
};
pub use kernel::{
    Anchor, AxisInterval, Domain, Extent2, KOrder, Kernel, LValue, Memlet, Region2,
    RegionStrategy, Schedule, Stmt,
};
pub use model::{CostModel, KernelModel, ModelReport};
pub use storage::{Array3, Axis, Layout, StorageOrder};
