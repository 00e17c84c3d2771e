//! The SDFG-like program representation: data containers, states holding
//! dataflow nodes, and a structured control-flow skeleton.
//!
//! Mirrors the Stateful Dataflow Multigraph of Section III-B at the
//! granularity this reproduction needs: containers are named, explicitly
//! transient or not; states hold nodes in program order with dependencies
//! recoverable from read/write sets; control flow is a structured tree of
//! states and counted loops (FV3's control flow after the orchestrator's
//! constant propagation is exactly that — Section V-B, Fig. 5).

use crate::expr::{DataId, ParamId};
use crate::kernel::{Kernel, Schedule};
use crate::storage::Layout;
use std::sync::Arc;

/// A named data container.
#[derive(Debug, Clone)]
pub struct Container {
    pub name: String,
    pub layout: Layout,
    /// Transients are intermediate buffers the optimizer may remove,
    /// shrink, or replace with registers ("information on removable
    /// (transient) containers is indicated on the graph"). A store packs
    /// transients whose lifetimes do not overlap into one array
    /// ([`crate::liveness`]), so a transient's contents after a run are
    /// unspecified.
    pub transient: bool,
    /// Never written by any node of the program: its array belongs to
    /// whoever lends it to a store ([`crate::DataStore::lend_constant`]),
    /// the executor takes read access only and refuses to compile a
    /// kernel that writes it, and [`crate::reuse`] never asks for it to
    /// be cleared. Only a constant may be horizontal
    /// ([`Layout::horizontal`]): the executor refuses a kernel over any
    /// other container with a K stride of 0.
    /// Set by the program builder, never by the caller of a built program.
    pub constant: bool,
}

/// Attributes controlling how a library node expands to kernels
/// (Section V-A's schedule attribute list).
#[derive(Debug, Clone)]
pub struct ExpansionAttrs {
    /// Schedule for horizontal (parallel) computations.
    pub horizontal: Schedule,
    /// Schedule for vertical solver computations.
    pub vertical: Schedule,
    /// Fuse consecutive intervals of forward/backward solvers into a
    /// single kernel (the default fusion strategy of Section VI-A1).
    pub fuse_intervals: bool,
    /// Fuse consecutive statements with no cross-thread dependency into a
    /// single kernel at expansion time.
    pub fuse_statements: bool,
}

impl ExpansionAttrs {
    /// The naive expansion: one kernel per stencil operation, default
    /// (unoptimized) schedules — the Table III "GT4Py + DaCe (Default)"
    /// configuration.
    pub fn naive() -> Self {
        ExpansionAttrs {
            horizontal: Schedule::default_unoptimized(),
            vertical: Schedule::default_unoptimized(),
            fuse_intervals: false,
            fuse_statements: false,
        }
    }

    /// The tuned heuristics from the local-optimization sweep
    /// (Section VI-A4).
    pub fn tuned() -> Self {
        ExpansionAttrs {
            horizontal: Schedule::gpu_horizontal(),
            vertical: Schedule::gpu_vertical(),
            fuse_intervals: true,
            fuse_statements: true,
        }
    }

    /// Tuned for the CPU target (FORTRAN-style k-blocking).
    pub fn tuned_cpu() -> Self {
        ExpansionAttrs {
            horizontal: Schedule::cpu_kblocked(),
            vertical: Schedule::cpu_kblocked(),
            fuse_intervals: true,
            fuse_statements: true,
        }
    }
}

/// A coarse-grained domain-specific computation that expands to kernels —
/// the `StencilComputation` library node of Section V-A. Implemented by
/// the `stencil` crate for GT4Py-style stencils.
pub trait LibraryNode: Send + Sync {
    /// Stable label (stencil name) used for transfer-tuning patterns.
    fn label(&self) -> &str;

    /// Expand to concrete kernels under the given attributes.
    fn expand(&self, attrs: &ExpansionAttrs) -> Vec<Kernel>;

    /// Containers read (for dependency analysis before expansion).
    fn reads(&self) -> Vec<DataId>;

    /// Containers written.
    fn writes(&self) -> Vec<DataId>;
}

/// A node within a state, in program order.
#[derive(Clone)]
pub enum DataflowNode {
    /// Unexpanded stencil computation.
    Library(Arc<dyn LibraryNode>),
    /// Expanded map scope.
    Kernel(Kernel),
    /// Whole-container copy (redundant-array candidates).
    Copy { src: DataId, dst: DataId },
    /// Halo-exchange marker executed by the distributed driver; carries
    /// the fields exchanged so movement analysis sees it.
    HaloExchange { fields: Vec<DataId> },
    /// Opaque callback into the host language (Section V-B "automatic
    /// callbacks"); reads/writes conservatively pin ordering, and the
    /// `pystate` flag mirrors the `__pystate` serialization token.
    Callback {
        name: String,
        reads: Vec<DataId>,
        writes: Vec<DataId>,
    },
}

impl std::fmt::Debug for DataflowNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowNode::Library(l) => write!(f, "Library({})", l.label()),
            DataflowNode::Kernel(k) => write!(f, "Kernel({})", k.name),
            DataflowNode::Copy { src, dst } => write!(f, "Copy({src:?} -> {dst:?})"),
            DataflowNode::HaloExchange { fields } => write!(f, "HaloExchange({fields:?})"),
            DataflowNode::Callback { name, .. } => write!(f, "Callback({name})"),
        }
    }
}

impl DataflowNode {
    /// Containers this node reads.
    pub fn reads(&self) -> Vec<DataId> {
        match self {
            DataflowNode::Library(l) => l.reads(),
            DataflowNode::Kernel(k) => k.reads().into_iter().map(|(d, _)| d).collect(),
            DataflowNode::Copy { src, .. } => vec![*src],
            DataflowNode::HaloExchange { fields } => fields.clone(),
            DataflowNode::Callback { reads, .. } => reads.clone(),
        }
    }

    /// Containers this node writes.
    pub fn writes(&self) -> Vec<DataId> {
        match self {
            DataflowNode::Library(l) => l.writes(),
            DataflowNode::Kernel(k) => k.writes(),
            DataflowNode::Copy { dst, .. } => vec![*dst],
            DataflowNode::HaloExchange { fields } => fields.clone(),
            DataflowNode::Callback { writes, .. } => writes.clone(),
        }
    }

    /// Whether `self` must stay ordered before `later` (RAW, WAR or WAW
    /// hazard between the two nodes).
    #[cfg(test)]
    fn depends_before(&self, later: &DataflowNode) -> bool {
        let (r1, w1) = (self.reads(), self.writes());
        let (r2, w2) = (later.reads(), later.writes());
        w1.iter().any(|d| r2.contains(d) || w2.contains(d))
            || r1.iter().any(|d| w2.contains(d))
    }
}

/// A dataflow state: nodes executed in list order.
#[derive(Debug, Clone, Default)]
pub struct State {
    pub name: String,
    pub nodes: Vec<DataflowNode>,
}

impl State {
    /// Create an empty named state.
    pub fn new(name: impl Into<String>) -> Self {
        State {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Kernels in this state (post-expansion view).
    pub fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        self.nodes.iter().filter_map(|n| match n {
            DataflowNode::Kernel(k) => Some(k),
            _ => None,
        })
    }

    /// Number of kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels().count()
    }
}

/// Structured control flow: a sequence of states and counted loops.
#[derive(Debug, Clone)]
pub enum ControlNode {
    /// Execute one state.
    State(usize),
    /// Execute the body `trips` times (e.g. the acoustic substep loop).
    Loop { trips: u32, body: Vec<ControlNode> },
}

/// The whole program: containers + states + control tree + parameters.
#[derive(Debug)]
pub struct Sdfg {
    pub name: String,
    pub containers: Vec<Container>,
    pub states: Vec<State>,
    pub control: Vec<ControlNode>,
    pub params: Vec<String>,
    /// Process-unique identity; every `new`/`Default`/`Clone` mints a
    /// fresh one. Compiled-kernel caches are namespaced by it, so an
    /// executor reused across different (or cloned) graphs never serves
    /// stale programs.
    uid: u64,
    /// Bumped by [`Sdfg::touch`] whenever the graph is mutated in a way
    /// that can invalidate compiled kernels (transform passes, library
    /// expansion, structural edits).
    generation: u64,
}

fn next_sdfg_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for Sdfg {
    fn default() -> Self {
        Sdfg {
            name: String::new(),
            containers: Vec::new(),
            states: Vec::new(),
            control: Vec::new(),
            params: Vec::new(),
            uid: next_sdfg_uid(),
            generation: 0,
        }
    }
}

impl Clone for Sdfg {
    fn clone(&self) -> Self {
        Sdfg {
            name: self.name.clone(),
            containers: self.containers.clone(),
            states: self.states.clone(),
            control: self.control.clone(),
            params: self.params.clone(),
            // A clone is a distinct graph that can diverge independently:
            // give it its own cache namespace.
            uid: next_sdfg_uid(),
            generation: 0,
        }
    }
}

impl Sdfg {
    /// Create an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Sdfg {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Process-unique graph identity (see the `uid` field).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Mutation generation, for compiled-kernel cache invalidation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record that the graph was mutated: any compiled kernels cached
    /// against it must be recompiled. Every transform/pass that edits
    /// kernels, states, or control flow calls this.
    pub fn touch(&mut self) {
        self.generation += 1;
    }

    /// Register a container; returns its id.
    pub fn add_container(&mut self, name: impl Into<String>, layout: Layout, transient: bool) -> DataId {
        self.containers.push(Container {
            name: name.into(),
            layout,
            transient,
            constant: false,
        });
        DataId(self.containers.len() - 1)
    }

    /// Register a scalar parameter; returns its id.
    pub fn add_param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Append a state; returns its index and pushes it onto the top-level
    /// control sequence.
    pub fn add_state(&mut self, state: State) -> usize {
        self.touch();
        self.states.push(state);
        let idx = self.states.len() - 1;
        self.control.push(ControlNode::State(idx));
        idx
    }

    /// Container layout lookup for kernel profiling.
    pub fn layout_of(&self, d: DataId) -> Layout {
        self.containers[d.0].layout.clone()
    }

    /// A closure resolver usable with [`Kernel::profile`].
    pub fn layout_fn(&self) -> impl Fn(DataId) -> Layout + '_ {
        move |d| self.layout_of(d)
    }

    /// Find a container by name.
    pub fn find_container(&self, name: &str) -> Option<DataId> {
        self.containers
            .iter()
            .position(|c| c.name == name)
            .map(DataId)
    }

    /// Total kernels across all states (static count, not invocations).
    pub fn kernel_count(&self) -> usize {
        self.states.iter().map(|s| s.kernel_count()).sum()
    }

    /// Total dataflow nodes (the paper reports 26,689 for the full dycore).
    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.states.iter().map(|s| s.nodes.len()).sum()
    }

    /// State execution order with loop unrolling, as (state index,
    /// invocation count) visits in order. A state inside a loop appears
    /// once with its trip multiplier.
    pub fn state_schedule(&self) -> Vec<(usize, u32)> {
        fn walk(nodes: &[ControlNode], mult: u32, out: &mut Vec<(usize, u32)>) {
            for n in nodes {
                match n {
                    ControlNode::State(s) => out.push((*s, mult)),
                    ControlNode::Loop { trips, body } => walk(body, mult * trips, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.control, 1, &mut out);
        out
    }

    /// Expand every library node in place under `attrs`, replacing it with
    /// its kernels (Section V-A expansion).
    pub fn expand_libraries(&mut self, attrs: &ExpansionAttrs) {
        self.touch();
        for state in &mut self.states {
            let mut new_nodes = Vec::with_capacity(state.nodes.len());
            for node in state.nodes.drain(..) {
                match node {
                    DataflowNode::Library(l) => {
                        for k in l.expand(attrs) {
                            new_nodes.push(DataflowNode::Kernel(k));
                        }
                    }
                    other => new_nodes.push(other),
                }
            }
            state.nodes = new_nodes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::kernel::{Domain, KOrder, LValue, Stmt};
    use crate::storage::StorageOrder;

    fn layout() -> Layout {
        Layout::new([8, 8, 4], [2, 2, 0], StorageOrder::IContiguous, 1)
    }

    fn simple_kernel(name: &str, read: DataId, write: DataId) -> Kernel {
        let mut k = Kernel::new(
            name,
            Domain::from_shape([8, 8, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(write),
            Expr::load(read, 0, 0, 0) * Expr::c(2.0),
        ));
        k
    }

    #[test]
    fn containers_and_params_register() {
        let mut g = Sdfg::new("test");
        let a = g.add_container("a", layout(), false);
        let b = g.add_container("b", layout(), true);
        assert_eq!(a, DataId(0));
        assert_eq!(b, DataId(1));
        assert!(g.containers[1].transient);
        let p = g.add_param("dt");
        assert_eq!(p.0, 0);
        assert_eq!(g.find_container("b"), Some(b));
        assert_eq!(g.find_container("zz"), None);
    }

    #[test]
    fn dependency_detection() {
        let a = DataId(0);
        let b = DataId(1);
        let c = DataId(2);
        let k1 = DataflowNode::Kernel(simple_kernel("p", a, b));
        let k2 = DataflowNode::Kernel(simple_kernel("c", b, c));
        let k3 = DataflowNode::Kernel(simple_kernel("i", a, c));
        assert!(k1.depends_before(&k2), "RAW on b");
        assert!(k2.depends_before(&k3), "WAW on c");
        assert!(!k1.depends_before(&DataflowNode::Kernel(simple_kernel("x", a, DataId(9)))));
    }

    #[test]
    fn state_schedule_unrolls_loops() {
        let mut g = Sdfg::new("t");
        g.states.push(State::new("init"));
        g.states.push(State::new("acoustic"));
        g.states.push(State::new("remap"));
        g.control = vec![
            ControlNode::State(0),
            ControlNode::Loop {
                trips: 3,
                body: vec![
                    ControlNode::Loop {
                        trips: 2,
                        body: vec![ControlNode::State(1)],
                    },
                    ControlNode::State(2),
                ],
            },
        ];
        let sched = g.state_schedule();
        assert_eq!(sched, vec![(0, 1), (1, 6), (2, 3)]);
    }

    #[test]
    fn expand_libraries_replaces_library_nodes() {
        struct Lib;
        impl LibraryNode for Lib {
            fn label(&self) -> &str {
                "lib"
            }
            fn expand(&self, _attrs: &ExpansionAttrs) -> Vec<Kernel> {
                vec![
                    simple_kernel("k1", DataId(0), DataId(1)),
                    simple_kernel("k2", DataId(1), DataId(2)),
                ]
            }
            fn reads(&self) -> Vec<DataId> {
                vec![DataId(0)]
            }
            fn writes(&self) -> Vec<DataId> {
                vec![DataId(2)]
            }
        }
        let mut g = Sdfg::new("t");
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Library(Arc::new(Lib)));
        g.add_state(s);
        assert_eq!(g.kernel_count(), 0);
        g.expand_libraries(&ExpansionAttrs::tuned());
        assert_eq!(g.kernel_count(), 2);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn callback_pins_ordering() {
        let cb = DataflowNode::Callback {
            name: "plot".into(),
            reads: vec![DataId(0)],
            writes: vec![DataId(0)],
        };
        let k = DataflowNode::Kernel(simple_kernel("k", DataId(0), DataId(1)));
        assert!(cb.depends_before(&k));
        assert!(k.depends_before(&cb));
    }
}
