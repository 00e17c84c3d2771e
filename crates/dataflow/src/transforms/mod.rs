//! Data-centric graph transformations (Section VI).
//!
//! Every optimization in the paper's pipeline is a rewrite on the SDFG:
//!
//! * [`fusion`] — on-the-fly map fusion (OTF, fuse-by-recomputation) and
//!   subgraph fusion (SGF, common-iteration-space fusion), the two
//!   transformation families transfer tuning searches over (Section VI-B);
//! * [`local_storage`] — register caching of vertical-solver accesses and
//!   demotion of single-thread transients to locals (Section VI-A2);
//! * [`power`] — strength reduction of the power operator (Section VI-C1);
//! * [`schedule`] — schedule assignment sweeps and the region realization
//!   strategy (split kernels vs predication, Section V-A / Table III);
//! * [`tiling`] — tile sizes and the blocked working set the CPU cache model prices
//!   (Section V-A's "tiling and tile sizes in each dimension").
//!
//! Each transform checks its preconditions and re-validates the rewritten
//! kernel, returning `Err` (leaving the graph untouched) when the match
//! does not apply. What it may do to an answer is its [`Tier`], declared
//! per kind in [`tier`]: every kind but `power` is *bit-exact* (the same
//! operations on the same values in the same order: 0 ULP, which
//! `tests/transform_diff.rs` enforces); `power` is *budgeted* — it swaps
//! libm's `pow` (a < 1 ULP approximation) for `x * x` and `sqrt`
//! (correctly rounded), so the rewritten statement's value may move by a
//! few ULPs and the budget bounds by how many.

pub mod cross_state;
pub mod fusion;
pub mod local_storage;
pub mod power;
pub mod schedule;
pub mod tiling;

use crate::expr::DataId;
use crate::graph::{DataflowNode, Sdfg};

/// Summary of an applied transformation (for reports and transfer-tuning
/// pattern descriptions).
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// Transformation kind tag, e.g. `"otf"`, `"sgf"`, `"power"`.
    pub kind: &'static str,
    /// Labels of the kernels involved.
    pub labels: Vec<String>,
}

/// What a transform may do to the values a program computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Bitwise-identical output on every input.
    BitExact,
    /// Every value the transformed program writes lies within `max_ulps`
    /// units in the last place of the untransformed program's.
    Budgeted { max_ulps: u64 },
}

impl Tier {
    /// ULP distance from the untransformed program this tier allows.
    pub fn max_ulps(self) -> u64 {
        match self {
            Tier::BitExact => 0,
            Tier::Budgeted { max_ulps } => max_ulps,
        }
    }
}

/// The tier of every transform kind: the [`Applied::kind`] tags, plus
/// `"schedule"` for [`schedule::assign_schedules`] and `"pass"` for the
/// whole-graph cleanups of [`crate::passes`], which report counts. The one
/// table both `tests/transform_diff.rs` and the Table III stage check
/// (`validate::stages`) take their tolerance from. `region-prune` is
/// bit-exact on the rank it prunes for: it drops regions that rank's
/// subdomain never enters. Panics on a kind that declares none — a new
/// transform states its tier here first.
pub fn tier(kind: &str) -> Tier {
    match kind {
        "otf" | "sgf" | "state-merge" | "register-cache" | "local-demote" | "schedule"
        | "region-split" | "region-prune" | "tile" | "pass" => Tier::BitExact,
        "power" => Tier::Budgeted { max_ulps: 16 },
        other => panic!("transform kind '{other}' declares no tier"),
    }
}

/// How often each container is read/written across the whole SDFG,
/// including reads by halo exchanges and callbacks.
#[derive(Debug, Clone, Default)]
pub struct UsageMap {
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
}

impl UsageMap {
    /// Build for `sdfg`.
    pub fn build(sdfg: &Sdfg) -> Self {
        let n = sdfg.containers.len();
        let mut u = UsageMap {
            reads: vec![0; n],
            writes: vec![0; n],
        };
        for state in &sdfg.states {
            for node in &state.nodes {
                u.count(node, 1);
            }
        }
        u
    }

    /// Add (`by = 1`) or remove (`by = -1`) one node's accesses: a commit
    /// that turns two nodes into one carries the map across with three
    /// calls, and the result is what [`build`](Self::build) would count.
    pub(crate) fn count(&mut self, node: &DataflowNode, by: i32) {
        let step = |n: &mut u32| *n = n.checked_add_signed(by).expect("a node counted once");
        node.reads().into_iter().for_each(|d| step(&mut self.reads[d.0]));
        node.writes().into_iter().for_each(|d| step(&mut self.writes[d.0]));
    }

    /// Readers of `d` across the program.
    pub fn read_count(&self, d: DataId) -> u32 {
        self.reads[d.0]
    }
}

/// Whether any node strictly between `a` and `b` in the same state
/// accesses any of `fields`. Used as a safety precondition by fusions.
pub fn touches_between(sdfg: &Sdfg, state: usize, a: usize, b: usize, fields: &[DataId]) -> bool {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    sdfg.states[state].nodes[lo + 1..hi].iter().any(|n| {
        n.reads().iter().any(|d| fields.contains(d))
            || n.writes().iter().any(|d| fields.contains(d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::State;
    use crate::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    #[test]
    fn usage_map_counts_all_states() {
        let mut g = Sdfg::new("u");
        let l = Layout::new([4, 4, 2], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let b = g.add_container("b", l.clone(), true);
        let mut k1 = Kernel::new(
            "k1",
            Domain::from_shape([4, 4, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k1.stmts
            .push(Stmt::full(LValue::Field(b), Expr::load(a, 0, 0, 0)));
        let mut s1 = State::new("s1");
        s1.nodes.push(DataflowNode::Kernel(k1.clone()));
        g.add_state(s1);
        let mut s2 = State::new("s2");
        s2.nodes.push(DataflowNode::Kernel(k1));
        g.add_state(s2);

        let u = UsageMap::build(&g);
        assert_eq!(u.read_count(a), 2);
        assert_eq!(u.writes[b.0], 2);
    }

    #[test]
    fn touches_between_detects_interference() {
        let mut g = Sdfg::new("t");
        let l = Layout::new([4, 4, 2], [0, 0, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let b = g.add_container("b", l.clone(), false);
        let c = g.add_container("c", l, false);
        let mk = |name: &str, r: DataId, w: DataId| {
            let mut k = Kernel::new(
                name,
                Domain::from_shape([4, 4, 2]),
                KOrder::Parallel,
                Schedule::gpu_horizontal(),
            );
            k.stmts
                .push(Stmt::full(LValue::Field(w), Expr::load(r, 0, 0, 0)));
            DataflowNode::Kernel(k)
        };
        let mut s = State::new("s");
        s.nodes.push(mk("k0", a, b));
        s.nodes.push(mk("k1", b, c));
        s.nodes.push(mk("k2", a, c));
        g.add_state(s);
        // Node 1 (k1) reads b and writes c, so b and c interfere between
        // nodes 0 and 2 but a does not.
        assert!(touches_between(&g, 0, 0, 2, &[b]));
        assert!(touches_between(&g, 0, 0, 2, &[c]));
        assert!(!touches_between(&g, 0, 0, 2, &[a]));
        // Adjacent nodes never interfere (empty range between them).
        assert!(!touches_between(&g, 0, 0, 1, &[b]));
    }
}
