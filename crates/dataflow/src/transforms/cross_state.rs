//! Cross-module fusion: fusing producer/consumer kernels *across state
//! boundaries* (Section VI-B taken one level up).
//!
//! The dycore builder emits one state per module (`c_sw`, `riem_solver_c`,
//! `d_sw`, the tracer transport, …), so the per-state fusion transforms in
//! [`fusion`](super::fusion) can never see a producer in one module and its
//! consumer in the next. This pass closes that gap in two steps:
//!
//! 1. `merge_adjacent_states` — a structural rewrite that concatenates two
//!    states into one. It is legal exactly when every occurrence of the two
//!    states in the control tree is an adjacent `first, first+1` pair inside
//!    the same loop body: execution then interleaves nothing between them,
//!    and the flattened node order (hence program semantics, bit for bit)
//!    is unchanged.
//! 2. `fuse_across_states` — merges a state pair that has a
//!    producer→consumer link (a container written by the first and read by
//!    the second) and then applies the ordinary access-set-checked OTF/SGF
//!    transforms across the old seam. The merge is committed only if at
//!    least one cross-boundary kernel fusion lands, so a failed match
//!    leaves the graph untouched.
//!
//! Both steps reuse the existing legality machinery (`UsageMap`,
//! `touches_between`, `validate_kernel` via the fusion transforms), and both
//! are bit-exact: state merging is a pure reordering no-op, and OTF/SGF
//! preserve per-point arithmetic and evaluation order.

use crate::graph::{ControlNode, Sdfg};
use crate::transforms::fusion::{plan_otf, plan_subgraph, TransformResult};
use crate::transforms::{Applied, UsageMap};

/// Whether every occurrence of `first` and `first + 1` in the control tree
/// is an adjacent `[State(first), State(first+1)]` pair in the same body.
fn occurrences_pair_up(nodes: &[ControlNode], first: usize) -> bool {
    let second = first + 1;
    let mut i = 0;
    while i < nodes.len() {
        match &nodes[i] {
            ControlNode::State(s) if *s == first => {
                match nodes.get(i + 1) {
                    Some(ControlNode::State(n)) if *n == second => i += 2,
                    _ => return false,
                }
            }
            ControlNode::State(s) if *s == second => return false, // unpaired
            ControlNode::State(_) => i += 1,
            ControlNode::Loop { body, .. } => {
                if !occurrences_pair_up(body, first) {
                    return false;
                }
                i += 1;
            }
        }
    }
    true
}

/// Drop the `State(first + 1)` entries that follow `State(first)` and
/// re-index every state reference above the removed slot.
fn rewrite_control(nodes: &mut Vec<ControlNode>, first: usize) {
    let second = first + 1;
    let mut out = Vec::with_capacity(nodes.len());
    for mut n in nodes.drain(..) {
        match &mut n {
            ControlNode::State(s) => {
                if *s == second {
                    continue; // merged into `first`
                }
                if *s > second {
                    *s -= 1;
                }
                out.push(n);
            }
            ControlNode::Loop { body, .. } => {
                rewrite_control(body, first);
                out.push(n);
            }
        }
    }
    *nodes = out;
}

/// Merge state `first + 1` into state `first`, concatenating its nodes.
///
/// Preconditions (all checked):
/// * both state indices exist;
/// * every control occurrence of the two states is an adjacent
///   `first, first+1` pair in the same body (so the flattened execution
///   order — and therefore every float operation — is unchanged).
///
/// The merged state is named `"{a}+{b}"`. All later state indices shift
/// down by one; the graph generation is bumped.
fn merge_adjacent_states(sdfg: &mut Sdfg, first: usize) -> TransformResult {
    sdfg.touch();
    let second = first + 1;
    if second >= sdfg.states.len() {
        return Err(format!("state {second} out of range"));
    }
    if !occurrences_pair_up(&sdfg.control, first) {
        return Err(format!(
            "states {first} and {second} are not adjacent in every control occurrence"
        ));
    }
    let b = sdfg.states.remove(second);
    let a = &mut sdfg.states[first];
    let labels = vec![a.name.clone(), b.name.clone()];
    a.name = format!("{}+{}", a.name, b.name);
    a.nodes.extend(b.nodes);
    rewrite_control(&mut sdfg.control, first);
    Ok(Applied {
        kind: "state-merge",
        labels,
    })
}

/// Fuse producer/consumer kernels across the boundary between states
/// `first` and `first + 1`: merge the states, then apply SGF at the seam
/// and OTF from any old-first kernel into any old-second kernel. The merge
/// commits only when at least one cross-boundary fusion lands; otherwise
/// the graph is left exactly as before (modulo a generation bump).
///
/// Once a legal merge + fusion plan is found on the trial clone,
/// `approve(before, trial, first)` decides whether to commit it (e.g. a
/// measured veto comparing the two old states against the merged one — the
/// dataflow layer has no cost model, so judgment is injected from above;
/// pass `&mut |_, _, _| true` to commit every legal plan). The trial graph
/// passed to the hook already has the merge and the fusion applied at
/// state `first`.
///
/// Returns the first committed fusion (kind `"xmodule-sgf"` /
/// `"xmodule-otf"`, labels from the fused kernels).
fn fuse_across_states(
    sdfg: &mut Sdfg,
    first: usize,
    approve: &mut dyn FnMut(&Sdfg, &Sdfg, usize) -> bool,
) -> TransformResult {
    sdfg.touch();
    let second = first + 1;
    if second >= sdfg.states.len() {
        return Err(format!("state {second} out of range"));
    }
    // Require a dataflow link: something produced by the first module and
    // consumed by the second (otherwise there is nothing to fuse across).
    let produced: Vec<_> = sdfg.states[first]
        .nodes
        .iter()
        .flat_map(|n| n.writes())
        .collect();
    let linked = sdfg.states[second]
        .nodes
        .iter()
        .flat_map(|n| n.reads())
        .any(|d| produced.contains(&d));
    if !linked {
        return Err(format!(
            "no producer/consumer link between states {first} and {second}"
        ));
    }

    // Search on a trial clone first so a failed match leaves the caller's
    // graph (uid, generation, structure) completely untouched; on success
    // the same plan is committed to the live graph, keeping its identity
    // and bumping its generation once per rewrite.
    let mut trial = sdfg.clone();
    let seam = trial.states[first].nodes.len();
    merge_adjacent_states(&mut trial, first)?;

    // SGF at the seam (the last old-first kernel against the first
    // old-second kernel: adjacency is what SGF requires), else OTF from any
    // old-first producer into any old-second consumer, all planned against
    // one usage map of the merged graph.
    let n = trial.states[first].nodes.len();
    let usage = UsageMap::build(&trial);
    let sgf = seam
        .checked_sub(1)
        .and_then(|last| plan_subgraph(&trial, first, last).ok());
    let plan = sgf
        .or_else(|| {
            (0..seam)
                .flat_map(|p| (seam..n).map(move |c| (p, c)))
                .find_map(|(p, c)| plan_otf(&trial, &usage, first, p, c).ok())
        })
        .ok_or_else(|| format!("no kernel fusion applies across the {first}/{second} boundary"))?;

    // The hook sees the rewrite applied.
    plan.clone().commit(&mut trial);
    if !approve(sdfg, &trial, first) {
        return Err(format!(
            "cross-module fusion at the {first}/{second} boundary was vetoed"
        ));
    }
    merge_adjacent_states(sdfg, first).expect("merge validated on the trial clone");
    let kind = if plan.kind == "sgf" {
        "xmodule-sgf"
    } else {
        "xmodule-otf"
    };
    Ok(Applied {
        kind,
        ..plan.commit(sdfg)
    })
}

/// Greedy cross-module pass: walk every adjacent state pair and fuse
/// across each boundary where a producer/consumer link and a legal kernel
/// fusion exist, `approve` forwarded to every `fuse_across_states`
/// attempt. Returns everything applied (in application order).
pub fn cross_module_fusion(
    sdfg: &mut Sdfg,
    approve: &mut dyn FnMut(&Sdfg, &Sdfg, usize) -> bool,
) -> Vec<Applied> {
    let mut applied = Vec::new();
    let mut first = 0;
    while first + 1 < sdfg.states.len() {
        match fuse_across_states(sdfg, first, approve) {
            Ok(a) => {
                applied.push(a);
                // The merged state may now link to the *next* module too;
                // retry at the same index before moving on.
            }
            Err(_) => first += 1,
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DataStore, Executor, NoHooks};
    use crate::expr::{DataId, Expr};
    use crate::graph::{DataflowNode, State};
    use crate::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use crate::storage::{Array3, Layout, StorageOrder};

    fn layout() -> Layout {
        Layout::new([8, 8, 4], [1, 1, 0], StorageOrder::IContiguous, 1)
    }

    fn pointwise(name: &str, read: DataId, write: DataId, addend: f64) -> Kernel {
        let mut k = Kernel::new(
            name,
            Domain::from_shape([8, 8, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(write),
            Expr::load(read, 0, 0, 0) + Expr::c(addend),
        ));
        k
    }

    /// Two states, each one module: `s0: t = a + 1` then `s1: out = t * 3`
    /// — the producer/consumer chain split across a module boundary.
    fn two_module_sdfg() -> (Sdfg, DataId, DataId) {
        let mut g = Sdfg::new("xm");
        let a = g.add_container("a", layout(), false);
        let t = g.add_container("t", layout(), true);
        let out = g.add_container("out", layout(), false);
        let mut s0 = State::new("produce");
        s0.nodes
            .push(DataflowNode::Kernel(pointwise("prod#0", a, t, 1.0)));
        let mut s1 = State::new("consume");
        let mut c = Kernel::new(
            "cons#0",
            Domain::from_shape([8, 8, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        c.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(t, 0, 0, 0) * Expr::c(3.0),
        ));
        s1.nodes.push(DataflowNode::Kernel(c));
        g.add_state(s0);
        g.add_state(s1);
        (g, a, out)
    }

    fn run_and_get(g: &Sdfg, a: DataId, out: DataId) -> Array3 {
        let mut store = DataStore::for_sdfg(g);
        let l = g.layout_of(a);
        let mut arr = Array3::zeros(l.clone());
        let (ni, nj, nk) = (l.domain[0] as i64, l.domain[1] as i64, l.domain[2] as i64);
        for k in 0..nk {
            for j in -1..nj + 1 {
                for i in -1..ni + 1 {
                    arr.set(i, j, k, (i * 3 + j * 5 + k * 7) as f64);
                }
            }
        }
        *store.get_mut(a) = arr;
        Executor::serial().run(g, &mut store, &[], &mut NoHooks);
        store.get(out).clone()
    }

    #[test]
    fn merge_concatenates_and_reindexes() {
        let (mut g, _, _) = two_module_sdfg();
        g.states.push(State::new("tail"));
        g.control.push(ControlNode::State(2));
        let applied = merge_adjacent_states(&mut g, 0).expect("merge applies");
        assert_eq!(applied.kind, "state-merge");
        assert_eq!(g.states.len(), 2);
        assert_eq!(g.states[0].name, "produce+consume");
        assert_eq!(g.states[0].nodes.len(), 2);
        // The tail state re-indexed from 2 to 1.
        assert_eq!(g.state_schedule(), vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn merge_rejects_interleaved_occurrences() {
        let (mut g, _, _) = two_module_sdfg();
        g.states.push(State::new("between"));
        g.control = vec![
            ControlNode::State(0),
            ControlNode::State(2),
            ControlNode::State(1),
        ];
        assert!(merge_adjacent_states(&mut g, 0).is_err());
    }

    #[test]
    fn merge_rejects_loop_boundary_split() {
        // s0 inside a loop, s1 after it: occurrences do not pair up (the
        // loop repeats s0 without running s1 in between).
        let (mut g, _, _) = two_module_sdfg();
        g.control = vec![
            ControlNode::Loop {
                trips: 2,
                body: vec![ControlNode::State(0)],
            },
            ControlNode::State(1),
        ];
        assert!(merge_adjacent_states(&mut g, 0).is_err());
    }

    #[test]
    fn merge_inside_shared_loop_body_applies() {
        let (mut g, a, out) = two_module_sdfg();
        g.control = vec![ControlNode::Loop {
            trips: 3,
            body: vec![ControlNode::State(0), ControlNode::State(1)],
        }];
        let before = run_and_get(&g, a, out);
        merge_adjacent_states(&mut g, 0).expect("adjacent inside one body");
        assert_eq!(g.state_schedule(), vec![(0, 3)]);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    #[test]
    fn fuse_across_states_is_bit_exact() {
        let (mut g, a, out) = two_module_sdfg();
        let before = run_and_get(&g, a, out);
        let applied = fuse_across_states(&mut g, 0, &mut |_, _, _| true).expect("cross-module fusion applies");
        assert!(applied.kind.starts_with("xmodule-"));
        assert_eq!(g.states.len(), 1);
        assert_eq!(g.kernel_count(), 1, "the two modules fused into one kernel");
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    #[test]
    fn fuse_across_states_rejects_unlinked_modules() {
        let mut g = Sdfg::new("unlinked");
        let a = g.add_container("a", layout(), false);
        let b = g.add_container("b", layout(), false);
        let c = g.add_container("c", layout(), false);
        let d = g.add_container("d", layout(), false);
        let mut s0 = State::new("m0");
        s0.nodes
            .push(DataflowNode::Kernel(pointwise("k0", a, b, 1.0)));
        let mut s1 = State::new("m1");
        s1.nodes
            .push(DataflowNode::Kernel(pointwise("k1", c, d, 2.0)));
        g.add_state(s0);
        g.add_state(s1);
        let before = format!("{:?}", g.states);
        assert!(fuse_across_states(&mut g, 0, &mut |_, _, _| true).is_err());
        assert_eq!(format!("{:?}", g.states), before, "graph left untouched");
    }

    #[test]
    fn fuse_across_states_reverts_when_no_fusion_lands() {
        // Linked modules, but the consumer reads the intermediate at a
        // horizontal offset *and* the intermediate is non-transient: SGF
        // rejects (offset dependency) and OTF rejects (not transient) —
        // the state merge must roll back.
        let (mut g, _, _) = two_module_sdfg();
        let t = g.find_container("t").unwrap();
        g.containers[t.0].transient = false;
        if let DataflowNode::Kernel(k) = &mut g.states[1].nodes[0] {
            k.stmts[0].expr = Expr::load(t, 1, 0, 0) * Expr::c(3.0);
        }
        assert!(fuse_across_states(&mut g, 0, &mut |_, _, _| true).is_err());
        assert_eq!(g.states.len(), 2, "merge rolled back");
        assert_eq!(g.states[0].name, "produce");
    }

    #[test]
    fn cross_module_pass_chains_through_three_modules() {
        // a -> t1 -> t2 -> out across three states: the greedy pass should
        // collapse all three into one kernel, bit-exactly.
        let mut g = Sdfg::new("chain");
        let a = g.add_container("a", layout(), false);
        let t1 = g.add_container("t1", layout(), true);
        let t2 = g.add_container("t2", layout(), true);
        let out = g.add_container("out", layout(), false);
        for (i, (r, w)) in [(a, t1), (t1, t2), (t2, out)].into_iter().enumerate() {
            let mut s = State::new(format!("m{i}"));
            s.nodes.push(DataflowNode::Kernel(pointwise(
                &format!("k{i}"),
                r,
                w,
                i as f64,
            )));
            g.add_state(s);
        }
        let before = run_and_get(&g, a, out);
        let applied = cross_module_fusion(&mut g, &mut |_, _, _| true);
        assert_eq!(applied.len(), 2);
        assert_eq!(g.states.len(), 1);
        assert_eq!(g.kernel_count(), 1);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }
}
