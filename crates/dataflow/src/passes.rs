//! Whole-program simplification passes (Section V-B preprocessing).
//!
//! The orchestrator's transpilation steps — constant folding, dead
//! code elimination, redundant-container removal — land here as SDFG
//! passes. Loop unrolling is structural ([`unroll_loops`]) because the
//! control tree is already counted loops after the Python-side constant
//! propagation the paper describes.

use crate::expr::{DataId, Expr};
use crate::graph::{ControlNode, DataflowNode, Sdfg};
use crate::kernel::LValue;

/// Fold constant subexpressions (`1 + 2 -> 3`, `x * 1 -> x`, `x + 0 -> x`,
/// `select(const, a, b) -> a|b`). Returns folded-node count.
pub fn fold_constants(sdfg: &mut Sdfg) -> usize {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    use crate::expr::BinOp;
    let count = std::cell::Cell::new(0usize);
    let fold = |e: Expr| -> Expr {
        match e {
            Expr::Bin(op, a, b) => match (op, a.as_ref(), b.as_ref()) {
                (_, Expr::Const(x), Expr::Const(y)) => {
                    count.set(count.get() + 1);
                    Expr::Const(crate::expr::apply_bin(op, *x, *y))
                }
                (BinOp::Mul, Expr::Const(c), _) if *c == 1.0 => {
                    count.set(count.get() + 1);
                    *b
                }
                (BinOp::Mul, _, Expr::Const(c)) if *c == 1.0 => {
                    count.set(count.get() + 1);
                    *a
                }
                (BinOp::Add, Expr::Const(c), _) if *c == 0.0 => {
                    count.set(count.get() + 1);
                    *b
                }
                (BinOp::Add, _, Expr::Const(c)) | (BinOp::Sub, _, Expr::Const(c))
                    if *c == 0.0 =>
                {
                    count.set(count.get() + 1);
                    *a
                }
                _ => Expr::Bin(op, a, b),
            },
            Expr::Un(op, a) => match a.as_ref() {
                Expr::Const(x) => {
                    count.set(count.get() + 1);
                    Expr::Const(crate::expr::apply_un(op, *x))
                }
                _ => Expr::Un(op, a),
            },
            Expr::Select(c, a, b) => match c.as_ref() {
                Expr::Const(v) => {
                    count.set(count.get() + 1);
                    if *v != 0.0 {
                        *a
                    } else {
                        *b
                    }
                }
                _ => Expr::Select(c, a, b),
            },
            other => other,
        }
    };
    for state in &mut sdfg.states {
        for node in &mut state.nodes {
            if let DataflowNode::Kernel(k) = node {
                for s in &mut k.stmts {
                    let e = std::mem::replace(&mut s.expr, Expr::Const(0.0));
                    s.expr = e.rewrite(&fold);
                }
            }
        }
    }
    count.get()
}

/// Remove kernels and copies whose only outputs are transient containers
/// never read anywhere in the program (dead code elimination). Iterates to
/// a fixed point so chains of dead producers collapse. Returns removed
/// node count.
pub fn eliminate_dead_writes(sdfg: &mut Sdfg) -> usize {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut removed = 0;
    loop {
        // Recompute liveness: a container is live if it is non-transient
        // or read by any node.
        let mut live = vec![false; sdfg.containers.len()];
        for (i, c) in sdfg.containers.iter().enumerate() {
            if !c.transient {
                live[i] = true;
            }
        }
        for state in &sdfg.states {
            for node in &state.nodes {
                for d in node.reads() {
                    live[d.0] = true;
                }
            }
        }
        let mut removed_this_round = 0;
        for state in &mut sdfg.states {
            let before = state.nodes.len();
            state.nodes.retain(|n| match n {
                DataflowNode::Kernel(k) => {
                    // A kernel is dead when every field it writes is dead.
                    let writes = k.writes();
                    let has_field_write = k
                        .stmts
                        .iter()
                        .any(|s| matches!(s.lvalue, LValue::Field(_)));
                    !(has_field_write && writes.iter().all(|d| !live[d.0]))
                }
                DataflowNode::Copy { dst, .. } => live[dst.0],
                _ => true,
            });
            removed_this_round += before - state.nodes.len();
        }
        removed += removed_this_round;
        if removed_this_round == 0 {
            break;
        }
    }
    removed
}

/// Remove `Copy` nodes where the destination is a transient that is only
/// ever read (never re-written) afterwards, by redirecting those reads to
/// the source ("removing redundant memory allocation"). Returns removed
/// copy count.
pub fn eliminate_redundant_copies(sdfg: &mut Sdfg) -> usize {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut removed = 0;
    // Conservative single-pass: a copy src -> dst is redundant when dst is
    // transient, written exactly once in the program (by this copy), and
    // src is never written after the copy within the same state sequence.
    loop {
        let mut candidate: Option<(usize, usize, DataId, DataId)> = None;
        'search: for (si, state) in sdfg.states.iter().enumerate() {
            for (ni, node) in state.nodes.iter().enumerate() {
                if let DataflowNode::Copy { src, dst } = node {
                    if !sdfg.containers[dst.0].transient {
                        continue;
                    }
                    let dst_writes: u32 = sdfg
                        .states
                        .iter()
                        .flat_map(|s| s.nodes.iter())
                        .map(|n| n.writes().iter().filter(|d| *d == dst).count() as u32)
                        .sum();
                    if dst_writes != 1 {
                        continue;
                    }
                    // src must not be re-written later (conservatively:
                    // anywhere else in the program after this node).
                    let src_rewritten = sdfg
                        .states
                        .iter()
                        .enumerate()
                        .flat_map(|(sj, s)| {
                            s.nodes.iter().enumerate().map(move |(nj, n)| (sj, nj, n))
                        })
                        .any(|(sj, nj, n)| {
                            (sj > si || (sj == si && nj > ni)) && n.writes().contains(src)
                        });
                    if src_rewritten {
                        continue;
                    }
                    candidate = Some((si, ni, *src, *dst));
                    break 'search;
                }
            }
        }
        let Some((si, ni, src, dst)) = candidate else {
            break;
        };
        // Redirect every read of dst to src and delete the copy.
        for state in &mut sdfg.states {
            for node in &mut state.nodes {
                if let DataflowNode::Kernel(k) = node {
                    for s in &mut k.stmts {
                        let e = std::mem::replace(&mut s.expr, Expr::Const(0.0));
                        s.expr = e.rewrite(&|e| match e {
                            Expr::Load(d, o) if d == dst => Expr::Load(src, o),
                            other => other,
                        });
                    }
                }
            }
        }
        sdfg.states[si].nodes.remove(ni);
        removed += 1;
    }
    removed
}

/// Fully unroll every counted loop in the control tree ("we explicitly
/// mark loops to be (or not) unrolled"). States referenced repeatedly are
/// simply visited repeatedly; the state bodies are shared.
pub fn unroll_loops(sdfg: &mut Sdfg) -> usize {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    fn expand(nodes: &[ControlNode], out: &mut Vec<ControlNode>, unrolled: &mut usize) {
        for n in nodes {
            match n {
                ControlNode::State(s) => out.push(ControlNode::State(*s)),
                ControlNode::Loop { trips, body } => {
                    *unrolled += 1;
                    for _ in 0..*trips {
                        expand(body, out, unrolled);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut unrolled = 0;
    expand(&sdfg.control.clone(), &mut out, &mut unrolled);
    sdfg.control = out;
    unrolled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::State;
    use crate::kernel::{Domain, KOrder, Kernel, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    fn small_layout() -> Layout {
        Layout::new([4, 4, 2], [0, 0, 0], StorageOrder::IContiguous, 1)
    }

    fn kernel_writing(name: &str, read: DataId, write: DataId) -> Kernel {
        let mut k = Kernel::new(
            name,
            Domain::from_shape([4, 4, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(write), Expr::load(read, 0, 0, 0)));
        k
    }

    #[test]
    fn fold_constants_simplifies() {
        let mut g = Sdfg::new("f");
        let a = g.add_container("a", small_layout(), false);
        let b = g.add_container("b", small_layout(), false);
        let mut k = kernel_writing("k", a, b);
        // (a * 1) + (2 + 3) -> a + 5
        k.stmts[0].expr = Expr::load(a, 0, 0, 0) * Expr::c(1.0) + (Expr::c(2.0) + Expr::c(3.0));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        let n = fold_constants(&mut g);
        assert!(n >= 2);
        let k = g.states[0].kernels().next().unwrap();
        assert_eq!(k.stmts[0].expr.size(), 3, "a + 5 has 3 nodes: {:?}", k.stmts[0].expr);
    }

    #[test]
    fn dead_write_chain_collapses() {
        let mut g = Sdfg::new("d");
        let a = g.add_container("a", small_layout(), false);
        let t1 = g.add_container("t1", small_layout(), true);
        let t2 = g.add_container("t2", small_layout(), true);
        let mut s = State::new("s");
        // a -> t1 -> t2, t2 never read: both kernels are dead.
        s.nodes
            .push(DataflowNode::Kernel(kernel_writing("k1", a, t1)));
        s.nodes
            .push(DataflowNode::Kernel(kernel_writing("k2", t1, t2)));
        g.add_state(s);
        let removed = eliminate_dead_writes(&mut g);
        assert_eq!(removed, 2);
        assert_eq!(g.kernel_count(), 0);
    }

    #[test]
    fn live_output_keeps_producers() {
        let mut g = Sdfg::new("l");
        let a = g.add_container("a", small_layout(), false);
        let t = g.add_container("t", small_layout(), true);
        let out = g.add_container("out", small_layout(), false);
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(kernel_writing("k1", a, t)));
        s.nodes
            .push(DataflowNode::Kernel(kernel_writing("k2", t, out)));
        g.add_state(s);
        assert_eq!(eliminate_dead_writes(&mut g), 0);
        assert_eq!(g.kernel_count(), 2);
    }

    #[test]
    fn redundant_copy_is_removed_and_reads_redirected() {
        let mut g = Sdfg::new("c");
        let a = g.add_container("a", small_layout(), false);
        let t = g.add_container("t", small_layout(), true);
        let out = g.add_container("out", small_layout(), false);
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Copy { src: a, dst: t });
        s.nodes
            .push(DataflowNode::Kernel(kernel_writing("k", t, out)));
        g.add_state(s);
        let removed = eliminate_redundant_copies(&mut g);
        assert_eq!(removed, 1);
        let k = g.states[0].kernels().next().unwrap();
        assert!(k.reads_data(a));
        assert!(!k.reads_data(t));
    }

    #[test]
    fn copy_with_later_src_write_is_kept() {
        let mut g = Sdfg::new("c2");
        let a = g.add_container("a", small_layout(), false);
        let t = g.add_container("t", small_layout(), true);
        let out = g.add_container("out", small_layout(), false);
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Copy { src: a, dst: t });
        // a is rewritten after the copy: the snapshot in t matters.
        s.nodes.push(DataflowNode::Kernel(kernel_writing("w", out, a)));
        s.nodes
            .push(DataflowNode::Kernel(kernel_writing("k", t, out)));
        g.add_state(s);
        assert_eq!(eliminate_redundant_copies(&mut g), 0);
    }

    #[test]
    fn unroll_flattens_control_tree() {
        let mut g = Sdfg::new("u");
        g.states.push(State::new("s0"));
        g.states.push(State::new("s1"));
        g.control = vec![ControlNode::Loop {
            trips: 3,
            body: vec![ControlNode::State(0), ControlNode::State(1)],
        }];
        let n = unroll_loops(&mut g);
        assert_eq!(n, 1);
        assert_eq!(g.control.len(), 6);
        assert_eq!(g.state_schedule().len(), 6);
    }
}
