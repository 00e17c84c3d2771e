//! Local-storage transformations (Section VI-A2).
//!
//! Three rewrites that "avoid load and store operations from or to global
//! memory":
//!
//! 1. temporaries only accessed within a single thread become local
//!    variables ([`demote_transients_to_locals`]);
//! 2. load elision for overwritten-before-read fields is subsumed by (1)
//!    plus dead-transient elimination in `passes`;
//! 3. values used in consecutive forward/backward iterations are buffered
//!    in registers ([`apply_register_caching`]) — they "need only to be
//!    loaded from global memory on their first access".

use crate::exec::validate_kernel;
use crate::expr::{DataId, Expr, LocalId};
use crate::graph::{DataflowNode, Sdfg};
use crate::kernel::{KOrder, Kernel, LValue};
use crate::transforms::{Applied, UsageMap};

/// Mark fields of `kernel` for register caching: any field read at more
/// than one vertical offset inside a sequential-K kernel, or both read and
/// written by it, is kept in registers across iterations.
///
/// Returns the number of fields newly cached. Affects the modeled traffic
/// (see [`Kernel::profile`]); execution semantics are unchanged.
pub fn apply_register_caching(kernel: &mut Kernel) -> usize {
    if !kernel.schedule.k_as_loop && kernel.k_order == KOrder::Parallel {
        return 0;
    }
    let writes = kernel.writes();
    let mut added = 0;
    for (d, offsets) in kernel.reads() {
        let multi_k = offsets
            .iter()
            .map(|o| o.k)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 1;
        if (multi_k || writes.contains(&d)) && !kernel.cached_fields.contains(&d) {
            kernel.cached_fields.push(d);
            added += 1;
        }
    }
    added
}

/// Apply register caching across the whole SDFG.
pub fn cache_registers_everywhere(sdfg: &mut Sdfg) -> Vec<Applied> {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut out = Vec::new();
    for state in &mut sdfg.states {
        for node in &mut state.nodes {
            if let DataflowNode::Kernel(k) = node {
                if apply_register_caching(k) > 0 {
                    out.push(Applied {
                        kind: "register-cache",
                        labels: vec![k.name.clone()],
                    });
                }
            }
        }
    }
    out
}

/// Demote a transient container to a per-thread local inside one kernel.
///
/// Applies when, program-wide, `data` is written and read *only* by this
/// kernel, and every access is at zero offset (single-thread access). The
/// container's traffic disappears from the kernel's memlets entirely.
/// `usage` is the program-wide [`UsageMap`] of `sdfg` as it stands.
pub fn demote_transient_to_local(
    sdfg: &mut Sdfg,
    usage: &UsageMap,
    state: usize,
    node: usize,
    data: DataId,
) -> Result<Applied, String> {
    if !sdfg.containers[data.0].transient {
        return Err(format!("'{}' is not transient", sdfg.containers[data.0].name));
    }
    // Program-wide exclusivity.
    let kernel = match &sdfg.states[state].nodes[node] {
        DataflowNode::Kernel(k) => k,
        other => return Err(format!("not a kernel: {other:?}")),
    };
    let local_reads = if kernel.reads_data(data) { 1 } else { 0 };
    let local_writes = if kernel.writes_data(data) { 1 } else { 0 };
    if usage.reads[data.0] != local_reads || usage.writes[data.0] != local_writes {
        return Err("container is accessed outside this kernel".into());
    }
    if local_writes == 0 {
        return Err("kernel never writes the container".into());
    }
    // Zero-offset accesses only (single-thread).
    for s in &kernel.stmts {
        for (d, o) in s.expr.loads() {
            if d == data && (o.i != 0 || o.j != 0 || o.k != 0) {
                return Err(format!("offset access {o} prevents demotion"));
            }
        }
    }
    // All statements writing `data` must cover at least the range of the
    // statements reading it; we conservatively require identical k-ranges
    // and regions between each write and every read statement.
    let mut rewritten = kernel.clone();
    let local = LocalId(rewritten.n_locals);
    rewritten.n_locals += 1;
    for s in &mut rewritten.stmts {
        if matches!(s.lvalue, LValue::Field(d) if d == data) {
            s.lvalue = LValue::Local(local);
        }
        s.expr = std::mem::replace(&mut s.expr, Expr::Const(0.0)).rewrite(&|e| match e {
            Expr::Load(d, _) if d == data => Expr::Local(local),
            other => other,
        });
    }
    validate_kernel(&rewritten).map_err(|e| format!("demotion produced invalid kernel: {e}"))?;
    let label = rewritten.name.clone();
    sdfg.states[state].nodes[node] = DataflowNode::Kernel(rewritten);
    Ok(Applied {
        kind: "local-demote",
        labels: vec![label, sdfg.containers[data.0].name.clone()],
    })
}

/// Demote every eligible transient in every kernel.
pub fn demote_transients_to_locals(sdfg: &mut Sdfg) -> Vec<Applied> {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut out = Vec::new();
    let n_containers = sdfg.containers.len();
    // One usage map for the sweep, rebuilt only when a demotion lands.
    let mut usage = UsageMap::build(sdfg);
    for state in 0..sdfg.states.len() {
        for node in 0..sdfg.states[state].nodes.len() {
            for c in 0..n_containers {
                if let Ok(a) = demote_transient_to_local(sdfg, &usage, state, node, DataId(c)) {
                    out.push(a);
                    usage = UsageMap::build(sdfg);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DataStore, Executor, NoHooks};
    use crate::graph::State;
    use crate::kernel::{Domain, Schedule, Stmt};
    use crate::storage::{Array3, Layout, StorageOrder};

    #[test]
    fn register_caching_targets_vertical_multi_offset_reads() {
        let mut g = Sdfg::new("t");
        let l = Layout::new([4, 4, 8], [0, 0, 1], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let b = g.add_container("b", l.clone(), false);
        let out = g.add_container("out", l, false);
        let mut k = Kernel::new(
            "solver",
            Domain::from_shape([4, 4, 8]),
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        // a read at k and k-1 (cache candidate); b read once (no).
        k.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(a, 0, 0, 0) + Expr::load(a, 0, 0, -1) + Expr::load(b, 0, 0, 0),
        ));
        let n = apply_register_caching(&mut k);
        assert_eq!(n, 1);
        assert_eq!(k.cached_fields, vec![a]);
        // Idempotent.
        assert_eq!(apply_register_caching(&mut k), 0);
        drop(g);
    }

    #[test]
    fn register_caching_skips_pure_parallel_kernels() {
        let l = Layout::new([4, 4, 8], [0, 0, 1], StorageOrder::IContiguous, 1);
        let _ = l;
        let mut k = Kernel::new(
            "par",
            Domain::from_shape([4, 4, 8]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(DataId(1)),
            Expr::load(DataId(0), 0, 0, 0),
        ));
        assert_eq!(apply_register_caching(&mut k), 0);
    }

    fn demote_sdfg() -> (Sdfg, DataId, DataId, DataId) {
        let mut g = Sdfg::new("d");
        let l = Layout::new([6, 6, 4], [0, 0, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let t = g.add_container("t", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([6, 6, 4]);
        let mut k = Kernel::new("fusedop", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k.stmts.push(Stmt::full(
            LValue::Field(t),
            Expr::load(a, 0, 0, 0) * Expr::c(2.0),
        ));
        k.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(t, 0, 0, 0) + Expr::c(1.0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        (g, a, t, out)
    }

    #[test]
    fn demotion_preserves_semantics_and_removes_traffic() {
        let (mut g, a, t, out) = demote_sdfg();
        let run = |g: &Sdfg| {
            let mut store = DataStore::for_sdfg(g);
            *store.get_mut(a) = Array3::from_fn(g.layout_of(a), |i, j, k| (i + j * 2 + k) as f64);
            Executor::serial().run(g, &mut store, &[], &mut NoHooks);
            store.get(out).clone()
        };
        let before = run(&g);
        let bytes_before = g.states[0]
            .kernels()
            .next()
            .unwrap()
            .profile(&g.layout_fn())
            .bytes_total();
        let usage = UsageMap::build(&g);
        demote_transient_to_local(&mut g, &usage, 0, 0, t).expect("demotion applies");
        let after = run(&g);
        assert_eq!(before.max_abs_diff(&after), 0.0);
        let k = g.states[0].kernels().next().unwrap();
        assert!(!k.reads_data(t));
        assert!(!k.writes_data(t));
        let bytes_after = k.profile(&g.layout_fn()).bytes_total();
        assert!(bytes_after < bytes_before);
    }

    #[test]
    fn demotion_rejects_offset_reads() {
        let (mut g, _, t, _) = demote_sdfg();
        if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[0] {
            k.stmts[1].expr = Expr::load(t, 0, 0, 0) + Expr::load(t, 1, 0, 0);
        }
        // (This kernel is itself invalid under the parallel model, but the
        // demotion must already refuse on the offset check.)
        let usage = UsageMap::build(&g);
        assert!(demote_transient_to_local(&mut g, &usage, 0, 0, t).is_err());
    }

    #[test]
    fn demotion_rejects_outside_readers() {
        let (mut g, _, t, _) = demote_sdfg();
        let l = g.containers[0].layout.clone();
        let extra_out = g.add_container("x", l, false);
        let mut k2 = Kernel::new(
            "reader",
            Domain::from_shape([6, 6, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k2.stmts
            .push(Stmt::full(LValue::Field(extra_out), Expr::load(t, 0, 0, 0)));
        g.states[0].nodes.push(DataflowNode::Kernel(k2));
        let usage = UsageMap::build(&g);
        assert!(demote_transient_to_local(&mut g, &usage, 0, 0, t).is_err());
    }

    #[test]
    fn demotion_rejects_non_transient() {
        let (mut g, a, _, _) = demote_sdfg();
        let usage = UsageMap::build(&g);
        assert!(demote_transient_to_local(&mut g, &usage, 0, 0, a).is_err());
    }

    #[test]
    fn bulk_demotion_finds_the_candidate() {
        let (mut g, _, t, _) = demote_sdfg();
        let applied = demote_transients_to_locals(&mut g);
        assert_eq!(applied.len(), 1);
        assert_eq!(applied[0].kind, "local-demote");
        assert!(applied[0].labels.contains(&g.containers[t.0].name));
    }
}
