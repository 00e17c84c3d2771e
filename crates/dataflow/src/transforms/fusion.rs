//! Kernel fusion transformations — the workhorses of Table III and the
//! transformation families transfer tuning searches over (Section VI-B).
//!
//! * **On-the-fly map fusion (OTF)** "fuses by replicating the computations
//!   of the first map for each input of the second map, thereby trading
//!   memory for recomputation": the producer's expression is spliced into
//!   the consumer at every offset the consumer reads the intermediate at.
//! * **Subgraph fusion (SGF)** "can fuse arbitrary subgraphs into a single
//!   kernel by extracting common iteration spaces": adjacent kernels with
//!   identical domains and compatible vertical orders are concatenated
//!   into one kernel when every cross-kernel dependency is pointwise.
//!
//! Each fusion is a pure **plan** ([`plan_otf`], [`plan_subgraph`]: every
//! legality check and the fused kernel, against `&Sdfg`) and a **commit**
//! ([`FusionPlan::commit`]). A tuner prices a candidate from the costs of
//! the nodes it keeps plus the one fused kernel, never copying the program
//! or the state ([`FusionPlan::trial_state`] builds the state for a run
//! that measures it), and carries its [`UsageMap`] across each commit
//! ([`FusionPlan::commit_counted`]); [`fuse_otf`] / [`fuse_subgraph`] are
//! plan + commit: one implementation of legality.

use crate::exec::validate_kernel;
use crate::expr::{DataId, Expr, LocalId};
use crate::graph::{DataflowNode, Sdfg, State};
use crate::kernel::{KOrder, Kernel, LValue};
use crate::transforms::{touches_between, Applied, UsageMap};

/// Error type for rejected transformations.
pub type TransformResult = Result<Applied, String>;

fn kernels_at(
    sdfg: &Sdfg,
    state: usize,
    a: usize,
    b: usize,
) -> Result<(&Kernel, &Kernel), String> {
    let get = |i: usize| match sdfg.states[state].nodes.get(i) {
        Some(DataflowNode::Kernel(k)) => Ok(k),
        Some(other) => Err(format!("node {i} is not a kernel: {other:?}")),
        None => Err(format!("node index {i} out of range")),
    };
    Ok((get(a)?, get(b)?))
}

/// A fusion proven legal against a graph but not yet applied to it: the
/// fused kernel takes the place of node `keep` of `state` and node `drop`
/// goes away. Valid until the graph it was planned on is next mutated.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// `"otf"` or `"sgf"`.
    pub kind: &'static str,
    /// Names of the two kernels fused, in node order.
    pub labels: [String; 2],
    /// The fused kernel.
    pub kernel: Kernel,
    state: usize,
    keep: usize,
    drop: usize,
}

impl FusionPlan {
    /// The state as a commit would leave it, built beside the graph: for
    /// executing the rewrite without applying it.
    pub fn trial_state(&self, sdfg: &Sdfg) -> State {
        let mut state = sdfg.states[self.state].clone();
        state.nodes[self.keep] = DataflowNode::Kernel(self.kernel.clone());
        state.nodes.remove(self.drop);
        state
    }

    /// The state the plan rewrites.
    pub fn state(&self) -> usize {
        self.state
    }

    /// Index of the node the fused kernel takes the place of.
    pub fn kept_node(&self) -> usize {
        self.keep
    }

    /// Index of the node a commit removes (later nodes shift down by one).
    pub fn removed_node(&self) -> usize {
        self.drop
    }

    /// Apply the plan to the graph it was made on (one generation bump).
    pub fn commit(self, sdfg: &mut Sdfg) -> Applied {
        sdfg.touch();
        let nodes = &mut sdfg.states[self.state].nodes;
        nodes[self.keep] = DataflowNode::Kernel(self.kernel);
        nodes.remove(self.drop);
        Applied {
            kind: self.kind,
            labels: self.labels.to_vec(),
        }
    }

    /// [`commit`](Self::commit), carrying `usage` (the graph's
    /// [`UsageMap`] as the plan saw it) across: the two fused nodes'
    /// accesses leave it and the fused kernel's enter, which is what a
    /// fresh [`UsageMap::build`] of the committed graph would count.
    pub fn commit_counted(self, sdfg: &mut Sdfg, usage: &mut UsageMap) -> Applied {
        let nodes = &sdfg.states[self.state].nodes;
        usage.count(&nodes[self.keep], -1);
        usage.count(&nodes[self.drop], -1);
        // The removal shifts the fused kernel down when it came later.
        let (state, fused) = (self.state, self.keep - usize::from(self.drop < self.keep));
        let applied = self.commit(sdfg);
        usage.count(&sdfg.states[state].nodes[fused], 1);
        applied
    }
}

/// Plan on-the-fly map fusion: inline the single-statement producer at
/// `(state, producer)` into the consumer at `(state, consumer)`,
/// re-computing the producer expression at every offset. `usage` is the
/// program-wide [`UsageMap`] of `sdfg` as it stands.
///
/// Preconditions (all checked):
/// * both nodes are kernels in the same state, producer before consumer;
/// * the producer has exactly one statement writing a *transient* field,
///   with no region restriction and a full K interval;
/// * the producer is `Parallel` (no loop-carried state to replicate);
/// * the consumer is the only reader of the intermediate in the program;
/// * no node between them touches the intermediate or the producer's
///   inputs;
/// * the fused kernel passes [`validate_kernel`] (e.g. the consumer must
///   not write the producer's inputs at conflicting offsets).
pub fn plan_otf(
    sdfg: &Sdfg,
    usage: &UsageMap,
    state: usize,
    producer: usize,
    consumer: usize,
) -> Result<FusionPlan, String> {
    if producer >= consumer {
        return Err("producer must precede consumer".into());
    }
    let (p, c) = kernels_at(sdfg, state, producer, consumer)?;

    if p.k_order != KOrder::Parallel {
        return Err(format!("OTF producer '{}' is not a parallel stencil", p.name));
    }
    if p.stmts.len() != 1 {
        return Err(format!(
            "OTF producer '{}' has {} statements (need exactly 1)",
            p.name,
            p.stmts.len()
        ));
    }
    let pstmt = &p.stmts[0];
    if pstmt.region.is_some() || pstmt.k_range != crate::kernel::AxisInterval::FULL {
        return Err("OTF producer statement is region- or interval-restricted".into());
    }
    let inter = match pstmt.lvalue {
        LValue::Field(d) => d,
        LValue::Local(_) => return Err("OTF producer writes a local".into()),
    };
    if !sdfg.containers[inter.0].transient {
        return Err(format!(
            "intermediate '{}' is not transient",
            sdfg.containers[inter.0].name
        ));
    }
    if !c.reads_data(inter) {
        return Err("consumer does not read the intermediate".into());
    }
    if usage.read_count(inter) != 1 {
        return Err(format!(
            "intermediate read by {} nodes, need exactly 1",
            usage.read_count(inter)
        ));
    }
    // Producer inputs must be stable between the two nodes, and the
    // intermediate untouched.
    let mut guarded: Vec<DataId> = p.reads().into_iter().map(|(d, _)| d).collect();
    guarded.push(inter);
    if touches_between(sdfg, state, producer, consumer, &guarded) {
        return Err("interfering node between producer and consumer".into());
    }

    // Splice.
    let pexpr = pstmt.expr.clone();
    let mut fused = c.clone();
    for s in &mut fused.stmts {
        s.expr = std::mem::replace(&mut s.expr, Expr::Const(0.0))
            .substitute_load(inter, &|o| pexpr.clone().shift(o));
    }
    fused.name = format!("{}*{}", p.name, c.name);
    validate_kernel(&fused).map_err(|e| format!("fused kernel invalid: {e}"))?;

    // Replace the consumer, drop the producer.
    Ok(FusionPlan {
        kind: "otf",
        labels: [p.name.clone(), c.name.clone()],
        kernel: fused,
        state,
        keep: consumer,
        drop: producer,
    })
}

/// Apply on-the-fly map fusion: [`plan_otf`] against a fresh usage map,
/// then commit. A rejected application leaves the graph untouched.
pub fn fuse_otf(sdfg: &mut Sdfg, state: usize, producer: usize, consumer: usize) -> TransformResult {
    let plan = plan_otf(sdfg, &UsageMap::build(sdfg), state, producer, consumer)?;
    Ok(plan.commit(sdfg))
}

/// Plan subgraph fusion: merge adjacent kernels `(state, first)` and
/// `(state, first + 1)` into one kernel over their common iteration space.
///
/// Preconditions (all checked):
/// * identical domains;
/// * compatible vertical orders (equal, or one side `Parallel` combined
///   with a solver — the solver's order wins);
/// * every field written by the first and read by the second is read at
///   zero horizontal offset (per-thread ordering suffices — the "no
///   dependency between threads" condition of Section VI-A1), and at a
///   vertical offset compatible with the merged K order;
/// * the merged kernel passes [`validate_kernel`].
pub fn plan_subgraph(sdfg: &Sdfg, state: usize, first: usize) -> Result<FusionPlan, String> {
    let second = first + 1;
    let (a, b) = kernels_at(sdfg, state, first, second)?;

    if a.domain != b.domain {
        return Err(format!(
            "domain mismatch: '{}' {:?} vs '{}' {:?}",
            a.name, a.domain, b.name, b.domain
        ));
    }
    let k_order = match (a.k_order, b.k_order) {
        (x, y) if x == y => x,
        (KOrder::Parallel, y) => y,
        (x, KOrder::Parallel) => x,
        (x, y) => return Err(format!("incompatible K orders {x:?} and {y:?}")),
    };
    // Cross-kernel dependencies must be pointwise horizontally.
    let a_writes = a.writes();
    for s in &b.stmts {
        for (d, o) in s.expr.loads() {
            if a_writes.contains(&d) && (o.i != 0 || o.j != 0) {
                return Err(format!(
                    "'{}' reads {d:?} at horizontal offset {o} produced by '{}' — \
                     requires OTF recomputation, not SGF",
                    b.name, a.name
                ));
            }
        }
    }

    let mut fused = a.clone();
    fused.k_order = k_order;
    if k_order != KOrder::Parallel {
        fused.schedule.k_as_loop = true;
    }
    // Re-number the second kernel's locals above the first's.
    let shift = a.n_locals;
    let mut b_stmts = b.stmts.clone();
    for s in &mut b_stmts {
        if let LValue::Local(l) = &mut s.lvalue {
            *l = LocalId(l.0 + shift);
        }
        s.expr = std::mem::replace(&mut s.expr, Expr::Const(0.0)).rewrite(&|e| match e {
            Expr::Local(l) => Expr::Local(LocalId(l.0 + shift)),
            other => other,
        });
    }
    fused.stmts.extend(b_stmts);
    fused.n_locals = a.n_locals + b.n_locals;
    fused.name = format!("{}+{}", a.name, b.name);
    fused.cached_fields = {
        let mut cf = a.cached_fields.clone();
        for d in &b.cached_fields {
            if !cf.contains(d) {
                cf.push(*d);
            }
        }
        cf
    };
    validate_kernel(&fused).map_err(|e| format!("fused kernel invalid: {e}"))?;

    Ok(FusionPlan {
        kind: "sgf",
        labels: [a.name.clone(), b.name.clone()],
        kernel: fused,
        state,
        keep: first,
        drop: second,
    })
}

/// Apply subgraph fusion: [`plan_subgraph`], then commit.
pub fn fuse_subgraph(sdfg: &mut Sdfg, state: usize, first: usize) -> TransformResult {
    Ok(plan_subgraph(sdfg, state, first)?.commit(sdfg))
}

/// Greedily apply SGF to every adjacent kernel pair in every state until
/// no more matches apply. Returns the applied transformations.
pub fn greedy_subgraph_fusion(sdfg: &mut Sdfg) -> Vec<Applied> {
    let mut applied = Vec::new();
    for state in 0..sdfg.states.len() {
        let mut i = 0;
        while i + 1 < sdfg.states[state].nodes.len() {
            match fuse_subgraph(sdfg, state, i) {
                Ok(a) => applied.push(a),
                Err(_) => i += 1,
            }
        }
    }
    applied
}

/// Greedily apply OTF fusion to every (producer, consumer) candidate pair
/// in every state until no more matches apply.
pub fn greedy_otf_fusion(sdfg: &mut Sdfg) -> Vec<Applied> {
    let mut applied = Vec::new();
    for state in 0..sdfg.states.len() {
        let mut progress = true;
        while progress {
            progress = false;
            let n = sdfg.states[state].nodes.len();
            'outer: for p in 0..n {
                for c in (p + 1)..n {
                    if fuse_otf(sdfg, state, p, c).map(|a| applied.push(a)).is_ok() {
                        progress = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DataStore, Executor, NoHooks};
    use crate::graph::State;
    use crate::kernel::{Domain, Schedule, Stmt};
    use crate::storage::{Array3, Layout, StorageOrder};

    /// Build: tmp = 2*a ; out = tmp[-1] + tmp[+1]   (classic OTF shape)
    fn otf_sdfg() -> (Sdfg, DataId, DataId) {
        let mut g = Sdfg::new("otf");
        let l = Layout::new([8, 8, 2], [2, 2, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let tmp = g.add_container("tmp", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([8, 8, 2]);

        let mut p = Kernel::new("prod", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p.stmts.push(Stmt::full(
            LValue::Field(tmp),
            Expr::c(2.0) * Expr::load(a, 0, 0, 0),
        ));
        // The producer must compute one extra cell each side so the
        // consumer can read tmp at +-1 (extent analysis output).
        p.stmts[0].extent = crate::kernel::Extent2 {
            i_lo: 1,
            i_hi: 1,
            j_lo: 0,
            j_hi: 0,
        };
        let mut c = Kernel::new("cons", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(tmp, -1, 0, 0) + Expr::load(tmp, 1, 0, 0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(p));
        s.nodes.push(DataflowNode::Kernel(c));
        g.add_state(s);
        (g, a, out)
    }

    fn run_and_get(g: &Sdfg, a: DataId, out: DataId) -> Array3 {
        let mut store = DataStore::for_sdfg(g);
        let l = g.layout_of(a);
        let mut arr = Array3::zeros(l.clone());
        let (hi, hj, hk) = (l.halo[0] as i64, l.halo[1] as i64, l.halo[2] as i64);
        let (ni, nj, nk) = (l.domain[0] as i64, l.domain[1] as i64, l.domain[2] as i64);
        for k in -hk..nk + hk {
            for j in -hj..nj + hj {
                for i in -hi..ni + hi {
                    arr.set(i, j, k, (i * 3 + j * 5 + k * 7) as f64);
                }
            }
        }
        *store.get_mut(a) = arr;
        Executor::serial().run(g, &mut store, &[], &mut NoHooks);
        store.get(out).clone()
    }

    #[test]
    fn otf_fusion_preserves_semantics() {
        let (mut g, a, out) = otf_sdfg();
        let before = run_and_get(&g, a, out);
        let applied = fuse_otf(&mut g, 0, 0, 1).expect("OTF should apply");
        assert_eq!(applied.kind, "otf");
        assert_eq!(applied.labels, vec!["prod".to_string(), "cons".to_string()]);
        assert_eq!(g.states[0].nodes.len(), 1);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    #[test]
    fn otf_fusion_trades_memory_for_recomputation() {
        let (g, _, _) = otf_sdfg();
        let profile_sum = |g: &Sdfg| {
            g.states[0]
                .kernels()
                .map(|k| k.profile(&g.layout_fn()).bytes_total())
                .sum::<u64>()
        };
        let flops_sum = |g: &Sdfg| {
            g.states[0]
                .kernels()
                .map(|k| k.profile(&g.layout_fn()).flops)
                .sum::<u64>()
        };
        let bytes_before = profile_sum(&g);
        let flops_before = flops_sum(&g);
        let mut g2 = g.clone();
        fuse_otf(&mut g2, 0, 0, 1).unwrap();
        let bytes_after = profile_sum(&g2);
        let flops_after = flops_sum(&g2);
        assert!(bytes_after < bytes_before, "traffic must drop");
        assert!(flops_after >= flops_before, "recomputation may add flops");
    }

    #[test]
    fn otf_rejects_non_transient_intermediate() {
        let (mut g, _, _) = otf_sdfg();
        let tmp = g.find_container("tmp").unwrap();
        g.containers[tmp.0].transient = false;
        assert!(fuse_otf(&mut g, 0, 0, 1).is_err());
    }

    #[test]
    fn otf_rejects_second_reader() {
        let (mut g, _, _) = otf_sdfg();
        let tmp = g.find_container("tmp").unwrap();
        let out2 = g.add_container(
            "out2",
            g.containers[0].layout.clone(),
            false,
        );
        let mut extra = Kernel::new(
            "extra",
            Domain::from_shape([8, 8, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        extra
            .stmts
            .push(Stmt::full(LValue::Field(out2), Expr::load(tmp, 0, 0, 0)));
        g.states[0].nodes.push(DataflowNode::Kernel(extra));
        assert!(fuse_otf(&mut g, 0, 0, 1).is_err());
    }

    /// Build: t = a + 1 ; out = t * 3  (pointwise chain, SGF shape)
    fn sgf_sdfg() -> (Sdfg, DataId, DataId) {
        let mut g = Sdfg::new("sgf");
        let l = Layout::new([8, 8, 4], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let t = g.add_container("t", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([8, 8, 4]);
        let mut k1 = Kernel::new("add1", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k1.stmts.push(Stmt::full(
            LValue::Field(t),
            Expr::load(a, 0, 0, 0) + Expr::c(1.0),
        ));
        let mut k2 = Kernel::new("mul3", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k2.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(t, 0, 0, 0) * Expr::c(3.0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k1));
        s.nodes.push(DataflowNode::Kernel(k2));
        g.add_state(s);
        (g, a, out)
    }

    #[test]
    fn sgf_fusion_preserves_semantics() {
        let (mut g, a, out) = sgf_sdfg();
        let before = run_and_get(&g, a, out);
        let applied = fuse_subgraph(&mut g, 0, 0).expect("SGF should apply");
        assert_eq!(applied.kind, "sgf");
        assert_eq!(g.states[0].nodes.len(), 1);
        assert_eq!(g.kernel_count(), 1);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    #[test]
    fn counted_commit_keeps_the_usage_map_current() {
        // OTF keeps the later node, SGF the earlier; a node on each side
        // shifts the fused slot.
        for (mut g, otf) in [(otf_sdfg().0, true), (sgf_sdfg().0, false)] {
            let a = g.find_container("a").unwrap();
            let nodes = &mut g.states[0].nodes;
            nodes.insert(0, DataflowNode::HaloExchange { fields: vec![a] });
            nodes.push(DataflowNode::HaloExchange { fields: vec![a] });
            let mut usage = UsageMap::build(&g);
            let plan = match otf {
                true => plan_otf(&g, &usage, 0, 1, 2),
                false => plan_subgraph(&g, 0, 1),
            };
            plan.unwrap().commit_counted(&mut g, &mut usage);
            let fresh = UsageMap::build(&g);
            assert_eq!((usage.reads, usage.writes), (fresh.reads, fresh.writes), "otf={otf}");
        }
    }

    #[test]
    fn sgf_rejects_offset_dependency() {
        let (mut g, _, _) = sgf_sdfg();
        // Make the consumer read t at an offset: needs OTF, not SGF.
        let t = g.find_container("t").unwrap();
        if let DataflowNode::Kernel(k2) = &mut g.states[0].nodes[1] {
            k2.stmts[0].expr = Expr::load(t, 1, 0, 0) * Expr::c(3.0);
        }
        assert!(fuse_subgraph(&mut g, 0, 0).is_err());
    }

    #[test]
    fn sgf_rejects_domain_mismatch() {
        let (mut g, _, _) = sgf_sdfg();
        if let DataflowNode::Kernel(k2) = &mut g.states[0].nodes[1] {
            k2.domain = Domain::from_shape([4, 4, 4]);
        }
        assert!(fuse_subgraph(&mut g, 0, 0).is_err());
    }

    #[test]
    fn sgf_merges_parallel_into_solver_order() {
        let (mut g, _, _) = sgf_sdfg();
        if let DataflowNode::Kernel(k2) = &mut g.states[0].nodes[1] {
            k2.k_order = KOrder::Forward;
        }
        let _ = fuse_subgraph(&mut g, 0, 0).expect("parallel+forward fuses");
        let k = g.states[0].kernels().next().unwrap();
        assert_eq!(k.k_order, KOrder::Forward);
        assert!(k.schedule.k_as_loop);
    }

    #[test]
    fn sgf_renumbers_locals() {
        let (mut g, _, _) = sgf_sdfg();
        // Give both kernels a local 0.
        for idx in 0..2 {
            if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[idx] {
                k.n_locals = 1;
                k.stmts.insert(
                    0,
                    Stmt::full(LValue::Local(LocalId(0)), Expr::c(idx as f64)),
                );
            }
        }
        fuse_subgraph(&mut g, 0, 0).unwrap();
        let k = g.states[0].kernels().next().unwrap();
        assert_eq!(k.n_locals, 2);
        // Second kernel's local must now be LocalId(1).
        let has_l1 = k
            .stmts
            .iter()
            .any(|s| matches!(s.lvalue, LValue::Local(LocalId(1))));
        assert!(has_l1);
    }

    // ------------------------------------------------------------------
    // Edge cases: mismatched halo radii, in-place accumulates, and 1-wide
    // domains (degenerate boxes in the spirit of the overlap inverted-box
    // regression).

    /// OTF where the producer (radius 1) and consumer (radius 2) have
    /// mismatched stencil radii: the splice shifts the producer expression
    /// out to the consumer's offsets, so the fused kernel reads the
    /// original input at radius 2. With enough halo this is legal and
    /// bit-exact.
    #[test]
    fn otf_mismatched_halo_radii_is_bit_exact() {
        let mut g = Sdfg::new("radii");
        let l = Layout::new([8, 8, 2], [3, 3, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let tmp = g.add_container("tmp", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([8, 8, 2]);
        // Producer: radius-1 average, computed 2 wide each side so the
        // consumer can read it at +-2.
        let mut p = Kernel::new("prod", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p.stmts.push(Stmt::full(
            LValue::Field(tmp),
            (Expr::load(a, -1, 0, 0) + Expr::load(a, 1, 0, 0)) * Expr::c(0.5),
        ));
        p.stmts[0].extent = crate::kernel::Extent2 {
            i_lo: 2,
            i_hi: 2,
            j_lo: 0,
            j_hi: 0,
        };
        // Consumer: radius-2 difference of the intermediate.
        let mut c = Kernel::new("cons", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(tmp, 2, 0, 0) - Expr::load(tmp, -2, 0, 0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(p));
        s.nodes.push(DataflowNode::Kernel(c));
        g.add_state(s);

        let before = run_and_get(&g, a, out);
        let applied = fuse_otf(&mut g, 0, 0, 1).expect("mismatched radii fuse via OTF");
        assert_eq!(applied.kind, "otf");
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
        // The fused kernel now reads `a` at the combined radius 3.
        let k = g.states[0].kernels().next().unwrap();
        let max_radius = k
            .stmts
            .iter()
            .flat_map(|st| st.expr.loads())
            .filter(|(d, _)| *d == a)
            .map(|(_, o)| o.i.abs().max(o.j.abs()))
            .max()
            .unwrap();
        assert_eq!(max_radius, 3);
    }

    /// SGF between kernels whose *input* stencils have different radii
    /// (1 vs 2): legal as long as the cross-kernel dependency itself is
    /// pointwise, and bit-exact.
    #[test]
    fn sgf_mismatched_input_radii_is_bit_exact() {
        let mut g = Sdfg::new("radii2");
        let l = Layout::new([8, 8, 4], [2, 2, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let t = g.add_container("t", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([8, 8, 4]);
        let mut k1 = Kernel::new("r1", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k1.stmts.push(Stmt::full(
            LValue::Field(t),
            Expr::load(a, -1, 0, 0) + Expr::load(a, 1, 0, 0),
        ));
        let mut k2 = Kernel::new("r2", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k2.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(t, 0, 0, 0) + Expr::load(a, -2, 0, 0) + Expr::load(a, 2, 0, 0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k1));
        s.nodes.push(DataflowNode::Kernel(k2));
        g.add_state(s);

        let before = run_and_get(&g, a, out);
        fuse_subgraph(&mut g, 0, 0).expect("pointwise link fuses despite radius mismatch");
        assert_eq!(g.kernel_count(), 1);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    /// SGF with an in-place accumulate in the second kernel
    /// (`out = out + ...` reading its own lvalue pointwise) stays legal
    /// and bit-exact.
    #[test]
    fn sgf_in_place_accumulate_is_bit_exact() {
        let (mut g, a, out) = sgf_sdfg();
        let t = g.find_container("t").unwrap();
        if let DataflowNode::Kernel(k2) = &mut g.states[0].nodes[1] {
            // out = out + t  (accumulate into the output in place).
            k2.stmts[0].expr = Expr::load(out, 0, 0, 0) + Expr::load(t, 0, 0, 0);
        }
        let before = run_and_get(&g, a, out);
        fuse_subgraph(&mut g, 0, 0).expect("in-place accumulate fuses");
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    /// OTF into an accumulate statement that writes the producer's own
    /// input: legal when pointwise (`a = a + f(a)`), rejected when the
    /// splice would read the written field at a horizontal offset.
    #[test]
    fn otf_accumulate_into_producer_input() {
        // Pointwise: a = a + tmp with tmp = 2*a  ->  a = a + 2*a. Legal.
        let mut g = Sdfg::new("acc");
        let l = Layout::new([8, 8, 2], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let tmp = g.add_container("tmp", l, true);
        let dom = Domain::from_shape([8, 8, 2]);
        let mut p = Kernel::new("prod", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p.stmts.push(Stmt::full(
            LValue::Field(tmp),
            Expr::c(2.0) * Expr::load(a, 0, 0, 0),
        ));
        let mut c = Kernel::new("acc", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c.stmts.push(Stmt::full(
            LValue::Field(a),
            Expr::load(a, 0, 0, 0) + Expr::load(tmp, 0, 0, 0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(p.clone()));
        s.nodes.push(DataflowNode::Kernel(c));
        g.add_state(s);
        let before = run_and_get(&g, a, a);
        let mut fused = g.clone();
        fuse_otf(&mut fused, 0, 0, 1).expect("pointwise in-place accumulate fuses");
        let after = run_and_get(&fused, a, a);
        assert_eq!(before.max_abs_diff(&after), 0.0);

        // Offset variant: a = a + tmp[+1] would splice to a read of `a`
        // at +1 inside a kernel writing `a` — a cross-thread hazard the
        // validator must reject.
        let mut g2 = Sdfg::new("acc2");
        let l2 = Layout::new([8, 8, 2], [2, 2, 0], StorageOrder::IContiguous, 1);
        let a2 = g2.add_container("a", l2.clone(), false);
        let tmp2 = g2.add_container("tmp", l2, true);
        let mut p2 = Kernel::new("prod", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p2.stmts.push(Stmt::full(
            LValue::Field(tmp2),
            Expr::c(2.0) * Expr::load(a2, 0, 0, 0),
        ));
        p2.stmts[0].extent = crate::kernel::Extent2 {
            i_lo: 1,
            i_hi: 1,
            j_lo: 0,
            j_hi: 0,
        };
        let mut c2 = Kernel::new("acc", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c2.stmts.push(Stmt::full(
            LValue::Field(a2),
            Expr::load(a2, 0, 0, 0) + Expr::load(tmp2, 1, 0, 0),
        ));
        let mut s2 = State::new("s");
        s2.nodes.push(DataflowNode::Kernel(p2));
        s2.nodes.push(DataflowNode::Kernel(c2));
        g2.add_state(s2);
        assert!(fuse_otf(&mut g2, 0, 0, 1).is_err(), "offset accumulate must be rejected");
    }

    /// Fusions on 1-wide domains (the degenerate boxes that inverted the
    /// overlap split in PR 6): OTF across j on an i-width-1 domain and SGF
    /// on a 1x1 column domain both stay bit-exact.
    #[test]
    fn fusion_on_one_wide_domains_is_bit_exact() {
        // OTF: domain [1, 8, 4], consumer reads tmp at j +- 1.
        let mut g = Sdfg::new("thin");
        let l = Layout::new([1, 8, 4], [1, 2, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let tmp = g.add_container("tmp", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([1, 8, 4]);
        let mut p = Kernel::new("prod", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p.stmts.push(Stmt::full(
            LValue::Field(tmp),
            Expr::c(2.0) * Expr::load(a, 0, 0, 0),
        ));
        p.stmts[0].extent = crate::kernel::Extent2 {
            i_lo: 0,
            i_hi: 0,
            j_lo: 1,
            j_hi: 1,
        };
        let mut c = Kernel::new("cons", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(tmp, 0, -1, 0) + Expr::load(tmp, 0, 1, 0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(p));
        s.nodes.push(DataflowNode::Kernel(c));
        g.add_state(s);
        let before = run_and_get(&g, a, out);
        fuse_otf(&mut g, 0, 0, 1).expect("OTF applies on a 1-wide domain");
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);

        // SGF: 1x1 column domain, pointwise chain.
        let mut g2 = Sdfg::new("column");
        let l2 = Layout::new([1, 1, 6], [0, 0, 0], StorageOrder::IContiguous, 1);
        let a2 = g2.add_container("a", l2.clone(), false);
        let t2 = g2.add_container("t", l2.clone(), true);
        let o2 = g2.add_container("out", l2, false);
        let dom2 = Domain::from_shape([1, 1, 6]);
        let mut k1 = Kernel::new("add", dom2, KOrder::Parallel, Schedule::gpu_horizontal());
        k1.stmts.push(Stmt::full(
            LValue::Field(t2),
            Expr::load(a2, 0, 0, 0) + Expr::c(1.0),
        ));
        let mut k2 = Kernel::new("mul", dom2, KOrder::Parallel, Schedule::gpu_horizontal());
        k2.stmts.push(Stmt::full(
            LValue::Field(o2),
            Expr::load(t2, 0, 0, 0) * Expr::c(3.0),
        ));
        let mut s2 = State::new("s");
        s2.nodes.push(DataflowNode::Kernel(k1));
        s2.nodes.push(DataflowNode::Kernel(k2));
        g2.add_state(s2);
        let before2 = run_and_get(&g2, a2, o2);
        fuse_subgraph(&mut g2, 0, 0).expect("SGF applies on a 1x1 column");
        assert_eq!(g2.kernel_count(), 1);
        let after2 = run_and_get(&g2, a2, o2);
        assert_eq!(before2.max_abs_diff(&after2), 0.0);
    }

    #[test]
    fn greedy_fusions_reduce_kernel_count() {
        let (mut g, a, out) = sgf_sdfg();
        let before = run_and_get(&g, a, out);
        let applied = greedy_subgraph_fusion(&mut g);
        assert_eq!(applied.len(), 1);
        assert_eq!(g.kernel_count(), 1);
        let after = run_and_get(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);

        let (mut g2, a2, out2) = otf_sdfg();
        let before2 = run_and_get(&g2, a2, out2);
        let applied2 = greedy_otf_fusion(&mut g2);
        assert_eq!(applied2.len(), 1);
        let after2 = run_and_get(&g2, a2, out2);
        assert_eq!(before2.max_abs_diff(&after2), 0.0);
    }
}
