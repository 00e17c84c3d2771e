//! State scoring: static machine model vs measured cutout execution.
//!
//! Both tuning phases rank candidate transformations by the time of the
//! state they rewrite. The paper's default scorer is the static machine
//! model (Section VI-A); its "model-driven fine tuning" stage (Fig. 7)
//! closes the loop by *measuring* the candidates where the model is
//! suspect. [`StateScorer`] abstracts over the two: [`ModelScorer`] sums
//! modeled kernel costs (the original behavior, bit-for-bit), and
//! [`MeasuredScorer`] actually executes the state's cutout and scores it
//! by measured kernel seconds.
//!
//! A scorer is handed a [`StateView`], not a state: a live state's node
//! list with at most one planned fusion swapped in. Pricing a candidate
//! builds nothing — the model sums the standing nodes' costs, each taken
//! once while its node stands ([`NodeCosts`]), and the one fused kernel's
//! — and only a measurement builds the trial state it runs.

use dataflow::exec::{DataStore, Executor, NoHooks};
use dataflow::graph::{DataflowNode, State};
use dataflow::kernel::Kernel;
use dataflow::model::CostModel;
use dataflow::transforms::fusion::FusionPlan;
use dataflow::{Array3, Sdfg};
use std::cell::Cell;
use std::sync::Arc;

/// A state as a scorer sees it: a state's node list, with at most one
/// planned fusion swapped in (the fused kernel in the kept slot, the
/// removed node gone), and optionally the model costs already taken from
/// its standing nodes.
#[derive(Clone, Copy)]
pub struct StateView<'a> {
    state: &'a State,
    swap: Option<&'a FusionPlan>,
    costs: Option<&'a NodeCosts>,
}

impl<'a> StateView<'a> {
    /// `state` as it stands.
    pub fn of(state: &'a State) -> Self {
        StateView {
            state,
            swap: None,
            costs: None,
        }
    }

    /// The state of `sdfg` that `plan` rewrites, as a commit would leave it.
    pub fn planned(sdfg: &'a Sdfg, plan: &'a FusionPlan) -> Self {
        StateView {
            swap: Some(plan),
            ..Self::of(&sdfg.states[plan.state()])
        }
    }

    /// Price the standing nodes from `costs` (kept for this state's node
    /// list by one model scorer) instead of profiling them again.
    pub fn with_costs(self, costs: &'a NodeCosts) -> Self {
        assert_eq!(costs.0.len(), self.state.nodes.len(), "costs follow the node list");
        StateView {
            costs: Some(costs),
            ..self
        }
    }

    /// The view's kernels in node order: a standing kernel with its node
    /// index, the planned fused kernel with `None`.
    fn kernels(self) -> impl Iterator<Item = (Option<usize>, &'a Kernel)> {
        let swap = self.swap;
        let (keep, drop) = swap.map_or((None, None), |p| (Some(p.kept_node()), Some(p.removed_node())));
        self.state.nodes.iter().enumerate().filter_map(move |(i, node)| match node {
            _ if Some(i) == drop => None,
            _ if Some(i) == keep => swap.map(|p| (None, &p.kernel)),
            DataflowNode::Kernel(k) => Some((Some(i), k)),
            _ => None,
        })
    }

    /// The state the view shows, built: a clone of the state, or the
    /// plan's [`FusionPlan::trial_state`].
    fn to_state(self, sdfg: &Sdfg) -> State {
        match self.swap {
            Some(plan) => plan.trial_state(sdfg),
            None => self.state.clone(),
        }
    }
}

/// One state's per-node model costs, aligned with its node list: a node's
/// cost is taken the first time a view prices it and kept while the node
/// stands. [`commit`](Self::commit) follows a fusion's commit, so a
/// hill-climb profiles each kernel once, not once per candidate.
#[derive(Debug)]
pub struct NodeCosts(Vec<Cell<Option<f64>>>);

impl NodeCosts {
    /// No cost taken yet, one slot per node of `state`.
    pub fn new(state: &State) -> Self {
        NodeCosts(state.nodes.iter().map(|_| Cell::new(None)).collect())
    }

    /// Follow `plan`'s commit: the fused node's cost is taken afresh, the
    /// removed node's slot goes.
    pub fn commit(&mut self, plan: &FusionPlan) {
        self.0[plan.kept_node()] = Cell::new(None);
        self.0.remove(plan.removed_node());
    }
}

/// Scores a view over `sdfg`'s containers and parameters; lower is
/// better. Tuning only compares scores of the *same* state before/after a
/// rewrite, so scorers need to be consistent, not calibrated.
pub trait StateScorer {
    fn state_time(&mut self, sdfg: &Sdfg, view: StateView) -> f64;
}

/// The static scorer: modeled kernel cost summed over the state.
pub struct ModelScorer<'a> {
    pub model: &'a CostModel,
}

impl StateScorer for ModelScorer<'_> {
    /// `Iterator::sum` of the view's kernel costs in node order: bit for
    /// bit the sum over the built trial state, whose kernels are the same
    /// in the same order.
    fn state_time(&mut self, sdfg: &Sdfg, view: StateView) -> f64 {
        let cost = |k: &Kernel| self.model.kernel_cost(k, sdfg).time;
        view.kernels()
            .map(|(slot, k)| match (slot, view.costs) {
                (Some(i), Some(costs)) => {
                    let cell = &costs.0[i];
                    cell.get().unwrap_or_else(|| {
                        let t = cost(k);
                        cell.set(Some(t));
                        t
                    })
                }
                _ => cost(k),
            })
            .sum()
    }
}

/// The measured scorer: execute the state as a standalone cutout on the
/// serial host executor and score it by the executor's kernel seconds
/// (minimum over `repeats` runs, to reject scheduling noise).
///
/// Inputs are filled deterministically (same values for every candidate,
/// all in `[0.5, 1.5)` so powers and divisions stay well-conditioned);
/// halo exchanges and callbacks inside the cutout are no-ops, exactly as
/// the static model ignores them at state scope.
pub struct MeasuredScorer {
    pub repeats: usize,
    /// Parameter values for `Expr::Param` references (must match
    /// `sdfg.params` in length).
    pub params: Vec<f64>,
    /// Optional seed data: when set, each measurement run starts from
    /// this store's inputs instead of the synthetic hash fill, so the
    /// kernels see realistic magnitudes (zero tracer fields, ~1e4 Pa
    /// pressures) whose transcendental and denormal costs the synthetic
    /// fill cannot reproduce. Built for the same containers; its
    /// non-transient arrays are copied into a store built for each cutout
    /// ([`DataStore::copy_inputs`]).
    seed: Option<DataStore>,
}

impl MeasuredScorer {
    pub fn new(repeats: usize, params: Vec<f64>) -> Self {
        assert!(repeats > 0, "need at least one measurement run");
        MeasuredScorer {
            repeats,
            params,
            seed: None,
        }
    }

    /// [`new`](Self::new), measuring from the inputs of `seed` (e.g. the
    /// initialized model state) instead of the synthetic fill.
    pub fn with_seed(repeats: usize, params: Vec<f64>, seed: DataStore) -> Self {
        let mut s = Self::new(repeats, params);
        s.seed = Some(seed);
        s
    }
}

/// Deterministic pseudo-random fill value in `[0.5, 1.5)` for container
/// `c`, logical element `(i, j, k)` (halo coordinates are negative).
fn fill_value(c: usize, i: i64, j: i64, k: i64) -> f64 {
    let h = (c as u64).wrapping_mul(0x9e37_79b9)
        ^ (i as u64).wrapping_mul(0x85eb_ca6b)
        ^ (j as u64).wrapping_mul(0xc2b2_ae35)
        ^ (k as u64).wrapping_mul(0x27d4_eb2f);
    0.5 + (h & 0xffff) as f64 / 65536.0
}

impl StateScorer for MeasuredScorer {
    fn state_time(&mut self, sdfg: &Sdfg, view: StateView) -> f64 {
        // Standalone cutout: the program's containers and parameters, and
        // the one state under test as the whole control flow.
        let mut cut = Sdfg::new(sdfg.name.as_str());
        cut.containers = sdfg.containers.clone();
        cut.params = sdfg.params.clone();
        cut.add_state(view.to_state(sdfg));
        assert_eq!(
            self.params.len(),
            cut.params.len(),
            "measured scorer params must match the program's"
        );
        // The cutout's own store: its packing follows the cutout, which
        // keeps other transients live together than the seed's graph.
        let mut inputs = DataStore::for_sdfg(&cut);
        match &self.seed {
            Some(seed) => inputs.copy_inputs(&cut, seed),
            None => {
                for (c, cont) in cut.containers.iter().enumerate() {
                    if cont.transient {
                        continue;
                    }
                    let id = dataflow::DataId(c);
                    let fill = Array3::from_fn(cut.layout_of(id), |i, j, k| fill_value(c, i, j, k));
                    match cont.constant {
                        true => inputs.lend_constant(id, &Arc::new(fill)),
                        false => *inputs.get_mut(id) = fill,
                    }
                }
            }
        }
        let exec = Executor::serial();
        let mut best = f64::INFINITY;
        for _ in 0..self.repeats {
            let mut store = inputs.clone();
            let report = exec.run(&cut, &mut store, &self.params, &mut NoHooks);
            best = best.min(report.wall_seconds);
        }
        best
    }
}

/// Measured veto over model-proposed rewrites — the "model-driven fine
/// tuning" arrow of Fig. 7. The model *ranks* candidates (deterministic,
/// fast); the veto *measures* the rewritten cutout and commits only if
/// ground truth improves by more than `margin` (relative), rejecting
/// candidates the model mis-prices (e.g. recompute-heavy OTF on an
/// interpreter host, or fusions that collapse the executor's (j, k)
/// row parallelism).
pub struct Vet<'a> {
    pub scorer: &'a mut dyn StateScorer,
    /// Required relative improvement; filters measurement noise so
    /// near-neutral candidates are consistently rejected.
    pub margin: f64,
}

impl Vet<'_> {
    /// Whether committing `plan` to `sdfg` is a measured win on the state
    /// it rewrites.
    pub fn passes(&mut self, sdfg: &Sdfg, plan: &FusionPlan) -> bool {
        let b = self.scorer.state_time(sdfg, StateView::of(&sdfg.states[plan.state()]));
        let a = self.scorer.state_time(sdfg, StateView::planned(sdfg, plan));
        a < b * (1.0 - self.margin)
    }

    /// Cross-state form: states `first` and `first + 1` of `before`
    /// merged (and fused) into state `first` of `after`.
    pub fn passes_merge(&mut self, before: &Sdfg, after: &Sdfg, first: usize) -> bool {
        let b = self.scorer.state_time(before, StateView::of(&before.states[first]))
            + self.scorer.state_time(before, StateView::of(&before.states[first + 1]));
        let a = self.scorer.state_time(after, StateView::of(&after.states[first]));
        a < b * (1.0 - self.margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::graph::DataflowNode;
    use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use dataflow::storage::{Layout, StorageOrder};
    use dataflow::{BinOp, Expr};
    use machine::{GpuModel, GpuSpec};

    fn copy_state(g: &mut Sdfg, name: &str, shape: [usize; 3]) {
        let l = Layout::new(shape, [0, 0, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container(format!("{name}_in"), l.clone(), false);
        let o = g.add_container(format!("{name}_out"), l, false);
        let mut k = Kernel::new(
            format!("{name}#0"),
            Domain::from_shape(shape),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(o), Expr::load(a, 0, 0, 0)));
        let mut s = State::new(name);
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
    }

    fn pow_state(g: &mut Sdfg, name: &str, shape: [usize; 3], chain: usize) {
        let l = Layout::new(shape, [0, 0, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container(format!("{name}_in"), l.clone(), false);
        let o = g.add_container(format!("{name}_out"), l, false);
        let mut e = Expr::load(a, 0, 0, 0);
        for _ in 0..chain {
            e = Expr::bin(BinOp::Pow, e, Expr::c(1.0009765625));
        }
        let mut k = Kernel::new(
            format!("{name}#0"),
            Domain::from_shape(shape),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(LValue::Field(o), e));
        let mut s = State::new(name);
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
    }

    #[test]
    fn model_scorer_matches_direct_model_sum() {
        let mut g = Sdfg::new("m");
        copy_state(&mut g, "c", [32, 32, 8]);
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let direct: f64 = g.states[0]
            .kernels()
            .map(|k| model.kernel_cost(k, &g).time)
            .sum();
        let mut scorer = ModelScorer { model: &model };
        assert_eq!(scorer.state_time(&g, StateView::of(&g.states[0])), direct);
    }

    #[test]
    fn measured_scorer_times_are_positive_and_deterministic_inputs() {
        let mut g = Sdfg::new("m");
        copy_state(&mut g, "c", [16, 16, 4]);
        let mut scorer = MeasuredScorer::new(2, vec![]);
        let t = scorer.state_time(&g, StateView::of(&g.states[0]));
        assert!(t > 0.0 && t.is_finite());
        assert_eq!(fill_value(3, 1, 2, 4), fill_value(3, 1, 2, 4));
        let v = fill_value(0, 0, 0, 0);
        assert!((0.5..1.5).contains(&v));
    }

    /// The satellite case: two candidates where the static model is
    /// *constructed to be wrong* — its transcendental rate is absurdly
    /// high, so a pow-chain kernel over a small domain models as far
    /// cheaper than a plain copy over a big domain, while on the actual
    /// host the pow chain dominates. The measured scorer must rank the
    /// candidates by ground truth where the wrong model misranks them.
    #[test]
    fn measured_ranking_beats_a_wrong_static_model() {
        let mut g = Sdfg::new("two_candidates");
        pow_state(&mut g, "cand_a", [32, 32, 8], 32); // small, pow-heavy
        copy_state(&mut g, "cand_b", [64, 64, 16], ); // 8x the points, no math
        let wrong_spec = GpuSpec {
            transcendental_rate: 1e30, // pow is "free" to this model
            ..GpuSpec::p100()
        };
        let wrong = CostModel::Gpu(GpuModel::new(wrong_spec));

        let mut model_scorer = ModelScorer { model: &wrong };
        let (a, b) = (StateView::of(&g.states[0]), StateView::of(&g.states[1]));
        let (ma, mb) = (model_scorer.state_time(&g, a), model_scorer.state_time(&g, b));
        assert!(
            ma < mb,
            "the wrong model must misrank: pow kernel modeled cheaper ({ma} vs {mb})"
        );

        let mut measured = MeasuredScorer::new(3, vec![]);
        let (ta, tb) = (measured.state_time(&g, a), measured.state_time(&g, b));
        assert!(
            ta > tb,
            "measured ranking must follow ground truth: pow chain slower ({ta} vs {tb})"
        );
    }
}
