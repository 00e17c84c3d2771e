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
//! A scorer is handed a [`State`], not an index: a live state, or the
//! *trial state* of a planned fusion (`FusionPlan::trial_state`) that is in
//! no graph — scoring a candidate costs one state, never a program copy.

use dataflow::exec::{DataStore, Executor, NoHooks};
use dataflow::graph::State;
use dataflow::model::CostModel;
use dataflow::{Array3, Sdfg};
use std::sync::Arc;

/// Scores `state` over `sdfg`'s containers and parameters; lower is
/// better. Tuning only compares scores of the *same* state before/after a
/// rewrite, so scorers need to be consistent, not calibrated.
pub trait StateScorer {
    fn state_time(&mut self, sdfg: &Sdfg, state: &State) -> f64;
}

/// The static scorer: modeled kernel cost summed over the state.
pub struct ModelScorer<'a> {
    pub model: &'a CostModel,
}

impl StateScorer for ModelScorer<'_> {
    fn state_time(&mut self, sdfg: &Sdfg, state: &State) -> f64 {
        state
            .kernels()
            .map(|k| self.model.kernel_cost(k, sdfg).time)
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
    fn state_time(&mut self, sdfg: &Sdfg, state: &State) -> f64 {
        // Standalone cutout: the program's containers and parameters, and
        // the one state under test as the whole control flow.
        let mut cut = Sdfg::new(sdfg.name.as_str());
        cut.containers = sdfg.containers.clone();
        cut.params = sdfg.params.clone();
        cut.add_state(state.clone());
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
    /// Whether rewriting state `before` of `sdfg` into the trial state
    /// `after` is a measured win.
    pub fn passes(&mut self, sdfg: &Sdfg, before: &State, after: &State) -> bool {
        let b = self.scorer.state_time(sdfg, before);
        let a = self.scorer.state_time(sdfg, after);
        a < b * (1.0 - self.margin)
    }

    /// Cross-state form: states `first` and `first + 1` of `before`
    /// merged (and fused) into state `first` of `after`.
    pub fn passes_merge(&mut self, before: &Sdfg, after: &Sdfg, first: usize) -> bool {
        let b = self.scorer.state_time(before, &before.states[first])
            + self.scorer.state_time(before, &before.states[first + 1]);
        let a = self.scorer.state_time(after, &after.states[first]);
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
        assert_eq!(scorer.state_time(&g, &g.states[0]), direct);
    }

    #[test]
    fn measured_scorer_times_are_positive_and_deterministic_inputs() {
        let mut g = Sdfg::new("m");
        copy_state(&mut g, "c", [16, 16, 4]);
        let mut scorer = MeasuredScorer::new(2, vec![]);
        let t = scorer.state_time(&g, &g.states[0]);
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
        let (a, b) = (&g.states[0], &g.states[1]);
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
