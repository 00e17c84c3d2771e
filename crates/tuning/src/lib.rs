//! Transfer tuning (Section VI-B) — the paper's novel auto-tuning method.
//!
//! "Exploring the configuration space of transformations for the entire
//! dynamical core is infeasible"; but "certain motifs recur often in
//! weather and climate codes". Transfer tuning therefore runs in two
//! phases:
//!
//! 1. **Cutout tuning** ([`search`]): the program is divided into cutout
//!    subgraphs (we use dataflow states, as the paper does for FVT's 127
//!    states); each cutout's transformation configurations are searched
//!    exhaustively against the machine model, keeping the best `M`.
//! 2. **Transfer** ([`transfer`]): the winning configurations are
//!    described as *patterns* — "a set of labels of the candidates and
//!    which transformations were applied" (stencil kernels are named) —
//!    and matched throughout the full graph, applying each match only if
//!    it also improves the local modeled cost.
//!
//! The hierarchy follows the paper: on-the-fly fusion (OTF) first, then
//! subgraph fusion (SGF) on the OTF-optimized cutouts.

pub mod cutout;
pub mod measure;
pub mod pattern;
pub mod search;
pub mod transfer;

pub use cutout::{extract_cutouts, Cutout};
pub use measure::{MeasuredScorer, ModelScorer, StateScorer, Vet};
pub use pattern::Pattern;
pub use search::{tune_cutouts, SearchReport};
pub use transfer::{transfer_patterns, TransferReport};

use dataflow::model::{model_sdfg, CostModel};
use dataflow::transforms::cross_state::cross_module_fusion;
use dataflow::transforms::Applied;
use dataflow::Sdfg;

/// Everything the whole-program pipeline did to a graph, with the modeled
/// before/after so drivers can report the Table III analogue.
#[derive(Debug, Clone, Default)]
pub struct AutotuneReport {
    /// Cross-module fusions applied across state boundaries (phase 1).
    pub cross_module: Vec<Applied>,
    /// Cutout-search report (phase 2).
    pub search: SearchReport,
    /// Whole-graph pattern-transfer report (phase 3).
    pub transfer: TransferReport,
    /// Static kernel count before/after the pipeline.
    pub kernels_before: usize,
    pub kernels_after: usize,
    /// Modeled total kernel seconds before/after (same cost model).
    pub modeled_before: f64,
    pub modeled_after: f64,
}

impl AutotuneReport {
    /// Modeled speedup factor (>= 1 when the pipeline helped).
    fn modeled_speedup(&self) -> f64 {
        if self.modeled_after > 0.0 {
            self.modeled_before / self.modeled_after
        } else {
            1.0
        }
    }

    /// One-line human summary for logs and BENCH provenance.
    pub fn summary(&self) -> String {
        format!(
            "autotune: {} cross-module + {} transferred fusions, kernels {} -> {}, modeled {:.3}ms -> {:.3}ms ({:.2}x)",
            self.cross_module.len(),
            self.transfer.applied.len(),
            self.kernels_before,
            self.kernels_after,
            self.modeled_before * 1e3,
            self.modeled_after * 1e3,
            self.modeled_speedup(),
        )
    }
}

/// Whole-program tuning pipeline (the closed Fig. 7 loop): cross-module
/// fusion across state boundaries, then cutout search over *every* state,
/// then pattern transfer across the entire graph. Deterministic and purely
/// model-driven, so it is safe to run at compile/build time on the serving
/// path; every applied transform is bit-exact (state merges preserve the
/// flattened execution order, OTF/SGF preserve per-point arithmetic), so
/// the tuned program is 0-ULP identical to the untuned one.
///
/// Mutates `sdfg` in place (bumping its generation via the transforms'
/// `touch` calls) and returns what happened.
pub fn autotune(sdfg: &mut Sdfg, model: &CostModel, m_otf: usize) -> AutotuneReport {
    tune_whole_program(sdfg, model, m_otf, None)
}

/// [`autotune`] with the Fig. 7 loop *closed by measurement*: the static
/// model still ranks candidates (cheap, deterministic, exhaustive), but
/// every committed step — each cross-module merge, each hill-climb
/// application, each transferred match — must additionally survive a
/// measured re-execution of the rewritten state at the actual build size.
/// This catches the transforms a static model cannot price: OTF recompute
/// on an interpreter host, and subgraph fusions that collapse the
/// executor's (j, k) row parallelism by merging parallel chains into
/// k-serial solver kernels.
///
/// `measured` executes the cutouts — seed it with the initialized model
/// state ([`MeasuredScorer::with_seed`]) so the veto prices transcendental
/// and recompute costs on the magnitudes the kernels will actually see.
/// `margin` is the relative improvement a candidate must clear, filtering
/// measurement noise so near-neutral rewrites are consistently rejected:
/// candidates within `margin` of neutral can land either way across hosts
/// — which is exactly the set where either answer is fine.
pub fn autotune_vetted_scored(
    sdfg: &mut Sdfg,
    model: &CostModel,
    m_otf: usize,
    measured: &mut dyn StateScorer,
    margin: f64,
) -> AutotuneReport {
    let mut vet = Vet {
        scorer: measured,
        margin,
    };
    tune_whole_program(sdfg, model, m_otf, Some(&mut vet))
}

/// The whole-program pipeline behind [`autotune`] (no `vet`) and
/// [`autotune_vetted_scored`]: `model` ranks, `vet` confirms each commit.
fn tune_whole_program(
    sdfg: &mut Sdfg,
    model: &CostModel,
    m_otf: usize,
    mut vet: Option<&mut Vet>,
) -> AutotuneReport {
    let modeled_before = model_sdfg(sdfg, model, &|_| 0.0).total_time;
    let kernels_before = sdfg.kernel_count();

    // Phase 1: fuse producer/consumer kernels across module boundaries so
    // the per-state cutout search below sees the widened states.
    let cross_module = cross_module_fusion(sdfg, &mut |before, after, first| {
        vet.as_deref_mut()
            .is_none_or(|v| v.passes_merge(before, after, first))
    });

    // Phases 2+3: cutout-tune every state (empty slice = all) and
    // re-apply the winning patterns across the whole graph.
    let cutouts = extract_cutouts(sdfg, &[]);
    let mut ranker = ModelScorer { model };
    let search = tune_cutouts(sdfg, &cutouts, &mut ranker, vet.as_deref_mut(), m_otf);
    let transfer = transfer_patterns(sdfg, &search.patterns, &mut ranker, vet);

    let modeled_after = model_sdfg(sdfg, model, &|_| 0.0).total_time;
    AutotuneReport {
        cross_module,
        search,
        transfer,
        kernels_before,
        kernels_after: sdfg.kernel_count(),
        modeled_before,
        modeled_after,
    }
}

/// Full hierarchical transfer tuning: tune OTF then SGF on the cutouts of
/// `source_states` (e.g. the FVT module), then transfer the best `m_otf`
/// OTF and the single best SGF configuration of each cutout to the whole
/// graph. Returns the reports and mutates `sdfg` in place.
pub fn transfer_tune(
    sdfg: &mut Sdfg,
    source_states: &[usize],
    model: &CostModel,
    m_otf: usize,
) -> (SearchReport, TransferReport) {
    let cutouts = extract_cutouts(sdfg, source_states);
    let mut ranker = ModelScorer { model };
    let search = tune_cutouts(sdfg, &cutouts, &mut ranker, None, m_otf);
    let transfer = transfer_patterns(sdfg, &search.patterns, &mut ranker, None);
    (search, transfer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::graph::{DataflowNode, State};
    use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use dataflow::model::model_sdfg;
    use dataflow::storage::{Layout, StorageOrder};
    use dataflow::{DataId, Expr};
    use machine::{GpuModel, GpuSpec};

    /// A program with a repeated pointwise-chain motif in several states:
    /// the first state is tuned, the rest receive the pattern.
    fn motif_program(states: usize) -> Sdfg {
        let mut g = Sdfg::new("motif");
        let l = Layout::new([48, 48, 16], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let out = g.add_container("out", l.clone(), false);
        for s in 0..states {
            let t = g.add_container(format!("t{s}"), l.clone(), true);
            let dom = Domain::from_shape([48, 48, 16]);
            let mut k1 = Kernel::new("scale#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
            k1.stmts.push(Stmt::full(
                LValue::Field(t),
                Expr::load(a, 0, 0, 0) * Expr::c(2.0),
            ));
            let mut k2 = Kernel::new("shift#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
            k2.stmts.push(Stmt::full(
                LValue::Field(out),
                Expr::load(t, 0, 0, 0) + Expr::c(1.0),
            ));
            let mut st = State::new(format!("s{s}"));
            st.nodes.push(DataflowNode::Kernel(k1));
            st.nodes.push(DataflowNode::Kernel(k2));
            g.add_state(st);
        }
        g
    }

    #[test]
    fn transfer_tuning_improves_whole_program() {
        let mut g = motif_program(5);
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let before = model_sdfg(&g, &model, &|_| 0.0).total_time;

        let (uid, generation) = (g.uid(), g.generation());
        let (search, transfer) = transfer_tune(&mut g, &[0], &model, 2);
        assert_eq!(g.uid(), uid, "transfer commits in place: same graph identity");
        assert!(g.generation() > generation, "every commit bumps the generation");
        assert!(
            !search.patterns.is_empty(),
            "tuning the cutout must find a fusion"
        );
        assert!(
            transfer.applied.len() >= 4,
            "pattern must transfer to the other states: {:?}",
            transfer.applied
        );
        let after = model_sdfg(&g, &model, &|_| 0.0).total_time;
        assert!(after < before, "modeled time must improve: {after} vs {before}");
    }

    #[test]
    fn transfer_preserves_semantics() {
        use dataflow::exec::{DataStore, Executor, NoHooks};
        let mut g = motif_program(3);
        let a = DataId(0);
        let out = DataId(1);
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));

        let run = |g: &Sdfg| {
            let mut store = DataStore::for_sdfg(g);
            *store.get_mut(a) =
                dataflow::Array3::from_fn(g.layout_of(a), |i, j, k| (i + j * 2 + k * 3) as f64);
            Executor::serial().run(g, &mut store, &[], &mut NoHooks);
            store.get(out).clone()
        };
        let before = run(&g);
        transfer_tune(&mut g, &[0], &model, 2);
        let after = run(&g);
        assert_eq!(before.max_abs_diff(&after), 0.0);
    }

    /// A producer state feeding a consumer state (cross-module shape) in
    /// front of the intra-state motif states.
    fn cross_module_program() -> Sdfg {
        let mut g = motif_program(3);
        let l = Layout::new([48, 48, 16], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = DataId(0);
        let xm = g.add_container("xm", l.clone(), true);
        let out2 = g.add_container("out2", l, false);
        let dom = Domain::from_shape([48, 48, 16]);
        let mut p = Kernel::new("xprod#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        p.stmts.push(Stmt::full(
            LValue::Field(xm),
            Expr::load(a, 0, 0, 0) * Expr::c(4.0),
        ));
        let mut c = Kernel::new("xcons#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        c.stmts.push(Stmt::full(
            LValue::Field(out2),
            Expr::load(xm, 0, 0, 0) + Expr::c(0.5),
        ));
        let mut sp = State::new("mod_a");
        sp.nodes.push(DataflowNode::Kernel(p));
        let mut sc = State::new("mod_b");
        sc.nodes.push(DataflowNode::Kernel(c));
        g.add_state(sp);
        g.add_state(sc);
        g
    }

    #[test]
    fn autotune_fuses_across_and_within_states_bit_exactly() {
        use dataflow::exec::{DataStore, Executor, NoHooks};
        let mut g = cross_module_program();
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let a = DataId(0);
        let out = DataId(1);
        let out2 = g.find_container("out2").unwrap();

        let run = |g: &Sdfg| {
            let mut store = DataStore::for_sdfg(g);
            *store.get_mut(a) =
                dataflow::Array3::from_fn(g.layout_of(a), |i, j, k| (i + j * 2 + k * 3) as f64);
            Executor::serial().run(g, &mut store, &[], &mut NoHooks);
            (store.get(out).clone(), store.get(out2).clone())
        };
        let (b1, b2) = run(&g);
        let (uid, gen_before) = (g.uid(), g.generation());
        let report = autotune(&mut g, &model, 2);
        assert_eq!(g.uid(), uid, "tuning must keep the graph's identity");
        assert!(
            !report.cross_module.is_empty(),
            "the mod_a -> mod_b producer/consumer pair must fuse across the boundary"
        );
        assert!(
            !report.search.patterns.is_empty(),
            "the intra-state motif must yield a cutout pattern"
        );
        // 1 cross-module fusion + the motif fusion in each of the 3 states
        // (landed either directly by the cutout search or by transfer).
        assert!(
            report.kernels_before - report.kernels_after >= 4,
            "expected >= 4 fusions, kernels {} -> {}",
            report.kernels_before,
            report.kernels_after
        );
        assert!(report.modeled_after < report.modeled_before);
        assert!(report.modeled_speedup() > 1.0);
        assert!(g.generation() > gen_before, "tuning must bump the cache generation");
        let (a1, a2) = run(&g);
        assert_eq!(b1.max_abs_diff(&a1), 0.0, "tuned program must be bit-identical");
        assert_eq!(b2.max_abs_diff(&a2), 0.0, "tuned program must be bit-identical");
        assert!(report.summary().contains("autotune:"));
    }

    #[test]
    fn measured_mode_fuses_and_preserves_semantics() {
        use dataflow::exec::{DataStore, Executor, NoHooks};
        let a = DataId(0);
        let out = DataId(1);

        let run = |g: &Sdfg| {
            let mut store = DataStore::for_sdfg(g);
            *store.get_mut(a) =
                dataflow::Array3::from_fn(g.layout_of(a), |i, j, k| (i + j * 2 + k * 3) as f64);
            Executor::serial().run(g, &mut store, &[], &mut NoHooks);
            store.get(out).clone()
        };
        // Wall-clock scoring is noisy when the test host is loaded (the
        // rest of the workspace suite runs in parallel), so allow a few
        // fresh attempts before declaring the fusion unprofitable.
        let mut found = false;
        for _ in 0..5 {
            let mut g = motif_program(3);
            let before = run(&g);
            // A measured scorer as the ranker of both phases.
            let mut ranker = MeasuredScorer::new(3, vec![]);
            let cutouts = extract_cutouts(&g, &[0]);
            let search = tune_cutouts(&mut g, &cutouts, &mut ranker, None, 2);
            transfer_patterns(&mut g, &search.patterns, &mut ranker, None);
            let after = run(&g);
            assert_eq!(before.max_abs_diff(&after), 0.0);
            if !search.patterns.is_empty() {
                found = true;
                break;
            }
        }
        assert!(found, "measured scorer must still find the profitable fusion");
    }
}
