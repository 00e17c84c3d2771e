//! Phase one: exhaustive configuration search per cutout.
//!
//! For each cutout, every (producer, consumer) pair is a candidate OTF
//! configuration and every adjacent pair a candidate SGF configuration.
//! Each candidate is *planned* against the program (legality and the fused
//! kernel, nothing applied); a legal one is scored on its view — the
//! cutout's node list with the planned kernel swapped in, built only if a
//! measurement runs it — and the best `M` OTF plus the single best SGF
//! configurations per cutout become transferable patterns ("the best (M=2)
//! configurations of each cutout for OTF and the single best for SGF").
//! The searched cutouts themselves are hill-climbed to a fixpoint — they
//! are part of the program being optimized, and long pointwise chains
//! collapse into single launches — by committing the winning plan in place.

use crate::cutout::Cutout;
use crate::measure::{NodeCosts, StateScorer, StateView, Vet};
use crate::pattern::{Pattern, PatternKind};
use dataflow::transforms::fusion::{plan_otf, plan_subgraph, FusionPlan};
use dataflow::transforms::UsageMap;
use dataflow::Sdfg;

/// Outcome of phase one.
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Transferable patterns, best first.
    pub patterns: Vec<Pattern>,
    /// Configurations evaluated (the paper reports 1,272 for FVT).
    pub configurations: usize,
    /// Cutouts tuned.
    pub cutouts: usize,
}

/// Tune the cutouts: hill-climb each to a fixpoint (repeatedly apply the
/// best improving candidate and re-enumerate), recording the pristine
/// cutout's best configurations as transferable patterns. `ranker` scores
/// the candidates — a [`ModelScorer`](crate::measure::ModelScorer) for the
/// static machine model, a
/// [`MeasuredScorer`](crate::measure::MeasuredScorer) for measured cutout
/// time.
///
/// A single application per cutout leaves chains on the table: a state
/// of N pairwise-fusable pointwise kernels (the Riemann solver expands
/// to 10 of them) should collapse to *one* launch, not N-1. So each
/// cutout is hill-climbed: apply the best improving candidate, rebuild
/// the candidate list against the transformed state, repeat until no
/// candidate improves the ranked time. Every step is individually
/// legality-checked, so the fixpoint is reached only through bit-exact
/// rewrites. The program's usage map and the cutout's node costs are
/// taken once and carried across each commit, so a round prices each
/// candidate by its one fused kernel.
///
/// With a measured [`Vet`], each hill-climb step walks the ranked
/// candidates and applies the *best one the measurement confirms*, so the
/// committed fixpoint contains only ground-truth wins. Rejected candidates
/// are remembered (by kind and labels) and not re-measured in later
/// rounds.
pub fn tune_cutouts(
    sdfg: &mut Sdfg,
    cutouts: &[Cutout],
    scorer: &mut dyn StateScorer,
    mut vet: Option<&mut Vet>,
    m_otf: usize,
) -> SearchReport {
    let mut report = SearchReport {
        cutouts: cutouts.len(),
        ..Default::default()
    };
    let mut usage = UsageMap::build(sdfg);

    for cutout in cutouts {
        // Node indices of the cutout's surviving kernels; maintained
        // across applications (each fusion removes one node).
        let mut members = cutout.kernels.clone();
        let mut costs = NodeCosts::new(&sdfg.states[cutout.state]);
        let mut first_round = true;
        // Candidates the measured veto already rejected; keyed by kind
        // and labels so they aren't re-measured every round.
        let mut rejected: Vec<(PatternKind, [String; 2])> = Vec::new();
        loop {
            // The graph stands still for a round: one base score, and
            // every plan made in it stays valid.
            let live = StateView::of(&sdfg.states[cutout.state]).with_costs(&costs);
            let base = scorer.state_time(sdfg, live);
            let mut found: Vec<(Pattern, FusionPlan)> = Vec::new();
            let mut consider = |kind, plan: Result<FusionPlan, String>| {
                report.configurations += 1;
                let Ok(plan) = plan else { return };
                let t = scorer.state_time(sdfg, StateView::planned(sdfg, &plan).with_costs(&costs));
                if t < base {
                    let pattern = Pattern {
                        kind,
                        labels: plan.labels.clone(),
                        gain: base - t,
                    };
                    found.push((pattern, plan));
                }
            };

            // OTF candidates: every ordered kernel pair.
            for (pi, &p) in members.iter().enumerate() {
                for &c in members.iter().skip(pi + 1) {
                    let plan = plan_otf(sdfg, &usage, cutout.state, p, c);
                    consider(PatternKind::Otf, plan);
                }
            }
            // SGF candidates: pairs adjacent in the state.
            for w in members.windows(2).filter(|w| w[1] == w[0] + 1) {
                consider(PatternKind::Sgf, plan_subgraph(sdfg, cutout.state, w[0]));
            }

            found.sort_by(|a, b| b.0.gain.partial_cmp(&a.0.gain).unwrap());

            // Transferable patterns come from the pristine cutout only
            // (later rounds see fused labels no other state will match):
            // top-M OTF plus the single best SGF.
            if first_round {
                first_round = false;
                let mut otf_kept = 0;
                let mut sgf_kept = 0;
                for (pat, _) in &found {
                    match pat.kind {
                        PatternKind::Otf if otf_kept < m_otf => {
                            otf_kept += 1;
                            report.patterns.push(pat.clone());
                        }
                        PatternKind::Sgf if sgf_kept < 1 => {
                            sgf_kept += 1;
                            report.patterns.push(pat.clone());
                        }
                        _ => {}
                    }
                }
            }

            // Commit the best candidate the veto confirms (or the overall
            // best when unvetted) and fix up member indices — the fused
            // pair collapses into one node; later indices shift.
            let mut chosen = None;
            for (pat, plan) in found {
                if rejected.iter().any(|r| r.0 == pat.kind && r.1 == pat.labels) {
                    continue;
                }
                if let Some(v) = vet.as_deref_mut() {
                    if !v.passes(sdfg, &plan) {
                        rejected.push((pat.kind, pat.labels));
                        continue;
                    }
                }
                chosen = Some(plan);
                break;
            }
            let Some(plan) = chosen else {
                break;
            };
            let removed = plan.removed_node();
            costs.commit(&plan);
            plan.commit_counted(sdfg, &mut usage);
            members.retain(|&i| i != removed);
            for i in &mut members {
                if *i > removed {
                    *i -= 1;
                }
            }
        }
    }

    report
        .patterns
        .sort_by(|a, b| b.gain.partial_cmp(&a.gain).unwrap());
    report.patterns.dedup_by(|a, b| a.kind == b.kind && a.labels == b.labels);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cutout::extract_cutouts;
    use crate::measure::ModelScorer;
    use dataflow::model::CostModel;
    use dataflow::graph::{DataflowNode, State};
    use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use dataflow::storage::{Layout, StorageOrder};
    use dataflow::Expr;
    use machine::{GpuModel, GpuSpec};

    fn chain_state() -> Sdfg {
        let mut g = Sdfg::new("s");
        let l = Layout::new([32, 32, 8], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let t = g.add_container("t", l.clone(), true);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([32, 32, 8]);
        let mut k1 = Kernel::new("prod#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k1.stmts.push(Stmt::full(
            LValue::Field(t),
            Expr::load(a, 0, 0, 0) * Expr::c(3.0),
        ));
        let mut k2 = Kernel::new("cons#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k2.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(t, 0, 0, 0) - Expr::c(1.0),
        ));
        let mut s = State::new("s0");
        s.nodes.push(DataflowNode::Kernel(k1));
        s.nodes.push(DataflowNode::Kernel(k2));
        g.add_state(s);
        g
    }

    #[test]
    fn search_finds_and_applies_best_fusion() {
        let mut g = chain_state();
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let cutouts = extract_cutouts(&g, &[]);
        let mut ranker = ModelScorer { model: &model };
        let before = ranker.state_time(&g, StateView::of(&g.states[0]));
        let report = tune_cutouts(&mut g, &cutouts, &mut ranker, None, 2);
        assert!(report.configurations >= 2, "OTF pair + SGF pair");
        assert!(!report.patterns.is_empty());
        let after = ranker.state_time(&g, StateView::of(&g.states[0]));
        assert!(after < before);
        assert_eq!(g.states[0].kernel_count(), 1, "pair fused in the cutout");
    }

    #[test]
    fn patterns_are_sorted_by_gain() {
        let mut g = chain_state();
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let cutouts = extract_cutouts(&g, &[]);
        let report = tune_cutouts(&mut g, &cutouts, &mut ModelScorer { model: &model }, None, 2);
        for w in report.patterns.windows(2) {
            assert!(w[0].gain >= w[1].gain);
        }
    }

    #[test]
    fn unfusable_cutouts_produce_no_patterns() {
        let mut g = chain_state();
        // Make the intermediate non-transient and read it twice: OTF
        // rejected; SGF still applies, so break domains too.
        let t = g.find_container("t").unwrap();
        g.containers[t.0].transient = false;
        if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[1] {
            k.domain = Domain::from_shape([16, 16, 8]);
        }
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let cutouts = extract_cutouts(&g, &[]);
        let report = tune_cutouts(&mut g, &cutouts, &mut ModelScorer { model: &model }, None, 2);
        assert!(report.patterns.is_empty());
        assert_eq!(g.states[0].kernel_count(), 2);
    }
}
