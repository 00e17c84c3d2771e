//! Phase two: transfer the learned patterns across the whole program.
//!
//! Patterns are matched by kernel label throughout every state. To prune
//! the match space, "we only consider the first match for each pattern in
//! each state, and only match the most performance-improving pattern";
//! a match is committed only when it "also provide\[s\] a local performance
//! improvement" under the machine model. A match is planned against the
//! program, scored (and vetted) on its trial state, and committed in
//! place: the caller's graph keeps its identity and gains one generation
//! per commit.

use crate::measure::{StateScorer, Vet};
use crate::pattern::{Pattern, PatternKind};
use dataflow::graph::DataflowNode;
use dataflow::transforms::fusion::{plan_otf, plan_subgraph};
use dataflow::transforms::UsageMap;
use dataflow::Sdfg;

/// One committed transfer.
#[derive(Debug, Clone)]
pub struct TransferredMatch {
    pub kind: PatternKind,
    pub state: usize,
    pub labels: [String; 2],
    /// Local modeled improvement in seconds.
    pub gain: f64,
}

/// Outcome of phase two.
#[derive(Debug, Clone, Default)]
pub struct TransferReport {
    pub applied: Vec<TransferredMatch>,
    /// Matches tested (including rejected ones).
    pub tested: usize,
}

/// Apply `patterns` (already sorted most-improving first) to every
/// state, committing a match only when `scorer` sees a local improvement
/// (the static machine model through a
/// [`ModelScorer`](crate::measure::ModelScorer), or measured cutout time
/// through a [`MeasuredScorer`](crate::measure::MeasuredScorer)). With a
/// measured [`Vet`], a match that improves the score locally is still
/// rejected unless the measurement of the rewritten state confirms it;
/// vetoed matches are remembered per state so they aren't re-measured on
/// later rounds.
pub fn transfer_patterns(
    sdfg: &mut Sdfg,
    patterns: &[Pattern],
    scorer: &mut dyn StateScorer,
    mut vet: Option<&mut Vet>,
) -> TransferReport {
    let mut report = TransferReport::default();
    let mut vetoed: Vec<(usize, PatternKind, [String; 2])> = Vec::new();
    for state in 0..sdfg.states.len() {
        // Repeat until no pattern matches this state anymore; each round
        // commits the best pattern's first match. The graph stands still
        // within a round, so its usage map and the state's score are
        // taken once (the score only if a match asks for it).
        loop {
            let usage = UsageMap::build(sdfg);
            let mut before = None;
            let mut committed = None;
            'patterns: for pat in patterns {
                // Find the first label match in this state.
                let live = &sdfg.states[state];
                let kernel_name = |i: usize| match &live.nodes[i] {
                    DataflowNode::Kernel(k) => Some(k.name.as_str()),
                    _ => None,
                };
                let n = live.nodes.len();
                for a in 0..n {
                    let Some(first) = kernel_name(a) else { continue };
                    let partners = match pat.kind {
                        PatternKind::Otf => a + 1..n,
                        PatternKind::Sgf => a + 1..n.min(a + 2),
                    };
                    for b in partners {
                        let Some(second) = kernel_name(b) else { continue };
                        if !pat.matches(first, second) {
                            continue;
                        }
                        report.tested += 1;
                        let plan = match pat.kind {
                            PatternKind::Otf => plan_otf(sdfg, &usage, state, a, b),
                            PatternKind::Sgf => plan_subgraph(sdfg, state, a),
                        };
                        let Ok(plan) = plan else { continue };
                        let before = *before.get_or_insert_with(|| scorer.state_time(sdfg, live));
                        let trial = plan.trial_state(sdfg);
                        let after = scorer.state_time(sdfg, &trial);
                        let improves = after < before;
                        let key = (state, pat.kind, plan.labels.clone());
                        if !improves || vetoed.contains(&key) {
                            continue;
                        }
                        if let Some(v) = vet.as_deref_mut() {
                            if !v.passes(sdfg, live, &trial) {
                                vetoed.push(key);
                                continue;
                            }
                        }
                        report.applied.push(TransferredMatch {
                            kind: pat.kind,
                            state,
                            labels: key.2,
                            gain: before - after,
                        });
                        committed = Some(plan);
                        break 'patterns;
                    }
                }
            }
            match committed {
                Some(plan) => plan.commit(sdfg),
                None => break,
            };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::ModelScorer;
    use dataflow::graph::State;
    use dataflow::model::CostModel;
    use dataflow::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use dataflow::storage::{Layout, StorageOrder};
    use dataflow::Expr;
    use machine::{GpuModel, GpuSpec};

    fn two_state_program() -> Sdfg {
        let mut g = Sdfg::new("t");
        let l = Layout::new([32, 32, 8], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let out = g.add_container("out", l.clone(), false);
        for s in 0..2 {
            let t = g.add_container(format!("t{s}"), l.clone(), true);
            let dom = Domain::from_shape([32, 32, 8]);
            let mut k1 =
                Kernel::new("scale#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
            k1.stmts.push(Stmt::full(
                LValue::Field(t),
                Expr::load(a, 0, 0, 0) * Expr::c(2.0),
            ));
            let mut k2 =
                Kernel::new("shift#0", dom, KOrder::Parallel, Schedule::gpu_horizontal());
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

    fn sgf_pattern() -> Pattern {
        Pattern {
            kind: PatternKind::Sgf,
            labels: ["scale#0".into(), "shift#0".into()],
            gain: 1.0,
        }
    }

    #[test]
    fn pattern_transfers_to_every_matching_state() {
        let mut g = two_state_program();
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let report = transfer_patterns(&mut g, &[sgf_pattern()], &mut ModelScorer { model: &model }, None);
        assert_eq!(report.applied.len(), 2);
        assert_eq!(g.states[0].kernel_count(), 1);
        assert_eq!(g.states[1].kernel_count(), 1);
        assert!(report.applied.iter().all(|m| m.gain > 0.0));
    }

    #[test]
    fn non_matching_pattern_does_nothing() {
        let mut g = two_state_program();
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let pat = Pattern {
            kind: PatternKind::Sgf,
            labels: ["other#0".into(), "shift#0".into()],
            gain: 1.0,
        };
        let report = transfer_patterns(&mut g, &[pat], &mut ModelScorer { model: &model }, None);
        assert!(report.applied.is_empty());
        assert_eq!(g.states[0].kernel_count(), 2);
    }

    #[test]
    fn non_improving_match_is_rejected() {
        let mut g = two_state_program();
        // Make the second kernel's domain differ: SGF precondition fails,
        // so the match is tested but never committed.
        if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[1] {
            k.domain = Domain::from_shape([16, 16, 8]);
        }
        let model = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let report = transfer_patterns(&mut g, &[sgf_pattern()], &mut ModelScorer { model: &model }, None);
        // State 0 rejected, state 1 applied.
        assert_eq!(report.applied.len(), 1);
        assert_eq!(report.applied[0].state, 1);
        assert_eq!(g.states[0].kernel_count(), 2);
    }
}
