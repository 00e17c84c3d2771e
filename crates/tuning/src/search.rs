//! Phase one: exhaustive configuration search per cutout.
//!
//! For each cutout, every (producer, consumer) pair is a candidate OTF
//! configuration and every adjacent pair a candidate SGF configuration.
//! Each candidate is applied to a *clone* of the cutout's state, scored
//! with the machine model, and the best `M` OTF plus the single best SGF
//! configurations per cutout become transferable patterns ("the best
//! (M=2) configurations of each cutout for OTF and the single best for
//! SGF"). The searched cutouts themselves are hill-climbed to a
//! fixpoint — they are part of the program being optimized, and long
//! pointwise chains collapse into single launches.

use crate::cutout::Cutout;
use crate::measure::{StateScorer, Vet};
use crate::pattern::{Pattern, PatternKind};
use dataflow::transforms::fusion::{fuse_otf, fuse_subgraph};
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

/// Labels of the kernel nodes at `a` and `b` in `state` (panics if not
/// kernels — callers pass kernel indices from cutouts).
fn labels(sdfg: &Sdfg, state: usize, a: usize, b: usize) -> [String; 2] {
    use dataflow::graph::DataflowNode;
    let get = |i: usize| match &sdfg.states[state].nodes[i] {
        DataflowNode::Kernel(k) => k.name.clone(),
        other => panic!("not a kernel: {other:?}"),
    };
    [get(a), get(b)]
}

/// A candidate transformation at concrete node indices.
enum Cand {
    Otf(usize, usize),
    Sgf(usize),
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
/// rewrites.
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

    for cutout in cutouts {
        // Node indices of the cutout's surviving kernels; maintained
        // across applications (each fusion removes one node).
        let mut members = cutout.kernels.clone();
        let mut first_round = true;
        // Candidates the measured veto already rejected; keyed by kind
        // and labels so they aren't re-measured every round.
        let mut rejected: Vec<(PatternKind, [String; 2])> = Vec::new();
        loop {
            let base = scorer.state_time(sdfg, cutout.state);
            let mut found: Vec<(Pattern, Cand)> = Vec::new();

            // OTF candidates: every ordered kernel pair.
            for (pi, &p) in members.iter().enumerate() {
                for &c in members.iter().skip(pi + 1) {
                    report.configurations += 1;
                    let mut trial = sdfg.clone();
                    if fuse_otf(&mut trial, cutout.state, p, c).is_ok() {
                        let t = scorer.state_time(&trial, cutout.state);
                        if t < base {
                            found.push((
                                Pattern {
                                    kind: PatternKind::Otf,
                                    labels: labels(sdfg, cutout.state, p, c),
                                    gain: base - t,
                                },
                                Cand::Otf(p, c),
                            ));
                        }
                    }
                }
            }
            // SGF candidates: adjacent pairs.
            for w in members.windows(2) {
                if w[1] != w[0] + 1 {
                    continue; // not adjacent in the state
                }
                report.configurations += 1;
                let mut trial = sdfg.clone();
                if fuse_subgraph(&mut trial, cutout.state, w[0]).is_ok() {
                    let t = scorer.state_time(&trial, cutout.state);
                    if t < base {
                        found.push((
                            Pattern {
                                kind: PatternKind::Sgf,
                                labels: labels(sdfg, cutout.state, w[0], w[1]),
                                gain: base - t,
                            },
                            Cand::Sgf(w[0]),
                        ));
                    }
                }
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

            // Apply the best candidate the veto confirms (or the overall
            // best when unvetted) and fix up member indices — the fused
            // pair collapses into one node; later indices shift.
            let mut chosen = None;
            for (pat, cand) in found {
                if rejected.iter().any(|r| r.0 == pat.kind && r.1 == pat.labels) {
                    continue;
                }
                if let Some(v) = vet.as_deref_mut() {
                    let mut trial = sdfg.clone();
                    let ok = match cand {
                        Cand::Otf(p, c) => fuse_otf(&mut trial, cutout.state, p, c).is_ok(),
                        Cand::Sgf(first) => fuse_subgraph(&mut trial, cutout.state, first).is_ok(),
                    };
                    if !ok || !v.passes(sdfg, &trial, cutout.state) {
                        rejected.push((pat.kind, pat.labels));
                        continue;
                    }
                }
                chosen = Some(cand);
                break;
            }
            let Some(best) = chosen else {
                break;
            };
            let removed = match best {
                Cand::Otf(p, c) => {
                    if fuse_otf(sdfg, cutout.state, p, c).is_err() {
                        break;
                    }
                    p
                }
                Cand::Sgf(first) => {
                    if fuse_subgraph(sdfg, cutout.state, first).is_err() {
                        break;
                    }
                    first + 1
                }
            };
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
        let before = ranker.state_time(&g, 0);
        let report = tune_cutouts(&mut g, &cutouts, &mut ranker, None, 2);
        assert!(report.configurations >= 2, "OTF pair + SGF pair");
        assert!(!report.patterns.is_empty());
        let after = ranker.state_time(&g, 0);
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
