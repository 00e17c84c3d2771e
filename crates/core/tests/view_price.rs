//! The tuner prices a planned fusion from the costs its state's standing
//! nodes already have and the one fused kernel's, without building the
//! trial state. That price must be bit for bit the model sum over the
//! trial state built — not `base − removed + fused`, which rounds
//! differently and would flip choices `tuning_identity` pins. The
//! expanded c24L8 dycore is hill-climbed as `tuning::tune_cutouts` does,
//! under the build's tuning model and under the P100 model, and every
//! legal plan of every round is priced both ways.

use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::model::CostModel;
use dataflow::transforms::cross_state::cross_module_fusion;
use dataflow::transforms::fusion::{plan_otf, plan_subgraph};
use dataflow::transforms::UsageMap;
use fv3::dyn_core::{build_dycore_program, DycoreConfig};
use fv3core::experiments::p100;
use fv3core::parallel::{tune_model, TUNE_M_OTF};
use tuning::{extract_cutouts, ModelScorer, NodeCosts, StateScorer, StateView};

fn expanded(nord4: bool) -> Sdfg {
    let dycore = DycoreConfig {
        n_split: 1,
        k_split: 1,
        dt: 2.0,
        dddmp: 0.02,
        nord4_damp: nord4.then_some(0.01),
    };
    let mut g = build_dycore_program(24, 8, dycore).sdfg;
    g.expand_libraries(&ExpansionAttrs::tuned());
    g
}

/// Hill-climb every cutout of `g` with the tuner's pricing (kept node
/// costs, a carried usage map), checking each legal plan's price against
/// the trial state's and the carried map against a fresh one. Returns
/// the plans checked.
fn climb_checked(g: &mut Sdfg, model: &CostModel) -> usize {
    let mut scorer = ModelScorer { model };
    let mut usage = UsageMap::build(g);
    let mut checked = 0;
    for cutout in extract_cutouts(g, &[]) {
        let mut members = cutout.kernels.clone();
        let mut costs = NodeCosts::new(&g.states[cutout.state]);
        loop {
            let live = StateView::of(&g.states[cutout.state]).with_costs(&costs);
            let base = scorer.state_time(g, live);
            let mut plans = Vec::new();
            for (pi, &p) in members.iter().enumerate() {
                for &c in &members[pi + 1..] {
                    plans.push(plan_otf(g, &usage, cutout.state, p, c));
                }
            }
            for w in members.windows(2).filter(|w| w[1] == w[0] + 1) {
                plans.push(plan_subgraph(g, cutout.state, w[0]));
            }
            let mut found = Vec::new();
            for plan in plans.into_iter().flatten() {
                let t = scorer.state_time(g, StateView::planned(g, &plan).with_costs(&costs));
                let trial = plan.trial_state(g);
                let want = ModelScorer { model }.state_time(g, StateView::of(&trial));
                assert_eq!(t.to_bits(), want.to_bits(), "{t:e} vs {want:e}: {:?}", plan.labels);
                checked += 1;
                if t < base {
                    found.push((base - t, plan));
                }
            }
            found.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let Some((_, plan)) = found.into_iter().next() else {
                break;
            };
            let removed = plan.removed_node();
            costs.commit(&plan);
            plan.commit_counted(g, &mut usage);
            let fresh = UsageMap::build(g);
            assert_eq!((&usage.reads, &usage.writes), (&fresh.reads, &fresh.writes));
            members.retain(|&i| i != removed);
            for i in &mut members {
                if *i > removed {
                    *i -= 1;
                }
            }
        }
    }
    checked
}

fn kernel_names(g: &Sdfg) -> Vec<Vec<&str>> {
    g.states.iter().map(|s| s.kernels().map(|k| k.name.as_str()).collect()).collect()
}

#[test]
fn every_priced_plan_equals_its_built_trial_state() {
    for (name, model) in [("tune_model", tune_model()), ("p100", p100())] {
        for nord4 in [false, true] {
            let mut g = expanded(nord4);
            cross_module_fusion(&mut g, &mut |_, _, _| true);
            let checked = climb_checked(&mut g, &model);
            assert!(checked > 0, "{name} nord4={nord4}");

            // The climb took the tuner's decisions.
            let mut tuned = expanded(nord4);
            tuning::autotune(&mut tuned, &model, TUNE_M_OTF);
            assert_eq!(kernel_names(&g), kernel_names(&tuned), "{name} nord4={nord4}");
        }
    }
}
