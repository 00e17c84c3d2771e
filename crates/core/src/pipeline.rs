//! The optimization pipeline of Fig. 7, staged as in Table III.
//!
//! Each stage is a concrete set of graph rewrites applied cumulatively to
//! the orchestrated dycore; the modeled step time after each stage
//! reproduces the Table III trajectory: FORTRAN baseline → naive DSL →
//! schedule heuristics → local caching → power operator → region split →
//! (cycle 2) reschedule/cleanup → region pruning → transfer tuning.
//!
//! Every stage also re-validates the graph, and what a stage may do to
//! the numbers is an enforced property, not an informal claim: each stage
//! has the [`Tier`] of the transform kinds it applies
//! ([`PipelineStage::tier`]), and
//! `validate::stages::check_pipeline_bit_identity` executes the dycore
//! through every [`PipelineStage`] cutoff and requires the prognostic
//! output of a bit-exact stage to equal its predecessor's bitwise and that
//! of a budgeted stage — the power operator, the only one — to stay within
//! its ULP budget of its predecessor's (see `tests/integration_pipeline.rs`
//! and `crates/validate`) — "all performance engineering was accomplished
//! without modifying the user-code".

use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::kernel::Schedule;
use dataflow::model::{model_sdfg, CostModel};
use dataflow::passes;
use dataflow::transforms::{local_storage, power, schedule, tier, Tier};
use dataflow::DataId;
use tuning::transfer_tune;

/// One pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Naive expansion with default (unoptimized) schedules: the
    /// "GT4Py + DaCe (Default)" row.
    Default,
    /// Locally-tuned schedule heuristics applied en masse (VI-A4) plus
    /// expansion-time statement/interval fusion.
    ScheduleHeuristics,
    /// Register caching + transient demotion (VI-A2).
    LocalCaching,
    /// Power-operator strength reduction (VI-C1).
    PowerOperator,
    /// Horizontal regions realized as separate kernels (Table III).
    SplitRegions,
    /// Cycle 2: whole-graph cleanup (redundant copies, dead writes,
    /// constant folding) — the "reschedule" fine-tuning row.
    Cleanup,
    /// Region pruning for ranks that hold no tile edge.
    RegionPruning,
    /// Transfer tuning from the FVT states to the whole graph (VI-B).
    TransferTuning,
}

impl PipelineStage {
    /// All stages in Table III order.
    pub const ALL: [PipelineStage; 8] = [
        PipelineStage::Default,
        PipelineStage::ScheduleHeuristics,
        PipelineStage::LocalCaching,
        PipelineStage::PowerOperator,
        PipelineStage::SplitRegions,
        PipelineStage::Cleanup,
        PipelineStage::RegionPruning,
        PipelineStage::TransferTuning,
    ];

    /// Table III row label.
    pub fn label(&self) -> &'static str {
        match self {
            PipelineStage::Default => "GT4Py + DaCe (Default)",
            PipelineStage::ScheduleHeuristics => "Stencil schedule heuristics",
            PipelineStage::LocalCaching => "Local caching",
            PipelineStage::PowerOperator => "Optimize power operator",
            PipelineStage::SplitRegions => "Split regions to multiple kernels",
            PipelineStage::Cleanup => "Lagrangian contrib. reschedule",
            PipelineStage::RegionPruning => "Region pruning",
            PipelineStage::TransferTuning => "Transfer Tuning (FVT)",
        }
    }

    /// The transform kinds ([`dataflow::transforms::tier`]) this stage
    /// adds to the ones before it.
    fn kinds(&self) -> &'static [&'static str] {
        match self {
            PipelineStage::Default => &[],
            PipelineStage::ScheduleHeuristics => &["schedule"],
            PipelineStage::LocalCaching => &["register-cache", "local-demote"],
            PipelineStage::PowerOperator => &["power"],
            PipelineStage::SplitRegions => &["region-split"],
            PipelineStage::Cleanup => &["pass"],
            PipelineStage::RegionPruning => &["region-prune"],
            PipelineStage::TransferTuning => &["otf", "sgf"],
        }
    }

    /// How far this stage's output may sit from its predecessor's: the
    /// loosest tier among its [`kinds`](Self::kinds).
    pub fn tier(&self) -> Tier {
        self.kinds()
            .iter()
            .map(|k| tier(k))
            .max_by_key(|t| t.max_ulps())
            .unwrap_or(Tier::BitExact)
    }
}

/// Result of one stage.
#[derive(Debug, Clone)]
pub struct StageResult {
    pub stage: PipelineStage,
    /// Modeled step time in seconds after this stage.
    pub step_time: f64,
    /// Kernel launches per step.
    pub launches: u64,
    /// Transformations applied in this stage.
    pub applied: usize,
}

/// Full pipeline report.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub stages: Vec<StageResult>,
    /// The final optimized graph.
    pub optimized: Sdfg,
}

impl PipelineReport {
    /// Step time after the last stage.
    pub fn final_time(&self) -> f64 {
        self.stages.last().map(|s| s.step_time).unwrap_or(0.0)
    }
}

/// Which states seed transfer tuning (the FVT module states).
fn fvt_states(sdfg: &Sdfg) -> Vec<usize> {
    sdfg.states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name.contains("tracer"))
        .map(|(i, _)| i)
        .collect()
}

/// Run the pipeline on an (unexpanded) orchestrated program. `halo_cost`
/// prices one halo-exchange node for the step-time model. Stages apply
/// cumulatively; stop after `through` (inclusive).
pub fn run_pipeline(
    program: &Sdfg,
    model: &CostModel,
    halo_cost: &impl Fn(&[DataId]) -> f64,
    through: PipelineStage,
) -> PipelineReport {
    let mut stages = Vec::new();

    // Stage: Default (naive expansion).
    let mut g = program.clone();
    g.expand_libraries(&ExpansionAttrs::naive());
    let record = |g: &Sdfg, stage: PipelineStage, applied: usize, out: &mut Vec<StageResult>| {
        let m = model_sdfg(g, model, halo_cost);
        out.push(StageResult {
            stage,
            step_time: m.step_time(),
            launches: m.launches,
            applied,
        });
    };
    record(&g, PipelineStage::Default, 0, &mut stages);
    if through == PipelineStage::Default {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: schedule heuristics — re-expand with the tuned attributes
    // (fusion strategy + the VI-A4 schedules) and assign en masse.
    g = program.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let n = schedule::assign_schedules(&mut g, &Schedule::gpu_horizontal(), &Schedule::gpu_vertical());
    record(&g, PipelineStage::ScheduleHeuristics, n, &mut stages);
    if through == PipelineStage::ScheduleHeuristics {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: local caching.
    let mut applied = local_storage::cache_registers_everywhere(&mut g).len();
    applied += local_storage::demote_transients_to_locals(&mut g).len();
    record(&g, PipelineStage::LocalCaching, applied, &mut stages);
    if through == PipelineStage::LocalCaching {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: power operator.
    let applied = power::optimize_powers(&mut g).len();
    record(&g, PipelineStage::PowerOperator, applied, &mut stages);
    if through == PipelineStage::PowerOperator {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: split regions.
    let applied = schedule::split_regions(&mut g).len();
    record(&g, PipelineStage::SplitRegions, applied, &mut stages);
    if through == PipelineStage::SplitRegions {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: cleanup (cycle 2 fine tuning).
    let mut applied = passes::eliminate_redundant_copies(&mut g);
    applied += passes::eliminate_dead_writes(&mut g);
    applied += passes::fold_constants(&mut g);
    record(&g, PipelineStage::Cleanup, applied, &mut stages);
    if through == PipelineStage::Cleanup {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: region pruning — in the 6-rank configuration every rank
    // holds all edges, so nothing prunes (the paper's gain comes from
    // higher rank counts); interior ranks would pass `|_| false`.
    let applied = schedule::prune_regions(&mut g, &|_| true).len();
    record(&g, PipelineStage::RegionPruning, applied, &mut stages);
    if through == PipelineStage::RegionPruning {
        return PipelineReport {
            stages,
            optimized: g,
        };
    }

    // Stage: transfer tuning, seeded from the FVT (tracer) states.
    let sources = fvt_states(&g);
    let (_search, transfer) = transfer_tune(&mut g, &sources, model, 2);
    record(
        &g,
        PipelineStage::TransferTuning,
        transfer.applied.len(),
        &mut stages,
    );

    PipelineReport {
        stages,
        optimized: g,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv3::dyn_core::{build_dycore_program, DycoreConfig};
    use machine::{GpuModel, GpuSpec};

    fn model() -> CostModel {
        CostModel::Gpu(GpuModel::new(GpuSpec::p100()))
    }

    fn program() -> Sdfg {
        build_dycore_program(192, 80, DycoreConfig::default()).sdfg
    }

    #[test]
    fn pipeline_times_are_monotone_enough() {
        let p = program();
        let report = run_pipeline(&p, &model(), &|_| 0.0, PipelineStage::TransferTuning);
        assert_eq!(report.stages.len(), 8);
        let t0 = report.stages[0].step_time;
        let tn = report.final_time();
        assert!(
            tn < t0 * 0.8,
            "pipeline must yield a sizeable improvement: {t0} -> {tn}"
        );
        // Schedule heuristics is the big jump (paper: 1.50x -> 2.94x).
        assert!(report.stages[1].step_time < t0 * 0.75);
        // No stage may regress by more than noise.
        for w in report.stages.windows(2) {
            assert!(
                w[1].step_time <= w[0].step_time * 1.01,
                "{:?} regressed: {} -> {}",
                w[1].stage,
                w[0].step_time,
                w[1].step_time
            );
        }
    }

    #[test]
    fn launches_shrink_through_fusion_stages() {
        let p = program();
        let report = run_pipeline(&p, &model(), &|_| 0.0, PipelineStage::TransferTuning);
        let first = report.stages.first().unwrap().launches;
        let last = report.stages.last().unwrap().launches;
        assert!(last < first, "fusion reduces launches: {first} -> {last}");
    }

    #[test]
    fn stages_have_labels() {
        for s in PipelineStage::ALL {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn only_the_power_stage_is_budgeted() {
        for s in PipelineStage::ALL {
            let budgeted = s == PipelineStage::PowerOperator;
            assert_eq!(s.tier() != Tier::BitExact, budgeted, "{s:?}");
        }
    }

    #[test]
    fn partial_pipeline_stops_early() {
        let p = program();
        let report = run_pipeline(&p, &model(), &|_| 0.0, PipelineStage::LocalCaching);
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages.last().unwrap().stage, PipelineStage::LocalCaching);
    }

    #[test]
    fn power_stage_eliminates_transcendentals() {
        let p = program();
        let before = run_pipeline(&p, &model(), &|_| 0.0, PipelineStage::LocalCaching);
        let after = run_pipeline(&p, &model(), &|_| 0.0, PipelineStage::PowerOperator);
        let trans = |g: &Sdfg| -> u64 {
            g.states
                .iter()
                .flat_map(|s| s.kernels())
                .map(|k| k.profile(&g.layout_fn()).transcendentals)
                .sum()
        };
        assert!(trans(&before.optimized) > 0, "Smagorinsky pow present");
        assert_eq!(trans(&after.optimized), 0, "pow fully strength-reduced");
    }
}
