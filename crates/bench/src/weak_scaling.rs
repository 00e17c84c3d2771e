//! Measured weak-scaling overlap study (ISSUE 6): run the distributed
//! dycore at c8 (rt=1), c48 (rt=2), and c96 (rt=4) under both rank
//! schedules and report, per point, the sequential step time, the
//! parallel step time, the compute/comm overlap split
//! ([`obs::OverlapStats`]), and the measured wire traffic. This is the
//! measured analogue of the paper's Fig. 11 weak-scaling argument: with
//! the subdomain held (nearly) fixed, per-rank communication stays flat
//! and the halo latency hides behind interior compute.
//!
//! The c48 point's overlap numbers are exported into `BENCH_dycore.json`
//! as *top-level* fields (never module rows, so the per-module >15%
//! regression gate ignores them) by [`crate::profile::bench_json`].

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use std::fmt::Write as _;
use std::time::Instant;

/// One resolution point of the measured study.
#[derive(Debug, Clone)]
pub struct OverlapPoint {
    /// Case label, e.g. `"c48rt2"`.
    pub case: String,
    pub tile_n: usize,
    pub rt: usize,
    pub ranks: usize,
    /// Cells per subdomain edge (constant under weak scaling).
    pub sub_n: usize,
    pub steps: usize,
    /// Wall seconds per step, sequential rank schedule.
    pub seq_step_seconds: f64,
    /// Wall seconds per step, parallel rank schedule.
    pub par_step_seconds: f64,
    /// Interior compute run while the exchange was in flight (sum over
    /// ranks and substeps).
    pub interior_seconds: f64,
    /// Unhidden halo wait after interior compute finished.
    pub halo_wait_seconds: f64,
    /// Fraction of the halo latency hidden behind interior compute.
    pub overlap_efficiency: f64,
    /// Measured wire bytes posted by the parallel schedule.
    pub halo_bytes: u64,
    /// Measured messages posted by the parallel schedule.
    pub halo_messages: u64,
    /// Threads the parallel run's rank team may use (`Pool::host` sizing:
    /// no pool is installed here).
    pub workers: usize,
    /// Scratch stores the parallel run built over all its steps: one per
    /// team worker, never one per rank or per step.
    pub scratch_stores_built: u64,
}

/// The three standard study points: same-shape subdomains from 6 to 96
/// ranks (c8 keeps rt=1 so the smallest case stays the tier-1 seed
/// shape; c48/c96 hold sub_n = 24 exactly).
pub const STUDY_POINTS: [(usize, usize); 3] = [(8, 1), (48, 2), (96, 4)];

fn study_config(tile_n: usize, rt: usize, nk: usize) -> DriverConfig {
    DriverConfig {
        tile_n,
        rt,
        nk,
        dycore: DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 2.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    }
}

/// Run one point: `steps` timesteps under each schedule, overlap and
/// traffic taken from the parallel run.
pub fn measure_point(tile_n: usize, rt: usize, nk: usize, steps: usize) -> OverlapPoint {
    let attrs = ExpansionAttrs::tuned();
    let run = machine::RunConfig::from_env();
    let build =
        || DistributedDycore::new_with_grids(study_config(tile_n, rt, nk), &attrs, None, &run);

    let mut seq = build();
    let t0 = Instant::now();
    for _ in 0..steps {
        seq.step();
    }
    let seq_step_seconds = t0.elapsed().as_secs_f64() / steps as f64;

    let mut par = build();
    par.set_rank_schedule(RankSchedule::Parallel);
    let t1 = Instant::now();
    for _ in 0..steps {
        par.step();
    }
    let par_step_seconds = t1.elapsed().as_secs_f64() / steps as f64;
    let stats = par.overlap_stats();
    let (halo_bytes, halo_messages) = par.halo_traffic_posted();

    OverlapPoint {
        case: format!("c{tile_n}rt{rt}"),
        tile_n,
        rt,
        ranks: par.partition.ranks(),
        sub_n: par.partition.sub_n,
        steps,
        seq_step_seconds,
        par_step_seconds,
        interior_seconds: stats.interior_seconds,
        halo_wait_seconds: stats.halo_wait_seconds,
        overlap_efficiency: stats.efficiency(),
        halo_bytes,
        halo_messages,
        workers: run.host_workers(),
        scratch_stores_built: par.scratch_stores_built(),
    }
}

/// Run the full c8/c48/c96 study.
pub fn weak_scaling_study(nk: usize, steps: usize) -> Vec<OverlapPoint> {
    STUDY_POINTS
        .iter()
        .map(|&(n, rt)| measure_point(n, rt, nk, steps))
        .collect()
}

/// Render the study as the JSON array embedded at the top level of
/// `BENCH_dycore.json` (non-module fields: invisible to the per-module
/// regression gate).
pub fn study_json(points: &[OverlapPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"case\": \"{}\", \"ranks\": {}, \"sub_n\": {}, \"steps\": {}, \
                 \"seq_step_seconds\": {}, \"par_step_seconds\": {}, \
                 \"interior_seconds\": {}, \"halo_wait_seconds\": {}, \
                 \"overlap_efficiency\": {}, \"halo_bytes\": {}, \"halo_messages\": {}, \
                 \"workers\": {}, \"scratch_stores_built\": {}}}",
                p.case,
                p.ranks,
                p.sub_n,
                p.steps,
                p.seq_step_seconds,
                p.par_step_seconds,
                p.interior_seconds,
                p.halo_wait_seconds,
                p.overlap_efficiency,
                p.halo_bytes,
                p.halo_messages,
                p.workers,
                p.scratch_stores_built
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// Render the human-readable study table (printed by `profile_dycore`
/// and pasted into EXPERIMENTS.md).
pub fn study_table(points: &[OverlapPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>6} {:>12} {:>12} {:>10} {:>10} {:>8}",
        "case", "ranks", "sub_n", "seq[ms/st]", "par[ms/st]", "wait[ms]", "KiB/rank", "overlap"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>6} {:>12.2} {:>12.2} {:>10.2} {:>10.1} {:>7.1}%",
            p.case,
            p.ranks,
            p.sub_n,
            p.seq_step_seconds * 1e3,
            p.par_step_seconds * 1e3,
            p.halo_wait_seconds * 1e3,
            p.halo_bytes as f64 / 1024.0 / p.ranks as f64,
            p.overlap_efficiency * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c8_point_reports_traffic_and_positive_times() {
        let p = measure_point(8, 1, 2, 1);
        assert_eq!(p.ranks, 6);
        assert_eq!(p.sub_n, 8);
        assert!(p.seq_step_seconds > 0.0 && p.par_step_seconds > 0.0);
        assert!(p.halo_bytes > 0 && p.halo_messages > 0);
        assert!(p.overlap_efficiency >= 0.0 && p.overlap_efficiency <= 1.0);
        assert_eq!(p.scratch_stores_built, p.workers.min(6) as u64);
    }

    #[test]
    fn study_json_is_embeddable() {
        let p = measure_point(8, 1, 2, 1);
        let json = study_json(&[p]);
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"case\": \"c8rt1\""));
        assert!(json.contains("\"overlap_efficiency\":"));
    }
}
