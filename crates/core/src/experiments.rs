//! Shared experiment harnesses behind the `reproduce` binary.
//!
//! All "FORTRAN" vs "GT4Py+DaCe" comparisons price the *same* dycore
//! modules on the two machine models (Haswell node, k-blocked CPU
//! schedule vs P100, tuned GPU schedule) — the substitution documented in
//! DESIGN.md. Wall-clock execution of the host executor is measured
//! separately by the repository benchmark (`crates/bench/src/bin/perf`).

use crate::pipeline::{run_pipeline, PipelineStage};
use dataflow::graph::{ExpansionAttrs, Sdfg};
use dataflow::kernel::Domain;
use dataflow::model::{model_sdfg, CostModel};
use dataflow::storage::Layout;
use dataflow::Expr;
use fv3::dyn_core::{build_dycore_program, DycoreConfig};
use machine::{CpuModel, CpuSpec, GpuModel, GpuSpec, NetworkModel, NetworkSpec};
use stencil::ProgramBuilder;

/// The Piz Daint GPU model.
pub fn p100() -> CostModel {
    CostModel::Gpu(GpuModel::new(GpuSpec::p100()))
}

/// The JUWELS Booster GPU model.
pub fn a100() -> CostModel {
    CostModel::Gpu(GpuModel::new(GpuSpec::a100()))
}

/// The Piz Daint CPU (FORTRAN production) model.
pub fn haswell() -> CostModel {
    CostModel::Cpu(CpuModel::new(CpuSpec::haswell_e5_2690v3()))
}

/// Which Table II module to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    RiemannSolverC,
    FiniteVolumeTransport,
}

/// Build a single-module program on an `n`×`n`×80 domain.
fn module_program(module: Module, n: usize, nk: usize) -> Sdfg {
    let h = fv3::state::HALO;
    let mut b = ProgramBuilder::new("module", [n, n, nk], [h, h, 0]);
    match module {
        Module::RiemannSolverC => {
            let delp = b.field("delp");
            let pt = b.field("pt");
            let delz = b.field("delz");
            let w = b.field("w");
            b.param("dt");
            b.call(
                &fv3::riem_solver_c::riem_solver_c_stencil(),
                &[("delp", delp), ("pt", pt), ("delz", delz), ("w", w)],
                &[("dt", "dt")],
            )
            .expect("riem binds");
        }
        Module::FiniteVolumeTransport => {
            let q = b.field("q");
            let crx = b.field("crx");
            let cry = b.field("cry");
            let xfx = b.field("xfx");
            let yfx = b.field("yfx");
            let fx = b.field("fx");
            let fy = b.field("fy");
            b.call_on(
                &fv3::fv_tp_2d::fv_tp_2d_stencil(),
                &[
                    ("q", q),
                    ("crx", crx),
                    ("cry", cry),
                    ("xfx", xfx),
                    ("yfx", yfx),
                    ("fx", fx),
                    ("fy", fy),
                ],
                &[],
                fv3::fv_tp_2d::flux_domain(n, nk),
            )
            .expect("fvt binds");
        }
    }
    b.build()
}

/// One Table II cell pair: modeled FORTRAN and DSL milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    pub n: usize,
    pub fortran_ms: f64,
    pub dsl_ms: f64,
}

impl Table2Row {
    pub fn speedup(&self) -> f64 {
        self.fortran_ms / self.dsl_ms
    }
}

/// Model one Table II module at one domain size.
pub fn table2_row(module: Module, n: usize, nk: usize) -> Table2Row {
    let program = module_program(module, n, nk);

    // FORTRAN: k-blocked CPU expansion on the Haswell model.
    let mut cpu = program.clone();
    cpu.expand_libraries(&ExpansionAttrs::tuned_cpu());
    let fortran = model_sdfg(&cpu, &haswell(), &|_| 0.0).total_time;

    // DSL: the optimized GPU pipeline (through local caching + power).
    let report = run_pipeline(&program, &p100(), &|_| 0.0, PipelineStage::PowerOperator);
    Table2Row {
        n,
        fortran_ms: fortran * 1e3,
        dsl_ms: report.final_time() * 1e3,
    }
}

/// A copy-stencil program (one input, one output) for the Section VIII-A
/// bandwidth verification.
pub fn copy_stencil_program(n: usize, nk: usize) -> Sdfg {
    let mut g = Sdfg::new("copy_stencil");
    let l = Layout::fv3_default([n, n, nk], [0, 0, 0]);
    let a = g.add_container("in", l.clone(), false);
    let b = g.add_container("out", l, false);
    let mut k = dataflow::kernel::Kernel::new(
        "copy",
        Domain::from_shape([n, n, nk]),
        dataflow::kernel::KOrder::Parallel,
        dataflow::kernel::Schedule::gpu_horizontal(),
    );
    k.stmts.push(dataflow::kernel::Stmt::full(
        dataflow::kernel::LValue::Field(b),
        Expr::load(a, 0, 0, 0),
    ));
    let mut s = dataflow::graph::State::new("copy");
    s.nodes.push(dataflow::graph::DataflowNode::Kernel(k));
    g.add_state(s);
    g
}

/// Achieved bandwidth of the copy stencil under `model`, bytes/s.
pub fn copy_stencil_bandwidth(model: &CostModel, n: usize, nk: usize) -> f64 {
    let g = copy_stencil_program(n, nk);
    let m = model_sdfg(&g, model, &|_| 0.0);
    let bytes = (n * n * nk * 8 * 2) as f64;
    bytes / m.total_time
}

/// One Fig. 11 weak-scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    pub nodes: usize,
    /// Grid spacing in km for the caption (1.5 km at full Piz Daint per
    /// the paper's setup; scales with sqrt of node count).
    pub resolution_km: f64,
    pub fortran_s: f64,
    pub python_s: f64,
}

impl ScalingPoint {
    pub fn speedup(&self) -> f64 {
        self.fortran_s / self.python_s
    }
}

/// Weak-scaling model (Fig. 11): fixed 192×192×`nk` per rank, one rank
/// per node; per-step cost = compute (worst rank: one with the most tile
/// edges) + exposed halo time.
pub fn weak_scaling(nodes: &[usize], nk: usize, config: DycoreConfig) -> Vec<ScalingPoint> {
    let n = 192;
    let program = build_dycore_program(n, nk, config).sdfg;

    // Compute times: full program (all regions — edge ranks) and pruned
    // (interior ranks) on both machine models.
    let gpu_edge = run_pipeline(&program, &p100(), &|_| 0.0, PipelineStage::TransferTuning);
    let mut cpu = program.clone();
    cpu.expand_libraries(&ExpansionAttrs::tuned_cpu());
    let cpu_edge_time = model_sdfg(&cpu, &haswell(), &|_| 0.0).total_time;
    let gpu_edge_time = gpu_edge.final_time();

    // Region work share per acoustic step, removable on ranks with fewer
    // edges. After the pipeline's region-split stage the edge corrections
    // live in their own thin kernels (SplitKernels strategy, sub-domain
    // smaller than the full plane); interior ranks simply skip them.
    let full_plane = (n * n) as u64;
    let mut edge_kernel_time = 0.0;
    for (state_idx, mult) in gpu_edge.optimized.state_schedule() {
        for k in gpu_edge.optimized.states[state_idx].kernels() {
            if k.schedule.regions == dataflow::RegionStrategy::SplitKernels
                && k.domain.horizontal_points() < full_plane
            {
                edge_kernel_time +=
                    p100().kernel_cost(k, &gpu_edge.optimized).time * mult as f64;
            }
        }
    }
    let gpu_interior_time = gpu_edge_time - edge_kernel_time;
    let region_cost = edge_kernel_time / 4.0; // per tile edge

    // Communication per step: 6 fields exchanged per acoustic substep.
    let halo_cells = (4 * n * fv3::state::HALO + 4 * fv3::state::HALO * fv3::state::HALO) as u64;
    let bytes = halo_cells * nk as u64 * 8 * 6;
    let msgs = 8u64 * 6;
    let exchanges = (config.k_split * config.n_split) as u64;
    let net = NetworkModel::new(NetworkSpec::aries(), 0.5);
    let comm = net.exposed_time(msgs, bytes) * exchanges as f64;

    nodes
        .iter()
        .map(|&nd| {
            // Worst-rank edge count: 4 when one rank owns a whole tile
            // (54 nodes = 3x3 per tile -> corner ranks hold 2 edges).
            let rt = ((nd as f64 / 6.0).sqrt().round() as usize).max(1);
            let worst_edges = if rt == 1 { 4.0 } else { 2.0 };
            let python_s = gpu_interior_time + worst_edges * region_cost + comm;
            // FORTRAN pays *relatively less* for the edge specializations:
            // scalar CPU branches are cheap, while on the GPU the edge
            // work costs extra kernels/predication — which is why the
            // paper's speedup is higher at scale than on 6 nodes.
            let gpu_edge_fraction = 1.0 - gpu_interior_time / gpu_edge_time;
            let cpu_edge_fraction = gpu_edge_fraction * 0.4;
            let cpu_interior = cpu_edge_time * (1.0 - cpu_edge_fraction);
            let fortran_s =
                cpu_interior + worst_edges * (cpu_edge_time - cpu_interior) / 4.0 + comm;
            ScalingPoint {
                nodes: nd,
                resolution_km: 1.5 * (5704.0 / nd as f64).sqrt(),
                fortran_s,
                python_s,
            }
        })
        .collect()
}

/// Simulated years per day for a step time and timestep length.
pub fn sypd(step_seconds: f64, dt_seconds: f64) -> f64 {
    (dt_seconds / step_seconds) * 86400.0 / (86400.0 * 365.0)
}

/// Lines-of-code accounting for Table I: count non-blank, non-comment
/// lines of the given source files.
pub fn count_loc(paths: &[std::path::PathBuf]) -> usize {
    let mut n = 0;
    for p in paths {
        if let Ok(text) = std::fs::read_to_string(p) {
            n += text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("#"))
                .count();
        }
    }
    n
}

/// All `.rs` files under a directory (recursive).
pub fn rust_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                out.extend(rust_files(&p));
            } else if p.extension().map(|x| x == "rs").unwrap_or(false) {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_riemann_shape_matches_paper() {
        // Paper Table II (left): speedups 6.63x-7.96x growing with size;
        // FORTRAN scaling slightly worse than ideal; DSL scaling better
        // than ideal. We assert the qualitative shape.
        let r128 = table2_row(Module::RiemannSolverC, 64, 40); // scaled down for test time
        let r192 = table2_row(Module::RiemannSolverC, 96, 40);
        assert!(r128.speedup() > 2.0, "GPU must win: {}", r128.speedup());
        assert!(
            r192.speedup() >= r128.speedup() * 0.95,
            "speedup must not shrink with size: {} -> {}",
            r128.speedup(),
            r192.speedup()
        );
        // DSL scales sublinearly (occupancy improves).
        let dsl_scaling = r192.dsl_ms / r128.dsl_ms;
        assert!(dsl_scaling < 2.25 * 1.02, "dsl scaling {dsl_scaling}");
    }

    #[test]
    fn table2_fvt_crossover_matches_paper() {
        // Paper Table II (right): FORTRAN FVT is cache-friendly at small
        // sizes (speedup only 1.88x) and falls off a cliff at large sizes
        // (8.14x): the speedup must GROW with domain size.
        let small = table2_row(Module::FiniteVolumeTransport, 64, 40);
        let large = table2_row(Module::FiniteVolumeTransport, 256, 40);
        assert!(
            large.speedup() > small.speedup() * 1.5,
            "cache cliff: {} -> {}",
            small.speedup(),
            large.speedup()
        );
        // FORTRAN scales super-linearly across the cliff.
        let f_scaling = large.fortran_ms / small.fortran_ms;
        let ideal = (256.0f64 / 64.0).powi(2);
        assert!(f_scaling > ideal, "{f_scaling} vs ideal {ideal}");
    }

    #[test]
    fn copy_stencil_reaches_modeled_peaks() {
        let gpu_bw = copy_stencil_bandwidth(&p100(), 192, 80);
        let frac = gpu_bw / GpuSpec::p100().attainable_bandwidth;
        assert!(frac > 0.9, "copy stencil at {frac} of attainable");
        let cpu_bw = copy_stencil_bandwidth(&haswell(), 192, 80);
        // CPU copy streams near STREAM bandwidth at this size (the slab
        // no longer fits cache).
        let cfrac = cpu_bw / CpuSpec::haswell_e5_2690v3().dram_bandwidth;
        assert!((0.5..1.6).contains(&cfrac), "cpu copy frac {cfrac}");
    }

    #[test]
    fn weak_scaling_is_flat_and_speedup_grows_slightly() {
        let cfg = DycoreConfig::default();
        let pts = weak_scaling(&[54, 216, 2400], 16, cfg);
        assert_eq!(pts.len(), 3);
        // Weak scaling: step time varies by < 25% across 44x more nodes.
        let t0 = pts[0].python_s;
        let tn = pts[2].python_s;
        assert!((tn / t0 - 1.0).abs() < 0.25, "{t0} vs {tn}");
        // Speedup at scale >= speedup at 54 nodes (paper: 3.55 -> 3.92).
        assert!(pts[2].speedup() >= pts[0].speedup() * 0.95);
        assert!(pts[0].speedup() > 1.5);
        // Resolution decreases (finer) with more nodes.
        assert!(pts[2].resolution_km < pts[0].resolution_km);
    }

    #[test]
    fn a100_beats_p100_by_bandwidth_ratio_shape() {
        // Section IX-B: 2.42x faster on A100 given a 2.83x bandwidth
        // ratio. Our model must land between 1.5x and 2.83x.
        let program = module_program(Module::FiniteVolumeTransport, 96, 40);
        let t_p100 = run_pipeline(&program, &p100(), &|_| 0.0, PipelineStage::PowerOperator)
            .final_time();
        let t_a100 = run_pipeline(&program, &a100(), &|_| 0.0, PipelineStage::PowerOperator)
            .final_time();
        let ratio = t_p100 / t_a100;
        assert!((1.5..=2.83).contains(&ratio), "A100 ratio {ratio}");
    }

    #[test]
    fn loc_counter_counts_this_crate() {
        let files = rust_files(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(!files.is_empty());
        assert!(count_loc(&files) > 100);
    }
}
