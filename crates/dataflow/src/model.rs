//! Static performance modeling of SDFGs — the automated half of the
//! model-driven performance-engineering loop (Section VI-C).
//!
//! [`model_sdfg`] walks the state schedule, costs every kernel invocation
//! on a [`CostModel`], and produces the per-kernel breakdown the paper's
//! "17 lines of Python" script produces: measured-vs-bandwidth-bound time,
//! ranked by summarized runtime grouped by kernel name (Fig. 10).

use crate::graph::{DataflowNode, Sdfg};
use crate::kernel::Kernel;
use machine::{Bound, CpuModel, GpuModel, KernelCost, PerfModel};

/// A target-aware cost model: the CPU variant needs the kernel's blocked
/// working set, which the GPU roofline does not.
#[derive(Debug, Clone)]
pub enum CostModel {
    Gpu(GpuModel),
    Cpu(CpuModel),
}

impl CostModel {
    /// Cost one kernel, using the appropriate extra context per target.
    pub fn kernel_cost(&self, kernel: &Kernel, sdfg: &Sdfg) -> KernelCost {
        let profile = kernel.profile(&sdfg.layout_fn());
        match self {
            CostModel::Gpu(m) => m.kernel_cost(&profile),
            CostModel::Cpu(m) => {
                use crate::kernel::KOrder;
                if kernel.k_order == KOrder::Parallel {
                    // k-blocked horizontal stencils keep one slab per
                    // field resident in cache (one tile-slab when the
                    // schedule is tiled).
                    let ws = if kernel.schedule.k_as_loop {
                        crate::transforms::tiling::tiled_working_set(kernel)
                    } else {
                        profile.bytes_total()
                    };
                    m.kernel_cost_with_working_set(&profile, ws)
                } else {
                    // Vertical solvers stream whole columns with K-strided
                    // accesses: no slab reuse, and a constant bandwidth
                    // de-rating (Section VIII-B: these "typically do not
                    // perform well in the FORTRAN FV3 column-blocking
                    // schedule").
                    let mut c =
                        m.kernel_cost_with_working_set(&profile, profile.bytes_total());
                    c.time *= m.spec().column_stride_penalty;
                    c
                }
            }
        }
    }
}

/// Modeled cost of one kernel (aggregated over invocations).
#[derive(Debug, Clone)]
pub struct KernelModel {
    pub name: String,
    pub invocations: u64,
    /// Simulated seconds per invocation (worst configuration when a name
    /// recurs with different domains — "we take the maximal reported
    /// runtime and largest modeled configuration").
    pub time_per_invocation: f64,
    /// Bandwidth-bound peak time per invocation.
    pub memory_bound_time: f64,
    /// Total simulated seconds (all invocations).
    pub total_time: f64,
    pub bound: Bound,
}

impl KernelModel {
    /// Fraction of bandwidth-bound peak achieved.
    pub fn peak_fraction(&self) -> f64 {
        if self.time_per_invocation <= 0.0 {
            1.0
        } else {
            (self.memory_bound_time / self.time_per_invocation).min(1.0)
        }
    }
}

/// Full program model.
#[derive(Debug, Clone, Default)]
pub struct ModelReport {
    pub kernels: Vec<KernelModel>,
    /// Total simulated kernel time in seconds.
    pub total_time: f64,
    /// Total kernel launches.
    pub launches: u64,
    /// Simulated communication seconds (from the halo cost hook).
    pub comm_time: f64,
}

impl ModelReport {
    /// Kernels ranked by total simulated time, descending (Fig. 10 order).
    pub fn ranked(&self) -> Vec<&KernelModel> {
        let mut v: Vec<&KernelModel> = self.kernels.iter().collect();
        v.sort_by(|a, b| b.total_time.partial_cmp(&a.total_time).unwrap());
        v
    }

    /// Wall time including exposed communication.
    pub fn step_time(&self) -> f64 {
        self.total_time + self.comm_time
    }
}

/// Model the whole SDFG. `halo_cost` prices one halo-exchange node in
/// seconds (supply `|_| 0.0` for single-rank programs).
pub fn model_sdfg(
    sdfg: &Sdfg,
    model: &CostModel,
    halo_cost: &impl Fn(&[crate::expr::DataId]) -> f64,
) -> ModelReport {
    let mut report = ModelReport::default();
    for (state_idx, mult) in sdfg.state_schedule() {
        let state = &sdfg.states[state_idx];
        for node in &state.nodes {
            match node {
                DataflowNode::Kernel(k) => {
                    let cost = model.kernel_cost(k, sdfg);
                    report.launches += mult as u64;
                    report.total_time += cost.time * mult as f64;
                    if let Some(km) = report.kernels.iter_mut().find(|km| km.name == k.name) {
                        km.invocations += mult as u64;
                        km.total_time += cost.time * mult as f64;
                        if cost.time > km.time_per_invocation {
                            km.time_per_invocation = cost.time;
                            km.memory_bound_time = cost.memory_bound_time;
                            km.bound = cost.bound;
                        }
                    } else {
                        report.kernels.push(KernelModel {
                            name: k.name.clone(),
                            invocations: mult as u64,
                            time_per_invocation: cost.time,
                            memory_bound_time: cost.memory_bound_time,
                            total_time: cost.time * mult as f64,
                            bound: cost.bound,
                        });
                    }
                }
                DataflowNode::Copy { src, .. } => {
                    // A copy moves the container once in and once out.
                    let bytes = sdfg.layout_of(*src).domain_len() as u64 * 8 * 2;
                    let t = match model {
                        CostModel::Gpu(m) => bytes as f64 / m.attainable_bandwidth(),
                        CostModel::Cpu(m) => bytes as f64 / m.attainable_bandwidth(),
                    };
                    report.total_time += t * mult as f64;
                }
                DataflowNode::HaloExchange { fields } => {
                    report.comm_time += halo_cost(fields) * mult as f64;
                }
                DataflowNode::Library(_) | DataflowNode::Callback { .. } => {}
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{DataId, Expr};
    use crate::graph::{ControlNode, State};
    use crate::kernel::{Domain, KOrder, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};
    use machine::{CpuSpec, GpuSpec};

    fn simple_sdfg(n: usize) -> Sdfg {
        let mut g = Sdfg::new("m");
        let l = Layout::new([n, n, 80], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let b = g.add_container("b", l, false);
        let mut k = Kernel::new(
            "copy",
            Domain::from_shape([n, n, 80]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(b), Expr::load(a, 0, 0, 0)));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        g
    }

    #[test]
    fn copy_kernel_models_at_bandwidth() {
        let g = simple_sdfg(192);
        let m = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let r = model_sdfg(&g, &m, &|_| 0.0);
        assert_eq!(r.launches, 1);
        assert_eq!(r.kernels.len(), 1);
        assert!(r.kernels[0].peak_fraction() > 0.9);
    }

    #[test]
    fn loops_multiply_invocations() {
        let mut g = simple_sdfg(32);
        g.control = vec![ControlNode::Loop {
            trips: 7,
            body: vec![ControlNode::State(0)],
        }];
        let m = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let r = model_sdfg(&g, &m, &|_| 0.0);
        assert_eq!(r.launches, 7);
        assert_eq!(r.kernels[0].invocations, 7);
        assert!((r.kernels[0].total_time - 7.0 * r.kernels[0].time_per_invocation).abs() < 1e-12);
    }

    #[test]
    fn cpu_model_uses_slab_working_set() {
        let g = simple_sdfg(64);
        let gpu_like_cpu = CostModel::Cpu(CpuModel::new(CpuSpec::haswell_e5_2690v3()));
        let r = model_sdfg(&g, &gpu_like_cpu, &|_| 0.0);
        assert_eq!(r.kernels.len(), 1);
        assert!(r.total_time > 0.0);
    }

    #[test]
    fn halo_cost_hook_accumulates() {
        let mut g = simple_sdfg(32);
        g.states[0].nodes.push(DataflowNode::HaloExchange {
            fields: vec![DataId(0), DataId(1)],
        });
        let m = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let r = model_sdfg(&g, &m, &|fields| fields.len() as f64 * 1e-3);
        assert!((r.comm_time - 2e-3).abs() < 1e-12);
        assert!(r.step_time() > r.total_time);
    }

    #[test]
    fn ranked_sorts_descending() {
        let mut g = simple_sdfg(32);
        // Add a second, much bigger kernel.
        let l = Layout::new([256, 256, 8], [1, 1, 0], StorageOrder::IContiguous, 1);
        let c = g.add_container("c", l.clone(), false);
        let d = g.add_container("d", l, false);
        let mut k = Kernel::new(
            "big",
            Domain::from_shape([256, 256, 8]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(d), Expr::load(c, 0, 0, 0)));
        g.states[0].nodes.push(DataflowNode::Kernel(k));
        let m = CostModel::Gpu(GpuModel::new(GpuSpec::p100()));
        let r = model_sdfg(&g, &m, &|_| 0.0);
        let ranked = r.ranked();
        assert_eq!(ranked[0].name, "big");
    }
}
