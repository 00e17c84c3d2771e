//! Analytic GPU kernel cost model.
//!
//! A roofline model extended with the two effects the paper leans on when
//! explaining Table II and Table III:
//!
//! 1. **Occupancy**: achieved bandwidth saturates with the number of
//!    resident threads, `bw(T) = bw_max * T / (T + T_half)`. Vertical
//!    solvers launch only 2-D `(I, J)` thread grids, so small domains leave
//!    the device under-utilized ("not enough parallelism is exposed on the
//!    smaller domain sizes").
//! 2. **Launch overhead**: every kernel pays a fixed cost, which is why
//!    fusing the 4,241 kernels of the orchestrated dycore matters.
//!
//! Coalescing enters as a bandwidth de-rating between 1 and
//! `uncoalesced_penalty` depending on the fraction of unit-stride accesses,
//! reflecting the computational-layout sweep of Section VI-A4.

use crate::spec::GpuSpec;
use crate::{Bound, KernelCost, KernelProfile, PerfModel};

/// GPU cost model wrapping a [`GpuSpec`].
#[derive(Debug, Clone)]
pub struct GpuModel {
    spec: GpuSpec,
}

impl GpuModel {
    /// Build a model from a device spec.
    pub fn new(spec: GpuSpec) -> Self {
        GpuModel { spec }
    }

    /// The underlying device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Achieved bandwidth for a kernel exposing `threads` parallel items
    /// with the given coalescing fraction.
    fn achieved_bandwidth(&self, threads: u64, coalescing: f64) -> f64 {
        let t = threads.max(1) as f64;
        let occupancy = t / (t + self.spec.saturation_half_threads);
        let coal = coalescing.clamp(0.0, 1.0);
        // Linear interpolation of the de-rating factor between fully
        // coalesced (1x) and fully strided (1/penalty).
        let derate = coal + (1.0 - coal) / self.spec.uncoalesced_penalty;
        self.spec.attainable_bandwidth * occupancy * derate
    }
}

impl PerfModel for GpuModel {
    fn kernel_cost(&self, p: &KernelProfile) -> KernelCost {
        let bytes = p.bytes_total() as f64;
        let memory_bound_time = bytes / self.spec.attainable_bandwidth;

        let t_mem = bytes / self.achieved_bandwidth(p.threads, p.coalescing);
        let t_flop = p.flops as f64 / self.spec.peak_flops;
        let t_trans = p.transcendentals as f64 / self.spec.transcendental_rate;
        let t_compute = t_flop + t_trans;
        let t_launch = self.spec.launch_overhead;

        let body = t_mem.max(t_compute);
        let time = t_launch + body;

        let bound = if t_launch > body {
            Bound::Latency
        } else if t_compute > t_mem {
            Bound::Compute
        } else if t_mem > memory_bound_time * 1.3 {
            // Significantly above the full-bandwidth bound: the gap comes
            // from occupancy / coalescing, not from raw byte volume.
            Bound::Occupancy
        } else {
            Bound::Memory
        };

        KernelCost {
            time,
            bound,
            memory_bound_time,
        }
    }

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn attainable_bandwidth(&self) -> f64 {
        self.spec.attainable_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn copy_profile(nx: u64, ny: u64, nz: u64) -> KernelProfile {
        let elems = nx * ny * nz;
        KernelProfile {
            bytes_read: elems * 8,
            bytes_written: elems * 8,
            flops: 0,
            threads: elems,
            work_per_thread: 1,
            coalescing: 1.0,
            transcendentals: 0,
        }
    }

    #[test]
    fn copy_stencil_reaches_near_peak_on_target_domain() {
        // Section VIII-A: the copy stencil on 192x192x80 sustains nearly
        // the full attainable bandwidth.
        let m = GpuModel::new(GpuSpec::p100());
        let p = copy_profile(192, 192, 80);
        let c = m.kernel_cost(&p);
        assert_eq!(c.bound, Bound::Memory);
        assert!(c.peak_fraction() > 0.95, "frac = {}", c.peak_fraction());
    }

    #[test]
    fn small_2d_grid_is_occupancy_limited() {
        // A vertical solver exposes only an IxJ grid of threads: on a small
        // domain the model must report under-utilization (Table II trend).
        let m = GpuModel::new(GpuSpec::p100());
        let elems = 128u64 * 128 * 80;
        let p = KernelProfile {
            bytes_read: elems * 8 * 4,
            bytes_written: elems * 8 * 2,
            flops: elems * 10,
            threads: 128 * 128, // 2-D thread grid only
            work_per_thread: 80,
            coalescing: 1.0,
            transcendentals: 0,
        };
        let c = m.kernel_cost(&p);
        assert!(c.time > c.memory_bound_time * 1.05);
    }

    #[test]
    fn bigger_domains_scale_sublinearly_for_2d_grids() {
        // Table II: DSL runtime scaling factors are below the grid-point
        // ratio because occupancy improves with size.
        let m = GpuModel::new(GpuSpec::p100());
        let cost = |n: u64| {
            let elems = n * n * 80;
            m.kernel_cost(&KernelProfile {
                bytes_read: elems * 8 * 4,
                bytes_written: elems * 8 * 2,
                threads: n * n,
                work_per_thread: 80,
                coalescing: 1.0,
                ..Default::default()
            })
            .time
        };
        let t128 = cost(128);
        let t192 = cost(192);
        let ratio = t192 / t128;
        assert!(ratio < 2.25, "scaling {ratio} should be below 2.25x");
        assert!(ratio > 1.8);
    }

    #[test]
    fn uncoalesced_access_is_penalized() {
        let m = GpuModel::new(GpuSpec::p100());
        let mut p = copy_profile(192, 192, 80);
        let good = m.kernel_cost(&p).time;
        p.coalescing = 0.0;
        let bad = m.kernel_cost(&p).time;
        assert!(bad > 4.0 * good, "bad={bad} good={good}");
    }

    #[test]
    fn transcendentals_can_dominate() {
        // The Smagorinsky case study: pow-heavy kernels become
        // compute-bound even though their byte counts are modest.
        let m = GpuModel::new(GpuSpec::p100());
        let elems = 192u64 * 192 * 80;
        let base = KernelProfile {
            bytes_read: elems * 8 * 3,
            bytes_written: elems * 8,
            flops: elems * 6,
            threads: elems,
            work_per_thread: 1,
            coalescing: 1.0,
            transcendentals: 0,
        };
        let with_pow = KernelProfile {
            transcendentals: elems * 3,
            ..base
        };
        let t0 = m.kernel_cost(&base);
        let t1 = m.kernel_cost(&with_pow);
        assert_eq!(t0.bound, Bound::Memory);
        assert_eq!(t1.bound, Bound::Compute);
        assert!(t1.time > 2.0 * t0.time);
    }

    #[test]
    fn tiny_kernel_is_latency_bound() {
        let m = GpuModel::new(GpuSpec::p100());
        let p = KernelProfile {
            bytes_read: 256,
            bytes_written: 256,
            threads: 32,
            coalescing: 1.0,
            ..Default::default()
        };
        assert_eq!(m.kernel_cost(&p).bound, Bound::Latency);
    }
}
