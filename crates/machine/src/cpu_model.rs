//! Analytic multicore-CPU kernel cost model.
//!
//! The FORTRAN FV3 production build is tuned for exactly one effect: 2-D
//! horizontal slabs of the fields stay resident in cache across the hoisted
//! vertical loop (k-blocking, Section II). The model therefore takes the
//! *working set* of the blocked loop body into account: if the slab working
//! set fits the blocking cache, traffic is served at cache bandwidth; once
//! it outgrows the cache, effective bandwidth degrades smoothly toward DRAM
//! bandwidth. This reproduces the Table II trend where the FORTRAN version
//! "scales increasingly worse as the domain size grows" for FVT while the
//! vertical solvers (whose columns defeat slab blocking) stream from DRAM at
//! every size.

use crate::spec::CpuSpec;
use crate::{Bound, KernelCost, KernelProfile, PerfModel};

/// CPU cost model wrapping a [`CpuSpec`].
#[derive(Debug, Clone)]
pub struct CpuModel {
    spec: CpuSpec,
}

impl CpuModel {
    /// Build a model from a node spec.
    pub fn new(spec: CpuSpec) -> Self {
        CpuModel { spec }
    }

    /// The underlying node spec.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Fraction of traffic served from the blocking cache for a loop nest
    /// whose per-iteration working set is `working_set` bytes.
    ///
    /// A smooth logistic in `ln(ws / capacity)` so the transition is gradual
    /// (sets slightly above capacity still get partial reuse, matching the
    /// gentle degradation between the paper's 192^2 and 256^2 rows before
    /// the 384^2 cliff).
    fn cache_hit_fraction(&self, working_set: u64) -> f64 {
        if working_set == 0 {
            return 1.0;
        }
        let cap = self.spec.blocking_cache.capacity as f64;
        let x = (working_set as f64 / cap).ln();
        // Steepness chosen so ws = cap/2 gives ~0.89 and ws = 4*cap ~0.01.
        1.0 / (1.0 + (3.2 * x).exp())
    }

    /// Effective bandwidth for a kernel with the given slab working set.
    fn effective_bandwidth(&self, working_set: u64) -> f64 {
        let h = self.cache_hit_fraction(working_set);
        let cache = self.spec.blocking_cache.bandwidth;
        let dram = self.spec.dram_bandwidth;
        dram * (1.0 - h) + cache * h
    }

    /// Cost a kernel whose blocked inner working set is `working_set` bytes.
    ///
    /// `working_set == u64::MAX` (or anything much larger than the cache)
    /// degenerates to pure streaming; `0` means the data fits entirely.
    pub fn kernel_cost_with_working_set(
        &self,
        p: &KernelProfile,
        working_set: u64,
    ) -> KernelCost {
        let bytes = p.bytes_total() as f64;
        let memory_bound_time = bytes / self.spec.dram_bandwidth;

        let t_mem = bytes / self.effective_bandwidth(working_set);
        let t_flop = p.flops as f64 / self.spec.peak_flops;
        let t_trans = p.transcendentals as f64 / self.spec.transcendental_rate;
        let t_compute = t_flop + t_trans;
        let t_loop = self.spec.loop_overhead;

        let body = t_mem.max(t_compute);
        let time = t_loop + body;

        let bound = if t_loop > body {
            Bound::Latency
        } else if t_compute > t_mem {
            Bound::Compute
        } else {
            Bound::Memory
        };

        KernelCost {
            time,
            bound,
            memory_bound_time,
        }
    }
}

impl PerfModel for CpuModel {
    fn kernel_cost(&self, p: &KernelProfile) -> KernelCost {
        // Without blocking information, assume streaming (working set is
        // the full traffic volume).
        self.kernel_cost_with_working_set(p, p.bytes_total())
    }

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn attainable_bandwidth(&self) -> f64 {
        self.spec.dram_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CpuSpec;

    fn model() -> CpuModel {
        CpuModel::new(CpuSpec::haswell_e5_2690v3())
    }

    #[test]
    fn hit_fraction_is_monotone_decreasing() {
        let m = model();
        let sizes = [64u64, 1 << 16, 1 << 20, 1 << 22, 1 << 24, 1 << 28];
        let fr: Vec<f64> = sizes.iter().map(|&s| m.cache_hit_fraction(s)).collect();
        for w in fr.windows(2) {
            assert!(w[0] >= w[1], "{fr:?}");
        }
        assert!(fr[0] > 0.95);
        assert!(*fr.last().unwrap() < 0.01);
    }

    #[test]
    fn small_working_set_runs_at_cache_speed() {
        let m = model();
        let elems = 128u64 * 128;
        let p = KernelProfile {
            bytes_read: elems * 8 * 4,
            bytes_written: elems * 8,
            flops: elems * 5,
            threads: 12,
            coalescing: 1.0,
            ..Default::default()
        };
        // k-blocked slab: 5 fields x 128^2 doubles = 640 KiB, fits.
        let blocked = m.kernel_cost_with_working_set(&p, elems * 8 * 5);
        let streaming = m.kernel_cost_with_working_set(&p, u64::MAX / 2);
        assert!(blocked.time < streaming.time / 2.0);
    }

    #[test]
    fn fvt_like_kernel_scales_worse_than_ideal_with_domain() {
        // Table II right: FORTRAN FVT slowdowns (2.61x at 2.25x domain,
        // 10.49x at 4x, 31.27x at 9x) — super-linear scaling because the
        // slabs fall out of cache.
        let m = model();
        let cost = |n: u64| {
            let elems = n * n * 80;
            let slab = n * n * 8 * 10; // ~10 fields of 2-D slabs
            m.kernel_cost_with_working_set(
                &KernelProfile {
                    bytes_read: elems * 8 * 8,
                    bytes_written: elems * 8 * 2,
                    flops: elems * 40,
                    threads: 12,
                    coalescing: 1.0,
                    ..Default::default()
                },
                slab,
            )
            .time
        };
        let t128 = cost(128);
        let t256 = cost(256);
        let t384 = cost(384);
        assert!(
            t256 / t128 > 4.0,
            "4x domain should scale worse than 4x: {}",
            t256 / t128
        );
        assert!(
            t384 / t128 > 9.0,
            "9x domain should scale worse than 9x: {}",
            t384 / t128
        );
        // ...but the marginal penalty flattens once fully out of cache.
        assert!((t384 / t256) < (t256 / t128));
    }

    #[test]
    fn streaming_kernel_scales_near_ideal() {
        // Vertical solvers stream; their FORTRAN scaling in Table II is
        // close to the grid-point ratio (2.28 vs 2.25 etc.).
        let m = model();
        let cost = |n: u64| {
            let elems = n * n * 80;
            m.kernel_cost_with_working_set(
                &KernelProfile {
                    bytes_read: elems * 8 * 6,
                    bytes_written: elems * 8 * 2,
                    threads: 12,
                    coalescing: 1.0,
                    ..Default::default()
                },
                elems * 8 * 8,
            )
            .time
        };
        let r = cost(256) / cost(128);
        assert!(r > 3.9 && r < 4.8, "scaling {r}");
    }

    #[test]
    fn streaming_matches_dram_bandwidth() {
        let m = model();
        let bw = m.effective_bandwidth(u64::MAX / 2);
        assert!((bw - m.spec().dram_bandwidth).abs() / m.spec().dram_bandwidth < 0.01);
    }
}
