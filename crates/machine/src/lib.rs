//! Hardware substrate for the FV3 reproduction: machine specifications,
//! analytic performance models, a worker pool, and host bandwidth probes.
//!
//! The SC'22 paper evaluates on Piz Daint (NVIDIA P100 + Intel Haswell) and
//! JUWELS Booster (NVIDIA A100). Neither is available here, so this crate
//! implements the *substitution* documented in `DESIGN.md`: analytic
//! roofline-with-caches models calibrated to the published datasheet and
//! STREAM numbers the paper itself reports (Section VIII-A). The executor in
//! the `dataflow` crate counts actual data movement and arithmetic per
//! kernel; the models here are pure functions from those counters (plus the
//! chosen schedule) to a simulated runtime.
//!
//! The models intentionally capture exactly the mechanisms the paper uses to
//! explain its results:
//!
//! * memory-bandwidth-bound kernels (Section VIII): `time = bytes / bw`;
//! * GPU under-utilization for small 2D thread grids (Table II, vertical
//!   solvers): achieved bandwidth saturates with the number of resident
//!   threads;
//! * CPU cache capacity effects for k-blocked horizontal stencils
//!   (Table II, FVT): effective bandwidth collapses from cache- to
//!   DRAM-levels once the per-slab working set outgrows the cache;
//! * kernel launch overhead, which fusion amortizes (Table III);
//! * network alpha-beta costs for halo exchanges (Fig. 11).

pub mod cancel;
pub mod cpu_model;
pub mod faults;
pub mod gpu_model;
pub mod network;
pub mod pool;
pub mod run;
pub mod spec;
pub mod stream;

pub use cancel::{CancelCause, CancelToken};
pub use cpu_model::CpuModel;
pub use faults::{FaultAction, FaultSpec, Faults, FireCtx};
pub use gpu_model::GpuModel;
pub use network::NetworkModel;
pub use pool::Pool;
pub use run::{RankSchedule, RunConfig, RunContext};
pub use spec::{CacheLevel, CpuSpec, GpuSpec, NetworkSpec, Target};

/// Data-movement and arithmetic counters for one kernel invocation.
///
/// Produced by the `dataflow` executor (which counts unique field elements
/// touched, mirroring the paper's 17-line bounds script that "considers every
/// element of the field being accessed once, even if multiple threads access
/// the same element").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelProfile {
    /// Unique bytes read from global/main memory.
    pub bytes_read: u64,
    /// Unique bytes written to global/main memory.
    pub bytes_written: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Number of independent parallel work items (threads) exposed.
    pub threads: u64,
    /// Sequential work per thread (e.g. the K loop length of a vertical
    /// solver scheduled as a loop).
    pub work_per_thread: u64,
    /// Fraction of accesses that are coalesced / unit-stride on the
    /// innermost parallel dimension, in `[0, 1]`.
    pub coalescing: f64,
    /// Expensive transcendental operations (pow, exp, log) — these run on
    /// the special-function path and can dominate otherwise bandwidth-bound
    /// kernels (the Smagorinsky diffusion case study of Section VI-C1).
    pub transcendentals: u64,
}

impl KernelProfile {
    /// Total unique bytes moved to or from main memory.
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Merge two profiles as if their kernels were fused into one launch.
    ///
    /// The caller is responsible for removing any intermediate traffic that
    /// fusion elides; this helper only sums counters and keeps the max
    /// parallelism.
    pub fn fuse(&self, other: &KernelProfile) -> KernelProfile {
        KernelProfile {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            flops: self.flops + other.flops,
            threads: self.threads.max(other.threads),
            work_per_thread: self.work_per_thread.max(other.work_per_thread),
            coalescing: if self.bytes_total() + other.bytes_total() == 0 {
                1.0
            } else {
                (self.coalescing * self.bytes_total() as f64
                    + other.coalescing * other.bytes_total() as f64)
                    / (self.bytes_total() + other.bytes_total()) as f64
            },
            transcendentals: self.transcendentals + other.transcendentals,
        }
    }
}

/// Which resource limits a kernel under a given model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Main-memory bandwidth.
    Memory,
    /// Floating-point throughput.
    Compute,
    /// Fixed launch / loop overhead.
    Latency,
    /// Insufficient exposed parallelism to saturate the device.
    Occupancy,
}

/// Result of costing one kernel on a machine model.
#[derive(Debug, Clone, Copy)]
pub struct KernelCost {
    /// Simulated runtime in seconds.
    pub time: f64,
    /// The binding resource.
    pub bound: Bound,
    /// Runtime the kernel would have if it ran at full memory bandwidth —
    /// the "peak performance if it were memory bandwidth bound" of the
    /// paper's Fig. 10 analysis.
    pub memory_bound_time: f64,
}

impl KernelCost {
    /// Fraction of bandwidth-bound peak actually achieved (1.0 = at peak).
    pub fn peak_fraction(&self) -> f64 {
        if self.time <= 0.0 {
            1.0
        } else {
            (self.memory_bound_time / self.time).min(1.0)
        }
    }
}

/// A performance model: maps a kernel profile to a simulated cost.
pub trait PerfModel {
    /// Cost a single kernel launch.
    fn kernel_cost(&self, profile: &KernelProfile) -> KernelCost;

    /// Human-readable model name (e.g. `"P100"`).
    fn name(&self) -> &str;

    /// Peak attainable main-memory bandwidth in bytes/second.
    fn attainable_bandwidth(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_fuse_sums_and_averages() {
        let a = KernelProfile {
            bytes_read: 100,
            bytes_written: 100,
            flops: 10,
            threads: 4,
            work_per_thread: 1,
            coalescing: 1.0,
            transcendentals: 0,
        };
        let b = KernelProfile {
            bytes_read: 200,
            bytes_written: 0,
            flops: 30,
            threads: 8,
            work_per_thread: 2,
            coalescing: 0.5,
            transcendentals: 3,
        };
        let f = a.fuse(&b);
        assert_eq!(f.bytes_total(), 400);
        assert_eq!(f.flops, 40);
        assert_eq!(f.threads, 8);
        assert_eq!(f.work_per_thread, 2);
        assert_eq!(f.transcendentals, 3);
        // weighted coalescing: (1.0*200 + 0.5*200) / 400 = 0.75
        assert!((f.coalescing - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fuse_with_empty_keeps_coalescing() {
        let a = KernelProfile {
            bytes_read: 64,
            bytes_written: 64,
            coalescing: 0.8,
            ..Default::default()
        };
        let empty = KernelProfile::default();
        let f = a.fuse(&empty);
        assert_eq!(f.bytes_total(), 128);
        assert!((f.coalescing - 0.8).abs() < 1e-12);
    }

    #[test]
    fn peak_fraction_caps_at_one() {
        let c = KernelCost {
            time: 1.0,
            bound: Bound::Memory,
            memory_bound_time: 2.0,
        };
        assert_eq!(c.peak_fraction(), 1.0);
        let c2 = KernelCost {
            time: 2.0,
            bound: Bound::Compute,
            memory_bound_time: 1.0,
        };
        assert!((c2.peak_fraction() - 0.5).abs() < 1e-12);
    }
}
