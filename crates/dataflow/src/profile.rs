//! Aggregation of executor spans: per-kernel wall time, iteration
//! counts, and modeled bytes moved.
//!
//! The paper's optimization cycle (Fig. 7) is measurement-driven: the
//! authors rank stencils "by summarized runtimes grouped by kernel type"
//! (Section VI-C) and compare achieved against bandwidth-bound runtimes
//! (Fig. 10) to decide where to tune next.
//! [`Executor::run_profiled`](crate::exec::Executor::run_profiled)
//! records one [`TraceEvent`] per executed node straight into an
//! [`obs::Tracer`] — the recorder, clock and chrome-trace codec all live
//! in `obs` — with modeled byte/flop volumes from the kernel access sets
//! ([`Kernel::profile`](crate::kernel::Kernel::profile)).
//! [`ProfileReport::from_events`] folds those events into the aggregated
//! per-kernel view, so achieved bandwidth and %-of-roofline fall out of
//! a single run.
//!
//! Instrumentation must never perturb results: the profiled path only
//! reads clocks and the (immutable) kernel structure, never the data
//! plane. The differential transform tests in `tests/transform_diff.rs`
//! run every comparison with profiling enabled to pin that property down.

use obs::TraceEvent;

/// Aggregated statistics for one kernel name across all its launches.
#[derive(Debug, Clone, Default)]
pub struct KernelProfileStat {
    pub name: String,
    pub invocations: u64,
    pub points: u64,
    pub wall_seconds: f64,
    /// Modeled bytes summed over invocations (from the kernel access set).
    pub modeled_bytes: u64,
    /// Modeled cheap flops summed over invocations.
    pub modeled_flops: u64,
}

impl KernelProfileStat {
    /// Achieved bandwidth in bytes/s: modeled traffic over measured time.
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.modeled_bytes as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fraction of the bandwidth-bound runtime achieved, against an
    /// attainable bandwidth in bytes/s (the Fig. 10 "% of peak" column,
    /// but measured instead of modeled). Clamped to 1.
    pub fn roofline_fraction(&self, attainable_bandwidth: f64) -> f64 {
        if self.wall_seconds <= 0.0 || attainable_bandwidth <= 0.0 {
            return 0.0;
        }
        let bound = self.modeled_bytes as f64 / attainable_bandwidth;
        (bound / self.wall_seconds).min(1.0)
    }

    /// Roofline fraction against *both* ceilings: the binding resource is
    /// whichever of memory traffic (`modeled_bytes / bw`) or arithmetic
    /// (`modeled_flops / flop rate`) takes longer, so compute-bound kernels
    /// are judged against the compute roofline instead of an
    /// ever-unreachable bandwidth bound. Clamped to 1.
    pub fn roofline_fraction_dual(&self, attainable_bandwidth: f64, attainable_flops: f64) -> f64 {
        if self.wall_seconds <= 0.0 || attainable_bandwidth <= 0.0 {
            return 0.0;
        }
        let mem = self.modeled_bytes as f64 / attainable_bandwidth;
        let cmp = if attainable_flops > 0.0 {
            self.modeled_flops as f64 / attainable_flops
        } else {
            0.0
        };
        (mem.max(cmp) / self.wall_seconds).min(1.0)
    }

    /// True when the modeled compute time exceeds the modeled memory time —
    /// the kernel sits on the compute side of the roofline ridge.
    pub fn compute_bound(&self, attainable_bandwidth: f64, attainable_flops: f64) -> bool {
        if attainable_bandwidth <= 0.0 || attainable_flops <= 0.0 {
            return false;
        }
        self.modeled_flops as f64 / attainable_flops
            > self.modeled_bytes as f64 / attainable_bandwidth
    }
}

/// Aggregated statistics for one non-kernel event category (copy, halo,
/// callback), so host glue is attributed beside the kernels instead of
/// dropped on the floor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CategoryStat {
    /// Events recorded in this category.
    pub invocations: u64,
    /// Points attributed (written elements for callbacks/copies).
    pub points: u64,
    /// Modeled bytes moved, summed over events.
    pub modeled_bytes: u64,
    /// Modeled flops, summed over events (0 for pure data movement).
    pub modeled_flops: u64,
}

/// Aggregated view of one or more profiled executions.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Stats grouped by kernel name.
    pub kernels: Vec<KernelProfileStat>,
    /// Kernel launches performed.
    pub launches: u64,
    /// Wall seconds inside kernels.
    pub kernel_seconds: f64,
    /// Wall seconds inside copy nodes.
    pub copy_seconds: f64,
    /// Wall seconds inside halo-exchange hooks.
    pub halo_seconds: f64,
    /// Wall seconds inside host callbacks.
    pub callback_seconds: f64,
    /// Invocation/traffic attribution for copy nodes.
    pub copy: CategoryStat,
    /// Invocation/traffic attribution for halo-exchange hooks.
    pub halo: CategoryStat,
    /// Invocation/traffic attribution for host callbacks.
    pub callback: CategoryStat,
}

impl ProfileReport {
    /// Aggregate the executor's `kernel` / `copy` / `halo` / `callback`
    /// events; every other category (enclosing run/step/module spans of
    /// the same tracer) is ignored.
    pub fn from_events(events: &[TraceEvent]) -> ProfileReport {
        let mut r = ProfileReport::default();
        for e in events {
            match e.cat.as_str() {
                "kernel" => {
                    let secs = e.dur_us * 1e-6;
                    r.launches += 1;
                    r.kernel_seconds += secs;
                    let k = match r.kernels.iter().position(|k| k.name == e.name) {
                        Some(i) => &mut r.kernels[i],
                        None => {
                            r.kernels.push(KernelProfileStat {
                                name: e.name.clone(),
                                ..Default::default()
                            });
                            r.kernels.last_mut().expect("just pushed")
                        }
                    };
                    k.invocations += 1;
                    k.points += e.points;
                    k.wall_seconds += secs;
                    k.modeled_bytes += e.bytes;
                    k.modeled_flops += e.flops;
                }
                "copy" => accumulate(&mut r.copy_seconds, &mut r.copy, e),
                "halo" => accumulate(&mut r.halo_seconds, &mut r.halo, e),
                "callback" => accumulate(&mut r.callback_seconds, &mut r.callback, e),
                _ => {}
            }
        }
        r
    }

    /// Kernels sorted by total wall time descending (the Fig. 10 ranking).
    pub fn ranked(&self) -> Vec<&KernelProfileStat> {
        let mut v: Vec<&KernelProfileStat> = self.kernels.iter().collect();
        v.sort_by(|a, b| b.wall_seconds.partial_cmp(&a.wall_seconds).unwrap());
        v
    }

    /// Total modeled bytes across all kernels.
    pub fn total_modeled_bytes(&self) -> u64 {
        self.kernels.iter().map(|k| k.modeled_bytes).sum()
    }

    /// Total modeled flops across all kernels.
    pub fn total_modeled_flops(&self) -> u64 {
        self.kernels.iter().map(|k| k.modeled_flops).sum()
    }

    /// Total wall seconds across every category.
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.copy_seconds + self.halo_seconds + self.callback_seconds
    }

    /// Aggregate achieved bandwidth over all kernel time.
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.kernel_seconds > 0.0 {
            self.total_modeled_bytes() as f64 / self.kernel_seconds
        } else {
            0.0
        }
    }

    /// Aggregate fraction of the bandwidth bound achieved.
    pub fn roofline_fraction(&self, attainable_bandwidth: f64) -> f64 {
        if self.kernel_seconds <= 0.0 || attainable_bandwidth <= 0.0 {
            return 0.0;
        }
        let bound = self.total_modeled_bytes() as f64 / attainable_bandwidth;
        (bound / self.kernel_seconds).min(1.0)
    }
}

/// Fold one non-kernel event into its category attribution.
fn accumulate(seconds: &mut f64, stat: &mut CategoryStat, e: &TraceEvent) {
    *seconds += e.dur_us * 1e-6;
    stat.invocations += 1;
    stat.points += e.points;
    stat.modeled_bytes += e.bytes;
    stat.modeled_flops += e.flops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DataStore, Executor, NoHooks};
    use crate::graph::{DataflowNode, Sdfg, State};
    use crate::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};
    use crate::Expr;

    fn event(name: &str, cat: &str, ts: f64, dur: f64, points: u64, bytes: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: 0,
            ts_us: ts,
            dur_us: dur,
            points,
            bytes,
            flops: 3 * points,
        }
    }

    #[test]
    fn report_aggregates_by_kernel_name() {
        let r = ProfileReport::from_events(&[
            event("timestep0", "step", 0.0, 50.0, 0, 0),
            event("a#0", "kernel", 0.0, 10.0, 100, 800),
            event("a#0", "kernel", 10.0, 30.0, 100, 800),
            event("b#0", "kernel", 40.0, 5.0, 50, 400),
            event("halo", "halo", 45.0, 2.0, 0, 0),
        ]);
        assert_eq!(r.launches, 3);
        assert_eq!(r.kernels.len(), 2);
        let a = &r.kernels[0];
        assert_eq!(a.invocations, 2);
        assert_eq!(a.points, 200);
        assert_eq!(a.modeled_bytes, 1600);
        assert_eq!(a.modeled_flops, 600);
        assert_eq!(r.total_modeled_flops(), 750);
        assert!((r.kernel_seconds - 45e-6).abs() < 1e-12);
        assert!((r.halo_seconds - 2e-6).abs() < 1e-12);
        assert_eq!(r.halo.invocations, 1);
        // The enclosing step span is not an executor category.
        assert!((r.total_seconds() - 47e-6).abs() < 1e-12);
        assert_eq!(r.ranked()[0].name, "a#0");
    }

    #[test]
    fn dual_roofline_binds_on_the_slower_resource() {
        let s = KernelProfileStat {
            name: "k".into(),
            invocations: 1,
            points: 10,
            wall_seconds: 4e-6,
            modeled_bytes: 1000,
            modeled_flops: 2000,
        };
        // Memory bound at 1 GB/s: 1us. Compute bound at 1 GFLOP/s: 2us.
        // Compute is the binding resource -> fraction = 2us / 4us = 0.5.
        assert!(s.compute_bound(1e9, 1e9));
        assert!((s.roofline_fraction_dual(1e9, 1e9) - 0.5).abs() < 1e-12);
        // With a fast enough FPU the memory bound binds again: 1us/4us.
        assert!(!s.compute_bound(1e9, 1e12));
        assert!((s.roofline_fraction_dual(1e9, 1e12) - 0.25).abs() < 1e-12);
        // No flop rate supplied degrades to the memory-only fraction.
        assert!((s.roofline_fraction_dual(1e9, 0.0) - s.roofline_fraction(1e9)).abs() < 1e-12);
    }

    #[test]
    fn roofline_fraction_is_bound_over_measured() {
        let s = KernelProfileStat {
            name: "k".into(),
            invocations: 1,
            points: 10,
            wall_seconds: 2e-6,
            modeled_bytes: 1000,
            modeled_flops: 0,
        };
        // Bound time at 1 GB/s = 1000 / 1e9 = 1us; measured 2us -> 50%.
        assert!((s.roofline_fraction(1e9) - 0.5).abs() < 1e-12);
        // Achieved bandwidth = 1000 B / 2us = 5e8 B/s.
        assert!((s.achieved_bandwidth() - 5e8).abs() < 1.0);
        // Measured faster than the bound (tiny attainable bw) clamps to 1.
        assert_eq!(s.roofline_fraction(1.0), 1.0);
    }

    /// One-kernel program over `[n, n, nk]` fields with halo `h`.
    fn single_kernel_sdfg(
        n: usize,
        nk: usize,
        halo: [usize; 3],
        build: impl FnOnce(crate::expr::DataId, crate::expr::DataId) -> Vec<Stmt>,
    ) -> Sdfg {
        let mut g = Sdfg::new("p");
        let l = Layout::new([n, n, nk], halo, StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let out = g.add_container("out", l, false);
        let mut k = Kernel::new(
            "k#0",
            Domain::from_shape([n, n, nk]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts = build(a, out);
        let mut s = State::new("s0");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        g
    }

    fn profiled_kernel_bytes(g: &Sdfg) -> u64 {
        let mut store = DataStore::for_sdfg(g);
        let tracer = obs::Tracer::new();
        Executor::serial().run_profiled(g, &mut store, &[], &mut NoHooks, &tracer);
        let evs = tracer.finished();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].cat, "kernel");
        evs[0].bytes
    }

    // Hand-counted access sets for three known kernels. Reads count unique
    // elements over the offset-grown domain times 8 bytes, scaled by the
    // redundancy multiplier 1 + 0.15*(offsets-1); writes count exactly the
    // written points times 8.

    #[test]
    fn modeled_bytes_copy_stencil() {
        // out[0,0,0] = a[0,0,0] on 8x8x8, no halo: 512 elements each way.
        let g = single_kernel_sdfg(8, 8, [0, 0, 0], |a, out| {
            vec![Stmt::full(LValue::Field(out), Expr::load(a, 0, 0, 0))]
        });
        // read: 512 * 8 * 1.0 = 4096; write: 512 * 8 = 4096.
        assert_eq!(profiled_kernel_bytes(&g), 4096 + 4096);
    }

    #[test]
    fn modeled_bytes_laplacian() {
        // 5-point laplacian on 16x16x4 with halo 1: the read hull grows the
        // domain by 1 in i and j -> 18*18*4 = 1296 unique elements at 5
        // distinct offsets; the write covers 16*16*4 = 1024 points.
        let g = single_kernel_sdfg(16, 4, [1, 1, 0], |a, out| {
            let e = Expr::c(-4.0) * Expr::load(a, 0, 0, 0)
                + Expr::load(a, -1, 0, 0)
                + Expr::load(a, 1, 0, 0)
                + Expr::load(a, 0, -1, 0)
                + Expr::load(a, 0, 1, 0);
            vec![Stmt::full(LValue::Field(out), e)]
        });
        // read: 1296 * 8 * (1 + 0.15*4) = 10368 * 1.6 = 16588.8 -> 16588;
        // write: 1024 * 8 = 8192.
        assert_eq!(profiled_kernel_bytes(&g), 16588 + 8192);
    }

    #[test]
    fn modeled_bytes_vertical_average() {
        // out = (a[k-1] + a[k+1]) / 2 on 8x8x8 with k-halo 1: read hull
        // 8*8*10 = 640 elements at 2 offsets; write 512 points.
        let g = single_kernel_sdfg(8, 8, [0, 0, 1], |a, out| {
            let e = (Expr::load(a, 0, 0, -1) + Expr::load(a, 0, 0, 1)) * Expr::c(0.5);
            vec![Stmt::full(LValue::Field(out), e)]
        });
        // read: 640 * 8 * (1 + 0.15) = 5120 * 1.15 = 5888; write: 4096.
        assert_eq!(profiled_kernel_bytes(&g), 5888 + 4096);
    }
}
