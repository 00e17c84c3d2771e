//! Schedule-assignment and region-realization transformations.
//!
//! Covers the schedule attribute sweeps of Section VI-A4 (assigning the
//! tuned `[Interval, Operation, K, J, I]` horizontal and
//! `[J, I, Interval, Operation, K]` vertical schedules *en masse*) and the
//! Table III "Split regions to multiple kernels" row: realizing horizontal
//! regions as separate small kernels instead of predicated full-domain
//! statements (Section V-A lists both options).

use crate::graph::{DataflowNode, Sdfg};
use crate::kernel::{Domain, KOrder, Kernel, Region2, RegionStrategy, Schedule};
use crate::transforms::Applied;

/// Assign `horizontal` to every parallel kernel and `vertical` to every
/// forward/backward solver (the *en masse* application of the locally
/// tuned schedules).
pub fn assign_schedules(sdfg: &mut Sdfg, horizontal: &Schedule, vertical: &Schedule) -> usize {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut n = 0;
    for state in &mut sdfg.states {
        for node in &mut state.nodes {
            if let DataflowNode::Kernel(k) = node {
                let tmpl = if k.k_order == KOrder::Parallel {
                    horizontal
                } else {
                    vertical
                };
                let mut s = tmpl.clone();
                s.regions = k.schedule.regions;
                if k.k_order != KOrder::Parallel {
                    s.k_as_loop = true;
                }
                if s != k.schedule {
                    k.schedule = s;
                    n += 1;
                }
            }
        }
    }
    n
}

/// Resolve a region into a concrete horizontal sub-domain of `d`.
fn region_domain(r: &Region2, d: &Domain) -> Domain {
    let (il, ih) = r.i.resolve(d.start[0], d.end[0]);
    let (jl, jh) = r.j.resolve(d.start[1], d.end[1]);
    Domain {
        start: [il, jl, d.start[2]],
        end: [ih, jh, d.end[2]],
    }
}

/// Split one kernel's region statements into separate kernels over the
/// region sub-domains, preserving statement order.
///
/// Statements are grouped into runs of same "regionness"; each run with a
/// region becomes its own kernel whose domain *is* the region, with the
/// region predicate dropped. Returns `Err` when the kernel has no region
/// statements.
fn split_regions_of(kernel: &Kernel) -> Result<Vec<Kernel>, String> {
    if kernel.stmts.iter().all(|s| s.region.is_none()) {
        return Err(format!("kernel '{}' has no region statements", kernel.name));
    }
    let mut out: Vec<Kernel> = Vec::new();
    let mut part = 0usize;
    for s in &kernel.stmts {
        let want_region = s.region;
        let start_new = match out.last() {
            None => true,
            Some(last) => {
                let last_is_region = last.domain != kernel.domain;
                match want_region {
                    // A full statement can join a previous full kernel.
                    None => last_is_region,
                    // Region statements each get their own kernel (they may
                    // target different edges).
                    Some(_) => true,
                }
            }
        };
        if start_new {
            let domain = match &want_region {
                Some(r) => region_domain(r, &kernel.domain),
                None => kernel.domain,
            };
            let mut k = Kernel::new(
                format!("{}#{}", kernel.name, part),
                domain,
                kernel.k_order,
                Schedule {
                    regions: RegionStrategy::SplitKernels,
                    ..kernel.schedule.clone()
                },
            );
            k.n_locals = kernel.n_locals;
            k.cached_fields = kernel.cached_fields.clone();
            out.push(k);
            part += 1;
        }
        let mut stmt = s.clone();
        stmt.region = None;
        out.last_mut().unwrap().stmts.push(stmt);
    }
    Ok(out)
}

/// Split regions across the whole SDFG. Kernels without regions are left
/// untouched; kernels with regions are replaced in place by their splits.
pub fn split_regions(sdfg: &mut Sdfg) -> Vec<Applied> {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut applied = Vec::new();
    for state in &mut sdfg.states {
        let mut new_nodes = Vec::with_capacity(state.nodes.len());
        for node in state.nodes.drain(..) {
            match node {
                DataflowNode::Kernel(k) if k.stmts.iter().any(|s| s.region.is_some()) => {
                    let parts = split_regions_of(&k).expect("checked regions exist");
                    applied.push(Applied {
                        kind: "region-split",
                        labels: vec![k.name.clone()],
                    });
                    for p in parts {
                        new_nodes.push(DataflowNode::Kernel(p));
                    }
                }
                other => new_nodes.push(other),
            }
        }
        state.nodes = new_nodes;
    }
    applied
}

/// Remove region statements that do not apply on this rank ("region
/// pruning", Table III): in a distributed run, only ranks holding a tile
/// edge or corner execute the specialized computations. `keep` decides,
/// per region, whether this rank needs it.
pub fn prune_regions(sdfg: &mut Sdfg, keep: &impl Fn(&Region2) -> bool) -> Vec<Applied> {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut applied = Vec::new();
    for state in &mut sdfg.states {
        for node in &mut state.nodes {
            if let DataflowNode::Kernel(k) = node {
                let before = k.stmts.len();
                k.stmts.retain(|s| match &s.region {
                    Some(r) => keep(r),
                    None => true,
                });
                if k.stmts.len() != before {
                    applied.push(Applied {
                        kind: "region-prune",
                        labels: vec![k.name.clone()],
                    });
                }
            }
        }
        // Kernels left with no statements disappear entirely.
        state.nodes.retain(|n| match n {
            DataflowNode::Kernel(k) => !k.stmts.is_empty(),
            _ => true,
        });
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{DataStore, Executor, NoHooks};
    use crate::expr::{DataId, Expr};
    use crate::graph::State;
    use crate::kernel::{AxisInterval, Extent2, LValue, Stmt};
    use crate::storage::{Layout, StorageOrder};

    fn region_sdfg() -> (Sdfg, DataId, DataId) {
        let mut g = Sdfg::new("r");
        let l = Layout::new([8, 8, 2], [1, 1, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let out = g.add_container("out", l, false);
        let dom = Domain::from_shape([8, 8, 2]);
        let mut k = Kernel::new("flux", dom, KOrder::Parallel, Schedule::gpu_horizontal());
        k.stmts.push(Stmt::full(
            LValue::Field(out),
            Expr::load(a, 0, 0, 0) * Expr::c(2.0),
        ));
        // Edge correction on j = j_start, and one on i = i_end - 1.
        k.stmts.push(Stmt {
            lvalue: LValue::Field(out),
            expr: Expr::load(a, 0, 0, 0) * Expr::c(10.0),
            k_range: AxisInterval::FULL,
            region: Some(Region2 {
                i: AxisInterval::FULL,
                j: AxisInterval::at_start(0),
            }),
            extent: Extent2::ZERO,
        });
        k.stmts.push(Stmt {
            lvalue: LValue::Field(out),
            expr: Expr::load(a, 0, 0, 0) * Expr::c(100.0),
            k_range: AxisInterval::FULL,
            region: Some(Region2 {
                i: AxisInterval::at_end(-1),
                j: AxisInterval::FULL,
            }),
            extent: Extent2::ZERO,
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        (g, a, out)
    }

    fn run(g: &Sdfg, a: DataId, out: DataId) -> crate::storage::Array3 {
        let mut store = DataStore::for_sdfg(g);
        *store.get_mut(a) =
            crate::storage::Array3::from_fn(g.layout_of(a), |i, j, k| (1 + i + j * 8 + k) as f64);
        Executor::serial().run(g, &mut store, &[], &mut NoHooks);
        store.get(out).clone()
    }

    #[test]
    fn split_regions_preserves_semantics() {
        let (mut g, a, out) = region_sdfg();
        let before = run(&g, a, out);
        let applied = split_regions(&mut g);
        assert_eq!(applied.len(), 1);
        // 1 full kernel + 2 region kernels.
        assert_eq!(g.kernel_count(), 3);
        let after = run(&g, a, out);
        assert_eq!(before.max_abs_diff(&after), 0.0);
        // Region kernels must carry the split strategy and tiny domains.
        let kernels: Vec<&Kernel> = g.states[0].kernels().collect();
        assert_eq!(kernels[1].domain.horizontal_points(), 8);
        assert_eq!(kernels[2].domain.horizontal_points(), 8);
        assert!(kernels
            .iter()
            .all(|k| k.schedule.regions == RegionStrategy::SplitKernels));
    }

    #[test]
    fn split_reduces_modeled_traffic() {
        let (mut g, _, _) = region_sdfg();
        let traffic = |g: &Sdfg| -> u64 {
            g.states[0]
                .kernels()
                .map(|k| k.profile(&g.layout_fn()).bytes_total())
                .sum()
        };
        let before = traffic(&g);
        split_regions(&mut g);
        let after = traffic(&g);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn split_rejects_region_free_kernel() {
        let (g, _, _) = region_sdfg();
        let mut plain = g.states[0].kernels().next().unwrap().clone();
        plain.stmts.retain(|s| s.region.is_none());
        assert!(split_regions_of(&plain).is_err());
    }

    #[test]
    fn prune_removes_inapplicable_regions() {
        let (mut g, a, out) = region_sdfg();
        // This "rank" holds no j_start edge: prune regions touching it.
        let applied = prune_regions(&mut g, &|r| r.j != AxisInterval::at_start(0));
        assert_eq!(applied.len(), 1);
        let k = g.states[0].kernels().next().unwrap();
        assert_eq!(k.stmts.len(), 2);
        // Semantics now differ on the pruned edge but match elsewhere.
        let res = run(&g, a, out);
        assert_eq!(res.get(3, 0, 0), 2.0 * (1 + 3) as f64, "edge no longer specialized");
    }

    #[test]
    fn prune_drops_empty_kernels() {
        let (mut g, _, _) = region_sdfg();
        // Make a kernel with ONLY region stmts, then prune everything.
        if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[0] {
            k.stmts.remove(0);
        }
        prune_regions(&mut g, &|_| false);
        assert_eq!(g.kernel_count(), 0);
    }

    #[test]
    fn assign_schedules_respects_korder() {
        let (mut g, _, _) = region_sdfg();
        // Add a vertical solver.
        let l = g.containers[0].layout.clone();
        let x = g.add_container("x", l, false);
        let mut vk = Kernel::new(
            "vsolve",
            Domain::from_shape([8, 8, 2]),
            KOrder::Forward,
            Schedule::default_unoptimized(),
        );
        vk.stmts
            .push(Stmt::full(LValue::Field(x), Expr::load(x, 0, 0, -1)));
        g.states[0].nodes.push(DataflowNode::Kernel(vk));

        let n = assign_schedules(&mut g, &Schedule::gpu_horizontal(), &Schedule::gpu_vertical());
        assert!(n >= 1);
        let ks: Vec<&Kernel> = g.states[0].kernels().collect();
        assert!(!ks[0].schedule.k_as_loop, "horizontal stays a 3-D map");
        assert!(ks[1].schedule.k_as_loop, "solver keeps its K loop");
    }
}
