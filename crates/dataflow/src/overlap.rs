//! Interior/rind program splitting for compute/communication overlap.
//!
//! A distributed acoustic substep has the shape `halo exchange → kernels
//! → suffix` (copies, callbacks). To hide the exchange behind compute,
//! [`split_for_overlap`] derives two programs from the expanded SDFG:
//!
//! * **interior** — the leading kernel chain restricted to columns far
//!   enough from the subdomain edge that no transitive read reaches a
//!   halo cell. It is valid to run *before* the exchange completes.
//! * **rind** — the same kernels restricted to the remaining boundary
//!   columns, followed by the untouched suffix nodes. It runs after the
//!   exchange has been unpacked.
//!
//! Running `interior` then `rind` on one store is **bit-identical** to
//! running the original program, because both VMs give every
//! column its statements in program order and
//! [`validate_kernel`](crate::exec::validate_kernel) guarantees no kernel
//! reads a field it writes at a horizontal offset — so any column
//! partition that (a) keeps each column's statements in one program and
//! (b) respects cross-kernel data dependencies reproduces the exact same
//! sequence of operations per column. Condition (a) holds because every
//! statement of one kernel splits at that kernel's own interior box;
//! condition (b) is the margin recurrence below.
//!
//! **Margins.** Let `r_m` be kernel `m`'s read radius (max |i|,|j| over
//! its loads) and `R_m` its interior margin (box `[R_m, n-R_m)²`). The
//! recurrence
//!
//! ```text
//! R_1 = r_1,   R_{m+1} = R_m + max(r_m, r_{m+1})
//! ```
//!
//! guarantees, for every pair `l < m`:
//! * *no halo reads*: `R_m ≥ r_m`, so interior reads stay inside the
//!   owned subdomain — stale pre-exchange halos are never consumed;
//! * *flow*: `R_m ≥ R_l + r_m`, so everything interior kernel `m` reads
//!   of kernel `l`'s output was already computed by `l`'s interior part;
//! * *anti*: `R_m ≥ R_l + r_l`, so kernel `m`'s interior writes never
//!   clobber values kernel `l`'s rind part still has to read (`l`'s rind
//!   reads reach only `R_l + r_l - 1` columns in);
//! * *output*: interior and rind column sets are disjoint per kernel.
//!
//! When `2·R_m ≥ n` a kernel's interior box is empty: the cut points are
//! clamped (`b_hi = max(b_hi, b_lo)`) so the W/E strips still partition
//! each row exactly once, the split stays correct (everything lands in
//! the rind) but hides nothing — the driver reports zero overlap for
//! such resolutions (e.g. c8 with halo-4 stencils) and real overlap at
//! c48 and up.

use crate::graph::{DataflowNode, Sdfg};
use crate::kernel::{Anchor, AxisInterval, Extent2, Kernel, Region2, Stmt};
use crate::DataId;

/// The derived interior and rind programs (see module docs).
#[derive(Debug, Clone)]
pub struct SplitPrograms {
    /// Leading kernels clipped to their interior boxes; safe to run
    /// before the halo exchange lands. Shares the source's containers.
    pub interior: Sdfg,
    /// Boundary strips of the leading kernels plus the original suffix
    /// nodes; runs after unpack.
    pub rind: Sdfg,
    /// Fields of the leading halo-exchange marker (what the driver must
    /// exchange for this program).
    pub exchanged: Vec<DataId>,
    /// Per-prefix-kernel interior margins `R_m`.
    pub margins: Vec<i64>,
    /// Leading kernels split (the overlap-eligible prefix).
    pub n_prefix: usize,
    /// Total horizontal interior points across prefix kernels; zero means
    /// the resolution is too small for this stencil chain to overlap.
    pub interior_points: u64,
}

impl SplitPrograms {
    /// Whether any compute can actually run ahead of the exchange.
    pub fn has_interior(&self) -> bool {
        self.interior_points > 0
    }
}

/// Max horizontal read radius of a kernel.
fn read_radius(k: &Kernel) -> i64 {
    let mut r = 0i64;
    for s in &k.stmts {
        for (_, o) in s.expr.loads() {
            r = r.max(o.i.unsigned_abs() as i64).max(o.j.unsigned_abs() as i64);
        }
    }
    r
}

/// A statement's horizontal bounds, as `exec::compile_kernel` runs it.
fn stmt_bounds(k: &Kernel, s: &Stmt) -> (i64, i64, i64, i64) {
    let b = s.bounds(&k.domain);
    (b.start[0], b.end[0], b.start[1], b.end[1])
}

/// An absolute horizontal rectangle `[il, ih) × [jl, jh)`.
#[derive(Debug, Clone, Copy)]
struct Rect {
    il: i64,
    ih: i64,
    jl: i64,
    jh: i64,
}

impl Rect {
    fn is_empty(&self) -> bool {
        self.ih <= self.il || self.jh <= self.jl
    }
    fn points(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            ((self.ih - self.il) * (self.jh - self.jl)) as u64
        }
    }
}

/// Rebuild a kernel from `(stmt, rect)` restrictions: the new kernel's
/// horizontal domain is the hull of the rectangles (so the anchored
/// regions below resolve without clamping), the vertical domain is
/// untouched (statement `k_range`s must keep their anchors), and each
/// statement carries its rectangle as an absolute `Region2`.
fn kernel_from_rects(k: &Kernel, suffix: &str, parts: &[(usize, Rect)]) -> Option<Kernel> {
    if parts.is_empty() {
        return None;
    }
    let hull = parts.iter().fold(
        Rect {
            il: i64::MAX,
            ih: i64::MIN,
            jl: i64::MAX,
            jh: i64::MIN,
        },
        |h, (_, r)| Rect {
            il: h.il.min(r.il),
            ih: h.ih.max(r.ih),
            jl: h.jl.min(r.jl),
            jh: h.jh.max(r.jh),
        },
    );
    let mut out = k.clone();
    out.name = format!("{}{}", k.name, suffix);
    out.domain.start[0] = hull.il;
    out.domain.end[0] = hull.ih;
    out.domain.start[1] = hull.jl;
    out.domain.end[1] = hull.jh;
    out.stmts = parts
        .iter()
        .map(|(si, r)| {
            let s = &k.stmts[*si];
            Stmt {
                lvalue: s.lvalue,
                expr: s.expr.clone(),
                k_range: s.k_range,
                region: Some(Region2 {
                    i: AxisInterval::new(
                        Anchor::Start((r.il - hull.il) as i32),
                        Anchor::Start((r.ih - hull.il) as i32),
                    ),
                    j: AxisInterval::new(
                        Anchor::Start((r.jl - hull.jl) as i32),
                        Anchor::Start((r.jh - hull.jl) as i32),
                    ),
                }),
                extent: Extent2::ZERO,
            }
        })
        .collect();
    Some(out)
}

/// Split `k` at the interior box `[b_lo, b_hi)²` into (interior, rind)
/// kernels. Strip order per statement (W, E, S, N) keeps each column's
/// statement subsequence in original program order — the four strips of
/// one statement are pairwise disjoint.
fn split_kernel(k: &Kernel, b_lo: i64, b_hi: i64) -> (Option<Kernel>, Option<Kernel>) {
    // When the interior box is inverted (2·R > n) the cut points cross;
    // clamping keeps the W/E strips a partition of each row. Without
    // this, [b_hi, b_lo) lands in both strips and in-place statements
    // (x = x + y) double-apply there, breaking bit-identity.
    let b_hi = b_hi.max(b_lo);
    let mut interior: Vec<(usize, Rect)> = Vec::new();
    let mut rind: Vec<(usize, Rect)> = Vec::new();
    for (si, s) in k.stmts.iter().enumerate() {
        let (il, ih, jl, jh) = stmt_bounds(k, s);
        let inner = Rect {
            il: il.max(b_lo),
            ih: ih.min(b_hi),
            jl: jl.max(b_lo),
            jh: jh.min(b_hi),
        };
        if !inner.is_empty() {
            interior.push((si, inner));
        }
        let strips = [
            // West / East: full j extent.
            Rect { il, ih: ih.min(b_lo), jl, jh },
            Rect { il: il.max(b_hi), ih, jl, jh },
            // South / North: the middle i band only.
            Rect { il: il.max(b_lo), ih: ih.min(b_hi), jl, jh: jh.min(b_lo) },
            Rect { il: il.max(b_lo), ih: ih.min(b_hi), jl: jl.max(b_hi), jh },
        ];
        for r in strips {
            if !r.is_empty() {
                rind.push((si, r));
            }
        }
    }
    (
        kernel_from_rects(k, ".int", &interior),
        kernel_from_rects(k, ".rind", &rind),
    )
}

/// Derive interior/rind programs from an expanded per-substep SDFG over
/// an `n × n` horizontal subdomain.
///
/// Returns `None` when the program shape does not match `exchange →
/// kernel chain → suffix` (looped control flow, unexpanded libraries, or
/// a second halo exchange) — callers fall back to the unsplit schedule.
pub fn split_for_overlap(expanded: &Sdfg, sub_n: usize) -> Option<SplitPrograms> {
    let schedule = expanded.state_schedule();
    if schedule.iter().any(|(_, mult)| *mult != 1) {
        return None;
    }

    // Phase A: classify nodes. Leading HaloExchange markers, then the
    // maximal kernel prefix, then the suffix.
    #[derive(PartialEq)]
    enum Phase {
        Markers,
        Prefix,
        Suffix,
    }
    let mut phase = Phase::Markers;
    let mut exchanged: Vec<DataId> = Vec::new();
    let mut prefix: Vec<&Kernel> = Vec::new();
    for &(si, _) in &schedule {
        for node in &expanded.states[si].nodes {
            match node {
                DataflowNode::Library(_) => return None,
                DataflowNode::HaloExchange { fields } => match phase {
                    Phase::Markers => exchanged.extend(fields.iter().copied()),
                    // A mid-program exchange cannot be overlapped by this
                    // single-split scheme.
                    _ => return None,
                },
                DataflowNode::Kernel(k) => match phase {
                    Phase::Markers | Phase::Prefix => {
                        phase = Phase::Prefix;
                        prefix.push(k);
                    }
                    Phase::Suffix => {}
                },
                _ => {
                    if phase == Phase::Markers {
                        return None; // suffix before any kernel ran
                    }
                    phase = Phase::Suffix;
                }
            }
        }
    }
    if prefix.is_empty() {
        return None;
    }

    // Phase B: margins from the read-radius recurrence.
    let radii: Vec<i64> = prefix.iter().map(|k| read_radius(k)).collect();
    let mut margins = Vec::with_capacity(radii.len());
    margins.push(radii[0]);
    for m in 1..radii.len() {
        let prev = margins[m - 1];
        margins.push(prev + radii[m - 1].max(radii[m]));
    }

    // Phase C: rebuild the two graphs with the same containers/params.
    let mut interior = expanded.clone();
    interior.name = format!("{}.interior", expanded.name);
    let mut rind = expanded.clone();
    rind.name = format!("{}.rind", expanded.name);
    let mut interior_points = 0u64;
    let mut kernel_idx = 0usize;
    let mut in_suffix = false;
    for &(si, _) in &schedule {
        let mut int_nodes = Vec::new();
        let mut rind_nodes = Vec::new();
        for node in &expanded.states[si].nodes {
            match node {
                DataflowNode::HaloExchange { .. } => {
                    // The driver owns the exchange in the split schedule.
                }
                DataflowNode::Kernel(k) if !in_suffix && kernel_idx < prefix.len() => {
                    let r = margins[kernel_idx];
                    let (b_lo, b_hi) = (r, sub_n as i64 - r);
                    let (ki, kr) = split_kernel(k, b_lo, b_hi);
                    if let Some(ki) = ki {
                        interior_points += ki
                            .stmts
                            .iter()
                            .map(|s| {
                                let (il, ih, jl, jh) = stmt_bounds(&ki, s);
                                Rect { il, ih, jl, jh }.points()
                            })
                            .sum::<u64>();
                        int_nodes.push(DataflowNode::Kernel(ki));
                    }
                    if let Some(kr) = kr {
                        rind_nodes.push(DataflowNode::Kernel(kr));
                    }
                    kernel_idx += 1;
                }
                other => {
                    in_suffix = true;
                    rind_nodes.push(other.clone());
                }
            }
        }
        interior.states[si].nodes = int_nodes;
        rind.states[si].nodes = rind_nodes;
    }
    interior.touch();
    rind.touch();

    Some(SplitPrograms {
        interior,
        rind,
        exchanged,
        margins,
        n_prefix: prefix.len(),
        interior_points,
    })
}
