//! Expanded map scopes ("kernels") — the unit of scheduling and costing.
//!
//! After library-node expansion (Section V-A), every stencil computation
//! becomes one or more [`Kernel`]s: a rectangular iteration domain, a
//! vertical ordering (parallel / forward / backward), a [`Schedule`]
//! carrying the hardware-mapping attributes the paper enumerates (iteration
//! order, tiling, map-vs-loop, target, region strategy), and a list of
//! per-point statements. Kernels know how to report their own memlets and
//! [`machine::KernelProfile`]s, which is what makes the data-centric
//! "query data movement for exact ranges at any point of the program"
//! workflow possible.

use crate::expr::{DataId, Expr, LocalId, Offset3};
use crate::storage::{Axis, Layout};
use machine::{KernelProfile, Target};

/// A rectangular iteration domain in logical (domain-relative) coordinates.
/// `end` is exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    pub start: [i64; 3],
    pub end: [i64; 3],
}

impl Domain {
    /// The domain `[0, n)` on each axis.
    pub fn from_shape(shape: [usize; 3]) -> Self {
        Domain {
            start: [0; 3],
            end: [shape[0] as i64, shape[1] as i64, shape[2] as i64],
        }
    }

    /// Extent along `axis`.
    pub fn len(&self, axis: Axis) -> i64 {
        (self.end[axis.idx()] - self.start[axis.idx()]).max(0)
    }

    /// Whether any axis is empty.
    pub fn is_empty(&self) -> bool {
        (0..3).any(|d| self.end[d] <= self.start[d])
    }

    /// Total points.
    pub fn volume(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            (0..3).map(|d| (self.end[d] - self.start[d]) as u64).product()
        }
    }

    /// Horizontal (I x J) points.
    pub fn horizontal_points(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            ((self.end[0] - self.start[0]) * (self.end[1] - self.start[1])) as u64
        }
    }

    /// Grow by `lo`/`hi` cells on each axis (negative shrinks).
    fn grown(&self, lo: [i64; 3], hi: [i64; 3]) -> Domain {
        Domain {
            start: [
                self.start[0] - lo[0],
                self.start[1] - lo[1],
                self.start[2] - lo[2],
            ],
            end: [self.end[0] + hi[0], self.end[1] + hi[1], self.end[2] + hi[2]],
        }
    }

    /// Intersection with another domain.
    pub fn intersect(&self, o: &Domain) -> Domain {
        Domain {
            start: [
                self.start[0].max(o.start[0]),
                self.start[1].max(o.start[1]),
                self.start[2].max(o.start[2]),
            ],
            end: [
                self.end[0].min(o.end[0]),
                self.end[1].min(o.end[1]),
                self.end[2].min(o.end[2]),
            ],
        }
    }
}

/// An index anchored to the start or end of a domain axis.
///
/// `Start(o)` resolves to `domain.start + o`; `End(o)` to `domain.end + o`.
/// This is how interval blocks (`interval(1, None)`) and horizontal regions
/// (`region[:, j_start]`) stay domain-size-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Anchor {
    Start(i32),
    End(i32),
}

impl Anchor {
    /// Resolve against `[start, end)`.
    pub fn resolve(&self, start: i64, end: i64) -> i64 {
        match self {
            Anchor::Start(o) => start + *o as i64,
            Anchor::End(o) => end + *o as i64,
        }
    }
}

/// A half-open anchored interval `[lo, hi)` along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisInterval {
    pub lo: Anchor,
    pub hi: Anchor,
}

impl AxisInterval {
    /// The whole axis.
    pub const FULL: AxisInterval = AxisInterval {
        lo: Anchor::Start(0),
        hi: Anchor::End(0),
    };

    /// Construct from anchors.
    pub fn new(lo: Anchor, hi: Anchor) -> Self {
        AxisInterval { lo, hi }
    }

    /// The single index `Start(o)` (e.g. GT4Py `region[:, j_start]`).
    pub fn at_start(o: i32) -> Self {
        AxisInterval {
            lo: Anchor::Start(o),
            hi: Anchor::Start(o + 1),
        }
    }

    /// The single index `End(o)` — `at_end(-1)` is the last point.
    pub fn at_end(o: i32) -> Self {
        AxisInterval {
            lo: Anchor::End(o),
            hi: Anchor::End(o + 1),
        }
    }

    /// Resolve to concrete `[lo, hi)` bounds within `[start, end)`,
    /// clamped to the domain.
    pub fn resolve(&self, start: i64, end: i64) -> (i64, i64) {
        let lo = self.lo.resolve(start, end).clamp(start, end);
        let hi = self.hi.resolve(start, end).clamp(start, end);
        (lo, hi.max(lo))
    }
}

/// A horizontal region restriction (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region2 {
    pub i: AxisInterval,
    pub j: AxisInterval,
}

impl Region2 {
    /// Whole horizontal plane (no restriction).
    pub const FULL: Region2 = Region2 {
        i: AxisInterval::FULL,
        j: AxisInterval::FULL,
    };

    /// Points in the region for a given domain.
    pub fn points(&self, domain: &Domain) -> u64 {
        let (il, ih) = self.i.resolve(domain.start[0], domain.end[0]);
        let (jl, jh) = self.j.resolve(domain.start[1], domain.end[1]);
        ((ih - il).max(0) * (jh - jl).max(0)) as u64
    }
}

/// Horizontal compute-extent expansion of a statement, from the DSL's
/// extent analysis: how far beyond the kernel domain this statement must
/// run so later statements can read its output at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extent2 {
    pub i_lo: i64,
    pub i_hi: i64,
    pub j_lo: i64,
    pub j_hi: i64,
}

impl Extent2 {
    /// No expansion.
    pub const ZERO: Extent2 = Extent2 {
        i_lo: 0,
        i_hi: 0,
        j_lo: 0,
        j_hi: 0,
    };

    /// Pointwise maximum of two extents.
    pub fn union(&self, o: &Extent2) -> Extent2 {
        Extent2 {
            i_lo: self.i_lo.max(o.i_lo),
            i_hi: self.i_hi.max(o.i_hi),
            j_lo: self.j_lo.max(o.j_lo),
            j_hi: self.j_hi.max(o.j_hi),
        }
    }

    /// Extent needed to satisfy a read at `offset` from a point computed
    /// with this extent.
    pub fn shifted_by(&self, o: Offset3) -> Extent2 {
        Extent2 {
            i_lo: self.i_lo - o.i.min(0) as i64,
            i_hi: self.i_hi + o.i.max(0) as i64,
            j_lo: self.j_lo - o.j.min(0) as i64,
            j_hi: self.j_hi + o.j.max(0) as i64,
        }
    }

    /// Apply to a domain.
    pub fn grow(&self, d: &Domain) -> Domain {
        d.grown([self.i_lo, self.j_lo, 0], [self.i_hi, self.j_hi, 0])
    }
}

/// Vertical iteration ordering of a kernel (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KOrder {
    /// No loop-carried dependency: K can be a parallel map dimension.
    Parallel,
    /// K ascends; statements may read outputs at `k-1` (forward solver).
    Forward,
    /// K descends; statements may read outputs at `k+1` (backward solver).
    Backward,
}

/// Where writes land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LValue {
    /// A data container (global memory).
    Field(DataId),
    /// A per-thread local (register) — produced by local-storage
    /// transformations and fused temporaries.
    Local(LocalId),
}

/// One per-point assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub lvalue: LValue,
    pub expr: Expr,
    /// Vertical application interval, anchored to the kernel's K range.
    pub k_range: AxisInterval,
    /// Optional horizontal region restriction (`None` = whole plane).
    pub region: Option<Region2>,
    /// Horizontal compute-extent expansion.
    pub extent: Extent2,
}

impl Stmt {
    /// A full-domain statement with no region or extent.
    pub fn full(lvalue: LValue, expr: Expr) -> Self {
        Stmt {
            lvalue,
            expr,
            k_range: AxisInterval::FULL,
            region: None,
            extent: Extent2::ZERO,
        }
    }

    /// The box of points this statement executes over in a kernel with
    /// the given compute domain: a region resolves against the domain
    /// itself, anything else runs on the extent-grown domain.
    pub fn bounds(&self, domain: &Domain) -> Domain {
        let grown = self.extent.grow(domain);
        let (il, ih, jl, jh) = match &self.region {
            Some(r) => {
                let (il, ih) = r.i.resolve(domain.start[0], domain.end[0]);
                let (jl, jh) = r.j.resolve(domain.start[1], domain.end[1]);
                (il, ih, jl, jh)
            }
            None => (grown.start[0], grown.end[0], grown.start[1], grown.end[1]),
        };
        let (kl, kh) = self.k_range.resolve(domain.start[2], domain.end[2]);
        Domain {
            start: [il, jl, kl],
            end: [ih, jh, kh],
        }
    }

    /// Number of points this statement executes over.
    pub fn points(&self, domain: &Domain) -> u64 {
        let grown = self.extent.grow(domain);
        let (kl, kh) = self.k_range.resolve(domain.start[2], domain.end[2]);
        let klen = (kh - kl).max(0) as u64;
        let hpts = match &self.region {
            Some(r) => r.points(&grown),
            None => grown.horizontal_points(),
        };
        hpts * klen
    }
}

/// How horizontal regions are realized (Section V-A, Table III "split
/// regions to multiple kernels").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionStrategy {
    /// One map over the full domain with per-statement index predicates.
    Predicated,
    /// Separate maps (kernels) iterating only the region sub-domains.
    SplitKernels,
}

/// Hardware-mapping attributes of a kernel (the schedule attribute list of
/// Section V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Execution target.
    pub target: Target,
    /// Loop nesting order, outer to inner. The innermost axis is the
    /// unit-stride / `threadIdx.x` axis on GPU.
    pub order: [Axis; 3],
    /// Whether K runs as a sequential loop (required for Forward/Backward;
    /// optional for Parallel, trading parallelism for locality).
    pub k_as_loop: bool,
    /// Tile sizes per axis (`[1,1,1]` = untiled); affects modeled cache
    /// behaviour on CPU targets.
    pub tile: [usize; 3],
    /// Region realization strategy.
    pub regions: RegionStrategy,
}

impl Schedule {
    /// The paper's tuned GPU schedule for horizontal stencils:
    /// `[Interval, Operation, K, J, I]` — K outermost of the spatial axes,
    /// I innermost (threadIdx.x).
    pub fn gpu_horizontal() -> Self {
        Schedule {
            target: Target::Gpu,
            order: [Axis::K, Axis::J, Axis::I],
            k_as_loop: false,
            tile: [1, 1, 1],
            regions: RegionStrategy::Predicated,
        }
    }

    /// The paper's tuned GPU schedule for vertical solvers:
    /// `[J, I, Interval, Operation, K]` — K innermost as a sequential
    /// loop, threads over the horizontal plane.
    pub fn gpu_vertical() -> Self {
        Schedule {
            target: Target::Gpu,
            order: [Axis::J, Axis::I, Axis::K],
            k_as_loop: true,
            tile: [1, 1, 1],
            regions: RegionStrategy::Predicated,
        }
    }

    /// The FORTRAN-style CPU schedule: K hoisted outermost (k-blocking),
    /// I innermost for vectorization.
    pub fn cpu_kblocked() -> Self {
        Schedule {
            target: Target::Cpu,
            order: [Axis::K, Axis::J, Axis::I],
            k_as_loop: true,
            tile: [1, 1, 1],
            regions: RegionStrategy::Predicated,
        }
    }

    /// A deliberately naive default (what you get before any optimization:
    /// the "GT4Py + DaCe (Default)" row of Table III): K-innermost thread
    /// axis, which conflicts with I-contiguous storage and uncoalesces
    /// every access.
    pub fn default_unoptimized() -> Self {
        Schedule {
            target: Target::Gpu,
            order: [Axis::I, Axis::J, Axis::K],
            k_as_loop: false,
            tile: [1, 1, 1],
            regions: RegionStrategy::Predicated,
        }
    }

    /// The innermost *parallel* (unit-stride / threadIdx.x) axis: when K
    /// runs as a sequential loop in the innermost position, the thread
    /// axis is the next one out (the paper's vertical-solver schedule
    /// `[J, I, Interval, Operation, K]` has I as threadIdx.x).
    fn inner_axis(&self) -> Axis {
        if self.k_as_loop && self.order[2] == Axis::K {
            self.order[1]
        } else {
            self.order[2]
        }
    }
}

/// An expanded map scope with statements, ready for execution and costing.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Label; stencil names seed transfer-tuning patterns ("stencils in
    /// FV3 are named", Section VI-B).
    pub name: String,
    /// Compute domain before per-statement extent expansion.
    pub domain: Domain,
    /// Vertical ordering.
    pub k_order: KOrder,
    /// Hardware mapping.
    pub schedule: Schedule,
    /// Statements in program order.
    pub stmts: Vec<Stmt>,
    /// Number of per-thread locals the statements reference.
    pub n_locals: usize,
    /// Fields register-cached across sequential K iterations by the
    /// local-storage transformation (Section VI-A2).
    pub cached_fields: Vec<DataId>,
}

/// One data-movement record: which container, read or written, how many
/// unique elements.
#[derive(Debug, Clone, PartialEq)]
pub struct Memlet {
    pub data: DataId,
    pub write: bool,
    /// Unique elements covered.
    pub elements: u64,
    /// Distinct relative offsets accessed (1 for writes).
    pub offsets: u32,
}

impl Kernel {
    /// Construct a kernel with no statements.
    pub fn new(name: impl Into<String>, domain: Domain, k_order: KOrder, schedule: Schedule) -> Self {
        let mut schedule = schedule;
        if k_order != KOrder::Parallel {
            // Loop-carried vertical dependencies force a sequential K loop.
            schedule.k_as_loop = true;
        }
        Kernel {
            name: name.into(),
            domain,
            k_order,
            schedule,
            stmts: Vec::new(),
            n_locals: 0,
            cached_fields: Vec::new(),
        }
    }

    /// All fields read by any statement (from global memory; reads of
    /// locals excluded), with offset hulls merged per field.
    pub fn reads(&self) -> Vec<(DataId, Vec<Offset3>)> {
        let mut map: std::collections::BTreeMap<DataId, Vec<Offset3>> = Default::default();
        for s in &self.stmts {
            for (d, o) in s.expr.loads() {
                let v = map.entry(d).or_default();
                if !v.contains(&o) {
                    v.push(o);
                }
            }
        }
        map.into_iter().collect()
    }

    /// All fields written by any statement.
    pub fn writes(&self) -> Vec<DataId> {
        let mut out: Vec<DataId> = Vec::new();
        for s in &self.stmts {
            if let LValue::Field(d) = s.lvalue {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Whether this kernel writes `data`.
    pub fn writes_data(&self, data: DataId) -> bool {
        self.stmts
            .iter()
            .any(|s| matches!(s.lvalue, LValue::Field(d) if d == data))
    }

    /// Whether this kernel reads `data`.
    pub fn reads_data(&self, data: DataId) -> bool {
        self.stmts.iter().any(|s| s.expr.reads(data))
    }

    /// Union of statement extents (the halo the kernel computes into).
    fn max_extent(&self) -> Extent2 {
        self.stmts
            .iter()
            .fold(Extent2::ZERO, |acc, s| acc.union(&s.extent))
    }

    /// Data-movement records for this kernel (the "exact ranges" query).
    fn memlets(&self) -> Vec<Memlet> {
        let mut out = Vec::new();
        for (d, offs) in self.reads() {
            // Unique elements: domain grown by the offset hull (every
            // element accessed once, as in the paper's bounds script).
            let (mut ilo, mut ihi, mut jlo, mut jhi, mut klo, mut khi) = (0i64, 0, 0, 0, 0, 0);
            for o in &offs {
                ilo = ilo.min(o.i as i64);
                ihi = ihi.max(o.i as i64);
                jlo = jlo.min(o.j as i64);
                jhi = jhi.max(o.j as i64);
                klo = klo.min(o.k as i64);
                khi = khi.max(o.k as i64);
            }
            let ext = self.max_extent();
            let grown = ext
                .grow(&self.domain)
                .grown([-ilo, -jlo, -klo], [ihi, jhi, khi]);
            out.push(Memlet {
                data: d,
                write: false,
                elements: grown.volume(),
                offsets: offs.len() as u32,
            });
        }
        for d in self.writes() {
            // Written region: union of statement application areas;
            // conservatively the extent-grown domain restricted to the
            // widest statement writing d.
            let mut elements = 0u64;
            for s in &self.stmts {
                if matches!(s.lvalue, LValue::Field(x) if x == d) {
                    elements = elements.max(s.points(&self.domain));
                }
            }
            out.push(Memlet {
                data: d,
                write: true,
                elements,
                offsets: 1,
            });
        }
        out
    }

    /// Number of parallel work items under the schedule.
    pub fn threads(&self) -> u64 {
        if self.domain.is_empty() {
            return 0;
        }
        let h = self.domain.horizontal_points();
        if self.schedule.k_as_loop || self.k_order != KOrder::Parallel {
            h
        } else {
            h * self.domain.len(Axis::K).max(1) as u64
        }
    }

    /// Per-slab working set in bytes for CPU cache modeling: one K plane of
    /// every accessed field.
    pub fn slab_working_set(&self) -> u64 {
        let h = self.domain.horizontal_points();
        let nfields = (self.reads().len() + self.writes().len()) as u64;
        h * nfields * 8
    }

    /// Build the [`KernelProfile`] consumed by the machine models.
    ///
    /// `layout_of` resolves each container's layout so coalescing can be
    /// judged against the schedule's innermost axis.
    pub fn profile(&self, layout_of: &impl Fn(DataId) -> Layout) -> KernelProfile {
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut coal_num = 0f64;
        let mut coal_den = 0f64;
        let inner = self.schedule.inner_axis();
        for m in self.memlets() {
            let cached = self.cached_fields.contains(&m.data);
            // Redundancy: without register caching, each distinct offset
            // re-touches the line; unique counting is the lower bound the
            // local-storage transformation approaches.
            let mult = if cached || m.write {
                1.0
            } else {
                1.0 + 0.15 * (m.offsets.saturating_sub(1)) as f64
            };
            let bytes = (m.elements as f64 * 8.0 * mult) as u64;
            if m.write {
                bytes_written += bytes;
            } else {
                bytes_read += bytes;
            }
            let layout = layout_of(m.data);
            let coalesced = layout.contiguous_axis() == inner;
            coal_num += if coalesced { bytes as f64 } else { 0.0 };
            coal_den += bytes as f64;
        }
        // Predicated regions fetch full-domain cache lines for every
        // operand of the edge statement even though only the edge cells
        // contribute; split kernels pay only the region volume but an
        // extra launch (the executor counts launches).
        if self.schedule.regions == RegionStrategy::Predicated {
            for s in &self.stmts {
                if s.region.is_some() {
                    let full = self.domain.volume();
                    let actual = s.points(&self.domain);
                    let operands = (s.expr.loads().len() + 1) as u64;
                    let waste = full.saturating_sub(actual) * 8 * operands;
                    bytes_read += waste;
                    coal_den += waste as f64;
                    coal_num += waste as f64; // wasted lines are sequential
                }
            }
        }

        let mut flops = 0u64;
        let mut transcendentals = 0u64;
        for s in &self.stmts {
            let pts = s.points(&self.domain);
            flops += pts * s.expr.flops();
            transcendentals += pts * s.expr.transcendentals();
        }

        KernelProfile {
            bytes_read,
            bytes_written,
            flops,
            threads: self.threads(),
            work_per_thread: if self.schedule.k_as_loop {
                self.domain.len(Axis::K).max(1) as u64
            } else {
                1
            },
            coalescing: if coal_den == 0.0 { 1.0 } else { coal_num / coal_den },
            transcendentals,
        }
    }
}

/// Helper: a default layout resolver for tests (I-contiguous, matching the
/// kernel's domain with a 3-cell halo).
#[cfg(test)]
fn test_layout(domain: [usize; 3]) -> impl Fn(DataId) -> Layout {
    use crate::storage::StorageOrder;
    move |_| Layout::new(domain, [3, 3, 1], StorageOrder::IContiguous, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ParamId;

    fn laplacian_kernel(n: usize) -> Kernel {
        // out = -4*in + in[-1] + in[+1] + in[j-1] + in[j+1]
        let mut k = Kernel::new(
            "laplacian",
            Domain::from_shape([n, n, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let inp = DataId(0);
        let e = Expr::c(-4.0) * Expr::load(inp, 0, 0, 0)
            + Expr::load(inp, -1, 0, 0)
            + Expr::load(inp, 1, 0, 0)
            + Expr::load(inp, 0, -1, 0)
            + Expr::load(inp, 0, 1, 0);
        k.stmts.push(Stmt::full(LValue::Field(DataId(1)), e));
        k
    }

    #[test]
    fn domain_arithmetic() {
        let d = Domain::from_shape([8, 6, 4]);
        assert_eq!(d.volume(), 192);
        assert_eq!(d.horizontal_points(), 48);
        assert_eq!(d.len(Axis::K), 4);
        let g = d.grown([1, 1, 0], [2, 0, 0]);
        assert_eq!(g.start, [-1, -1, 0]);
        assert_eq!(g.end, [10, 6, 4]);
        assert_eq!(g.intersect(&d), d);
        assert!(!d.is_empty());
        let e = Domain {
            start: [0, 0, 0],
            end: [0, 5, 5],
        };
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0);
    }

    #[test]
    fn anchors_resolve_and_clamp() {
        let iv = AxisInterval::new(Anchor::Start(1), Anchor::End(-1));
        assert_eq!(iv.resolve(0, 10), (1, 9));
        assert_eq!(AxisInterval::FULL.resolve(2, 7), (2, 7));
        assert_eq!(AxisInterval::at_start(0).resolve(0, 10), (0, 1));
        assert_eq!(AxisInterval::at_end(-1).resolve(0, 10), (9, 10));
        // Degenerate: hi below lo clamps to empty.
        let bad = AxisInterval::new(Anchor::Start(5), Anchor::Start(2));
        let (lo, hi) = bad.resolve(0, 10);
        assert!(hi >= lo);
        assert_eq!(hi - lo, 0);
    }

    #[test]
    fn region_points() {
        let d = Domain::from_shape([10, 8, 4]);
        let edge = Region2 {
            i: AxisInterval::FULL,
            j: AxisInterval::at_start(0),
        };
        assert_eq!(edge.points(&d), 10);
        assert_eq!(Region2::FULL.points(&d), 80);
    }

    #[test]
    fn extent_union_and_shift() {
        let a = Extent2 {
            i_lo: 1,
            i_hi: 0,
            j_lo: 0,
            j_hi: 2,
        };
        let b = Extent2 {
            i_lo: 0,
            i_hi: 3,
            j_lo: 1,
            j_hi: 0,
        };
        let u = a.union(&b);
        assert_eq!(
            u,
            Extent2 {
                i_lo: 1,
                i_hi: 3,
                j_lo: 1,
                j_hi: 2
            }
        );
        let s = Extent2::ZERO.shifted_by(Offset3::new(-2, 1, 0));
        assert_eq!(s.i_lo, 2);
        assert_eq!(s.j_hi, 1);
    }

    #[test]
    fn stmt_points_respect_interval_and_region() {
        let d = Domain::from_shape([10, 10, 8]);
        let mut s = Stmt::full(LValue::Field(DataId(0)), Expr::c(1.0));
        assert_eq!(s.points(&d), 800);
        s.k_range = AxisInterval::new(Anchor::Start(1), Anchor::End(0));
        assert_eq!(s.points(&d), 700);
        s.region = Some(Region2 {
            i: AxisInterval::at_start(0),
            j: AxisInterval::FULL,
        });
        assert_eq!(s.points(&d), 70);
    }

    #[test]
    fn kernel_reads_writes_and_memlets() {
        let k = laplacian_kernel(16);
        let reads = k.reads();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].1.len(), 5);
        assert_eq!(k.writes(), vec![DataId(1)]);
        let memlets = k.memlets();
        assert_eq!(memlets.len(), 2);
        let read = memlets.iter().find(|m| !m.write).unwrap();
        // hull grows 1 cell each horizontal direction: 18*18*4
        assert_eq!(read.elements, 18 * 18 * 4);
        let write = memlets.iter().find(|m| m.write).unwrap();
        assert_eq!(write.elements, 16 * 16 * 4);
    }

    #[test]
    fn vertical_kernel_forces_k_loop_and_2d_threads() {
        let k = Kernel::new(
            "tridiag",
            Domain::from_shape([32, 32, 80]),
            KOrder::Forward,
            Schedule::gpu_horizontal(), // k_as_loop=false, must be forced
        );
        assert!(k.schedule.k_as_loop);
        assert_eq!(k.threads(), 32 * 32);
    }

    #[test]
    fn parallel_kernel_exposes_3d_threads() {
        let k = laplacian_kernel(16);
        assert_eq!(k.threads(), 16 * 16 * 4);
    }

    #[test]
    fn profile_counts_bytes_and_flops() {
        let k = laplacian_kernel(16);
        let p = k.profile(&test_layout([16, 16, 4]));
        // Hand-counted: the read hull grows the domain by 1 in i and j,
        // 18*18*4 = 1296 unique elements, re-touched at 5 distinct offsets:
        // 1296 * 8 * (1 + 0.15*4) = 16588.8.
        assert_eq!(p.bytes_read, 16588);
        assert_eq!(p.bytes_written, 16 * 16 * 4 * 8);
        // 5 loads -> 4 adds + 1 mul = 5 flops per point
        assert_eq!(p.flops, 16 * 16 * 4 * 5);
        assert_eq!(p.transcendentals, 0);
        assert!(p.coalescing > 0.99, "I-contiguous + I-inner = coalesced");

        // out = (a[k-1] + a[k+1]) / 2 on 8x8x8: read hull 8*8*10 = 640
        // elements at 2 offsets, 5120 * 1.15 bytes; 512 points written.
        let mut v = Kernel::new(
            "vavg",
            Domain::from_shape([8, 8, 8]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let e = (Expr::load(DataId(0), 0, 0, -1) + Expr::load(DataId(0), 0, 0, 1)) * Expr::c(0.5);
        v.stmts.push(Stmt::full(LValue::Field(DataId(1)), e));
        assert_eq!(v.profile(&test_layout([8, 8, 8])).bytes_total(), 5888 + 4096);
    }

    #[test]
    fn k_inner_schedule_uncoalesces_i_contiguous_fields() {
        let mut k = laplacian_kernel(16);
        k.schedule = Schedule::default_unoptimized(); // K innermost
        let p = k.profile(&test_layout([16, 16, 4]));
        assert!(p.coalescing < 0.01);
    }

    #[test]
    fn register_caching_reduces_read_traffic() {
        let mut k = laplacian_kernel(16);
        let uncached = k.profile(&test_layout([16, 16, 4])).bytes_read;
        k.cached_fields.push(DataId(0));
        let cached = k.profile(&test_layout([16, 16, 4])).bytes_read;
        assert!(cached < uncached);
    }

    #[test]
    fn predicated_region_wastes_traffic_vs_split() {
        let d = Domain::from_shape([64, 64, 8]);
        let mut k = Kernel::new("edge", d, KOrder::Parallel, Schedule::gpu_horizontal());
        k.stmts.push(Stmt {
            lvalue: LValue::Field(DataId(1)),
            expr: Expr::load(DataId(0), 0, 0, 0) * Expr::Param(ParamId(0)),
            k_range: AxisInterval::FULL,
            region: Some(Region2 {
                i: AxisInterval::FULL,
                j: AxisInterval::at_start(0),
            }),
            extent: Extent2::ZERO,
        });
        let pred = k.profile(&test_layout([64, 64, 8]));
        let mut split = k.clone();
        split.schedule.regions = RegionStrategy::SplitKernels;
        let sp = split.profile(&test_layout([64, 64, 8]));
        assert!(pred.bytes_read > sp.bytes_read);
    }

    #[test]
    fn slab_working_set_counts_fields() {
        let k = laplacian_kernel(128);
        // 2 fields x 128^2 x 8 bytes
        assert_eq!(k.slab_working_set(), 2 * 128 * 128 * 8);
    }
}
