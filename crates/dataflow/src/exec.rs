//! The runtime executor: runs an expanded SDFG numerically on the host.
//!
//! Execution is column-oriented: every kernel iterates its `(i, j)` columns
//! (in parallel chunks through [`machine::Pool`]) and marches K upward,
//! downward, or in arbitrary order per its [`KOrder`]. Statement bodies run
//! through the bytecode VM. The executor enforces the same parallel-model
//! restriction GT4Py does: within one kernel, no statement may read — at a
//! nonzero horizontal offset — a field written by the same kernel
//! (cross-thread dependencies must be broken into separate kernels or
//! fused by recomputation; Section IV-D "some synchronization points were
//! pre-determined and had to be worked around by splitting stencils").

use crate::bytecode::{self, LaneCtx, Program, VmCtx, LANE_WIDTH};
use crate::expr::{DataId, Offset3};
use crate::graph::{ControlNode, DataflowNode, Sdfg};
use crate::kernel::{Domain, KOrder, Kernel, LValue};
use crate::storage::{Array3, Axis, Layout};
use machine::Pool;
use obs::Tracer;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Runtime storage: one array per SDFG container.
#[derive(Debug, Clone)]
pub struct DataStore {
    arrays: Vec<Array3>,
}

impl DataStore {
    /// Allocate zeroed arrays for every container of `sdfg`.
    pub fn for_sdfg(sdfg: &Sdfg) -> Self {
        DataStore {
            arrays: sdfg
                .containers
                .iter()
                .map(|c| Array3::zeros(c.layout.clone()))
                .collect(),
        }
    }

    /// Immutable access to a container's array.
    pub fn get(&self, d: DataId) -> &Array3 {
        &self.arrays[d.0]
    }

    /// Mutable access to a container's array.
    pub fn get_mut(&mut self, d: DataId) -> &mut Array3 {
        &mut self.arrays[d.0]
    }

    /// Number of containers.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

/// Hooks for nodes the executor cannot run itself.
pub trait ExecHooks {
    /// Perform a halo exchange on `fields` (distributed driver).
    fn halo_exchange(&mut self, fields: &[DataId], store: &mut DataStore) {
        let _ = (fields, store);
    }

    /// Invoke a named host callback (the Python-interop analog).
    fn callback(&mut self, name: &str, store: &mut DataStore) {
        let _ = (name, store);
    }
}

/// No-op hooks for single-rank programs.
pub struct NoHooks;
impl ExecHooks for NoHooks {}

/// Aggregated per-kernel execution statistics.
#[derive(Debug, Clone, Default)]
pub struct KernelStat {
    pub name: String,
    pub invocations: u64,
    pub points: u64,
    pub wall_seconds: f64,
}

/// Report of one SDFG execution.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Kernel launches performed.
    pub launches: u64,
    /// Stats grouped by kernel name ("sort by summarized runtimes grouped
    /// by kernel type", Section VI-C).
    pub kernels: Vec<KernelStat>,
    /// Total wall-clock seconds inside kernel loops.
    pub wall_seconds: f64,
    /// Halo exchanges performed.
    pub halo_exchanges: u64,
    /// Host callbacks performed.
    pub callbacks: u64,
    /// Kernel launches served from the executor's compiled-kernel cache.
    pub cache_hits: u64,
    /// Kernel launches that had to (re)compile.
    pub cache_misses: u64,
    /// Points executed through the vectorized lane VM.
    pub lanes_vector: u64,
    /// Points executed through the scalar VM (boundary rind, narrow
    /// hulls, or `VmMode::Scalar`).
    pub lanes_scalar: u64,
}

impl ExecReport {
    fn record(&mut self, name: &str, points: u64, secs: f64) {
        self.launches += 1;
        self.wall_seconds += secs;
        if let Some(k) = self.kernels.iter_mut().find(|k| k.name == name) {
            k.invocations += 1;
            k.points += points;
            k.wall_seconds += secs;
        } else {
            self.kernels.push(KernelStat {
                name: name.to_string(),
                invocations: 1,
                points,
                wall_seconds: secs,
            });
        }
    }
}

/// Validate the parallel-model restriction for `kernel`.
///
/// Returns an error description when a statement reads a field written by
/// this kernel at a nonzero horizontal offset (a cross-thread dependency),
/// or when a `Parallel` kernel has a vertical self-dependency.
pub fn validate_kernel(kernel: &Kernel) -> Result<(), String> {
    let written = kernel.writes();
    for (si, s) in kernel.stmts.iter().enumerate() {
        for (d, o) in s.expr.loads() {
            if written.contains(&d) {
                if o.i != 0 || o.j != 0 {
                    return Err(format!(
                        "kernel '{}' stmt {si}: reads {d:?} at horizontal offset {o} but \
                         the kernel writes it — split the stencil or fuse on-the-fly",
                        kernel.name
                    ));
                }
                match kernel.k_order {
                    KOrder::Parallel => {
                        if o.k != 0 {
                            return Err(format!(
                                "kernel '{}' stmt {si}: vertical self-dependency {o} in a \
                                 PARALLEL computation",
                                kernel.name
                            ));
                        }
                    }
                    KOrder::Forward => {
                        if o.k > 0 {
                            return Err(format!(
                                "kernel '{}' stmt {si}: forward solver reads {d:?} at k+{}",
                                kernel.name, o.k
                            ));
                        }
                    }
                    KOrder::Backward => {
                        if o.k < 0 {
                            return Err(format!(
                                "kernel '{}' stmt {si}: backward solver reads {d:?} at k{}",
                                kernel.name, o.k
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Validate every kernel in an SDFG.
pub fn validate_sdfg(sdfg: &Sdfg) -> Result<(), String> {
    for state in &sdfg.states {
        for node in &state.nodes {
            if let DataflowNode::Kernel(k) = node {
                validate_kernel(k)?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Kernel execution

/// Which VM runs a kernel's statement bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmMode {
    /// Point-at-a-time scalar VM everywhere (the reference path).
    Scalar,
    /// Lane VM over contiguous i-runs in the interior, scalar VM on the
    /// boundary rind. Bit-identical to [`VmMode::Scalar`].
    #[default]
    Lanes,
}

/// Counters from one kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRunStats {
    /// Statement-points executed.
    pub points: u64,
    /// Points that went through the vectorized lane VM.
    pub lanes_vector: u64,
    /// Points that went through the scalar VM.
    pub lanes_scalar: u64,
}

/// Raw view of one container used inside the kernel loop. Columns write
/// disjoint points (guaranteed by [`validate_kernel`]), so sharing the
/// pointer across worker threads is sound.
#[derive(Clone, Copy)]
struct FieldSlot {
    ptr: *mut f64,
    base: usize,
    strides: [usize; 3],
}

unsafe impl Send for FieldSlot {}
unsafe impl Sync for FieldSlot {}

impl FieldSlot {
    #[inline]
    fn offset(&self, i: i64, j: i64, k: i64) -> usize {
        (self.base as i64
            + i * self.strides[0] as i64
            + j * self.strides[1] as i64
            + k * self.strides[2] as i64) as usize
    }

    #[inline]
    unsafe fn read(&self, i: i64, j: i64, k: i64) -> f64 {
        *self.ptr.add(self.offset(i, j, k))
    }

    #[inline]
    unsafe fn write(&self, i: i64, j: i64, k: i64, v: f64) {
        *self.ptr.add(self.offset(i, j, k)) = v;
    }
}

/// Concrete (resolved) bounds of one statement.
#[derive(Debug, Clone, Copy)]
struct StmtBounds {
    il: i64,
    ih: i64,
    jl: i64,
    jh: i64,
    kl: i64,
    kh: i64,
}

struct CompiledStmt {
    program: Program,
    bounds: StmtBounds,
    lvalue: CompiledLValue,
}

enum CompiledLValue {
    Field(u16),
    Local(u16),
}

/// Cheap identity check for a cached [`CompiledKernel`]: catches ad-hoc
/// kernel edits that did not go through [`Sdfg::touch`]-instrumented
/// passes (a changed expression with identical shape still requires a
/// generation bump — the documented invalidation contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KernelFingerprint {
    domain: Domain,
    n_stmts: usize,
    n_locals: usize,
    k_order: KOrder,
}

impl KernelFingerprint {
    fn of(kernel: &Kernel) -> Self {
        KernelFingerprint {
            domain: kernel.domain,
            n_stmts: kernel.stmts.len(),
            n_locals: kernel.n_locals,
            k_order: kernel.k_order,
        }
    }
}

/// Everything about a kernel that is invariant across launches: the slot
/// table, compiled statement programs, resolved bounds, and the iteration
/// hull. Building one is the per-launch work the executor used to redo
/// every invocation; the executor caches them per `(state, node)`.
pub struct CompiledKernel {
    ids: Vec<DataId>,
    stmts: Vec<CompiledStmt>,
    hull: StmtBounds,
    max_regs: usize,
    n_locals: usize,
    points: u64,
    k_desc: bool,
    k_parallel: bool,
    empty: bool,
    fingerprint: KernelFingerprint,
}

/// Compile a kernel: build the slot table (one hash-map pass — the old
/// path was O(fields²) in `contains`/`position` scans), compile every
/// statement, and resolve per-statement bounds plus the union hull.
pub fn compile_kernel(kernel: &Kernel) -> CompiledKernel {
    let fingerprint = KernelFingerprint::of(kernel);
    let empty_ck = |fingerprint| CompiledKernel {
        ids: Vec::new(),
        stmts: Vec::new(),
        hull: StmtBounds {
            il: 0,
            ih: 0,
            jl: 0,
            jh: 0,
            kl: 0,
            kh: 0,
        },
        max_regs: 0,
        n_locals: 0,
        points: 0,
        k_desc: false,
        k_parallel: false,
        empty: true,
        fingerprint,
    };
    if kernel.domain.is_empty() || kernel.stmts.is_empty() {
        return empty_ck(fingerprint);
    }

    // Field slot table: stable order over reads + writes, interned once.
    let mut ids: Vec<DataId> = Vec::new();
    let mut slot_map: HashMap<DataId, u16> = HashMap::new();
    for d in kernel.reads().into_iter().map(|(d, _)| d).chain(kernel.writes()) {
        slot_map.entry(d).or_insert_with(|| {
            ids.push(d);
            (ids.len() - 1) as u16
        });
    }
    let slot_of = |d: DataId| -> u16 { *slot_map.get(&d).expect("unknown field in kernel") };

    // Compile statements and resolve bounds.
    let dom = kernel.domain;
    let mut stmts = Vec::with_capacity(kernel.stmts.len());
    let mut hull = StmtBounds {
        il: i64::MAX,
        ih: i64::MIN,
        jl: i64::MAX,
        jh: i64::MIN,
        kl: i64::MAX,
        kh: i64::MIN,
    };
    let mut points = 0u64;
    for s in &kernel.stmts {
        let grown = s.extent.grow(&dom);
        let (il, ih, jl, jh) = match &s.region {
            Some(r) => {
                let (il, ih) = r.i.resolve(dom.start[0], dom.end[0]);
                let (jl, jh) = r.j.resolve(dom.start[1], dom.end[1]);
                (il, ih, jl, jh)
            }
            None => (grown.start[0], grown.end[0], grown.start[1], grown.end[1]),
        };
        let (kl, kh) = s.k_range.resolve(dom.start[2], dom.end[2]);
        let b = StmtBounds {
            il,
            ih,
            jl,
            jh,
            kl,
            kh,
        };
        hull.il = hull.il.min(b.il);
        hull.ih = hull.ih.max(b.ih);
        hull.jl = hull.jl.min(b.jl);
        hull.jh = hull.jh.max(b.jh);
        hull.kl = hull.kl.min(b.kl);
        hull.kh = hull.kh.max(b.kh);
        points += ((ih - il).max(0) * (jh - jl).max(0) * (kh - kl).max(0)) as u64;
        let program = bytecode::compile(&s.expr, &slot_of);
        let lvalue = match s.lvalue {
            LValue::Field(d) => CompiledLValue::Field(slot_of(d)),
            LValue::Local(l) => CompiledLValue::Local(l.0 as u16),
        };
        stmts.push(CompiledStmt {
            program,
            bounds: b,
            lvalue,
        });
    }
    if hull.ih <= hull.il || hull.jh <= hull.jl || hull.kh <= hull.kl {
        return empty_ck(fingerprint);
    }

    let max_regs = stmts.iter().map(|c| c.program.n_regs).max().unwrap_or(0) as usize;
    // Locals referenced anywhere (declared, written, or read) size the
    // per-column local file.
    let n_locals = kernel
        .n_locals
        .max(
            stmts
                .iter()
                .filter_map(|c| match c.lvalue {
                    CompiledLValue::Local(l) => Some(l as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0),
        )
        .max(
            stmts
                .iter()
                .flat_map(|c| c.program.instrs.iter())
                .filter_map(|i| match i {
                    bytecode::Instr::LoadLocal { l, .. } => Some(*l as usize + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0),
        );

    CompiledKernel {
        ids,
        stmts,
        hull,
        max_regs,
        n_locals,
        points,
        k_desc: kernel.k_order == KOrder::Backward,
        k_parallel: kernel.k_order == KOrder::Parallel,
        empty: false,
        fingerprint,
    }
}

struct PointCtx<'a> {
    slots: &'a [FieldSlot],
    locals: &'a [f64],
    params: &'a [f64],
    i: i64,
    j: i64,
    k: i64,
}

impl VmCtx for PointCtx<'_> {
    #[inline]
    fn load(&self, slot: u16, off: Offset3) -> f64 {
        unsafe {
            self.slots[slot as usize].read(
                self.i + off.i as i64,
                self.j + off.j as i64,
                self.k + off.k as i64,
            )
        }
    }

    #[inline]
    fn local(&self, l: u16) -> f64 {
        self.locals[l as usize]
    }

    #[inline]
    fn param(&self, p: u16) -> f64 {
        self.params[p as usize]
    }

    #[inline]
    fn index(&self, axis: Axis) -> i64 {
        match axis {
            Axis::I => self.i,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }
}

/// Scalar VM context for the boundary rind of the vectorized path: like
/// [`PointCtx`] but locals live in a per-row file laid out
/// `[local][i-column]`, so each column's running locals persist across
/// the row's K march exactly as the per-column scalar path's do.
struct RowPointCtx<'a> {
    slots: &'a [FieldSlot],
    row_locals: &'a [f64],
    ni: usize,
    col: usize,
    params: &'a [f64],
    i: i64,
    j: i64,
    k: i64,
}

impl VmCtx for RowPointCtx<'_> {
    #[inline]
    fn load(&self, slot: u16, off: Offset3) -> f64 {
        unsafe {
            self.slots[slot as usize].read(
                self.i + off.i as i64,
                self.j + off.j as i64,
                self.k + off.k as i64,
            )
        }
    }

    #[inline]
    fn local(&self, l: u16) -> f64 {
        self.row_locals[l as usize * self.ni + self.col]
    }

    #[inline]
    fn param(&self, p: u16) -> f64 {
        self.params[p as usize]
    }

    #[inline]
    fn index(&self, axis: Axis) -> i64 {
        match axis {
            Axis::I => self.i,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }
}

/// Lane VM context: a run of `w` consecutive i-points at `(i0.., j, k)`.
struct LaneRowCtx<'a> {
    slots: &'a [FieldSlot],
    row_locals: &'a [f64],
    ni: usize,
    lane0: usize,
    params: &'a [f64],
    i0: i64,
    j: i64,
    k: i64,
}

impl LaneCtx for LaneRowCtx<'_> {
    #[inline]
    fn load_lanes(&self, slot: u16, off: Offset3, out: &mut [f64]) {
        let s = &self.slots[slot as usize];
        let base = s.offset(
            self.i0 + off.i as i64,
            self.j + off.j as i64,
            self.k + off.k as i64,
        );
        let istride = s.strides[0];
        unsafe {
            if istride == 1 {
                // Unit i-stride: the lane load is one contiguous copy.
                std::ptr::copy_nonoverlapping(s.ptr.add(base), out.as_mut_ptr(), out.len());
            } else {
                for (l, d) in out.iter_mut().enumerate() {
                    *d = *s.ptr.add(base + l * istride);
                }
            }
        }
    }

    #[inline]
    fn local_lanes(&self, l: u16, out: &mut [f64]) {
        let off = l as usize * self.ni + self.lane0;
        out.copy_from_slice(&self.row_locals[off..off + out.len()]);
    }

    #[inline]
    fn param(&self, p: u16) -> f64 {
        self.params[p as usize]
    }

    #[inline]
    fn index_lane0(&self, axis: Axis) -> i64 {
        match axis {
            Axis::I => self.i0,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }
}

/// Minimum lane count worth dispatching to the lane VM; narrower runs
/// (region rinds, 1-wide hulls) use the scalar VM.
const VECTOR_MIN: usize = 4;

fn field_slots(ids: &[DataId], store: &mut DataStore) -> Vec<FieldSlot> {
    ids.iter()
        .map(|d| {
            let a = store.get_mut(*d);
            let layout: Layout = a.layout().clone();
            FieldSlot {
                ptr: a.raw_mut().as_mut_ptr(),
                base: layout.base,
                strides: layout.strides,
            }
        })
        .collect()
}

/// Run a pre-compiled kernel. Array pointers are re-resolved from `store`
/// on every launch (arrays may have been reallocated between launches);
/// everything else comes from the cache-friendly [`CompiledKernel`].
pub fn run_compiled(
    ck: &CompiledKernel,
    store: &mut DataStore,
    params: &[f64],
    pool: &Pool,
    mode: VmMode,
) -> KernelRunStats {
    if ck.empty {
        return KernelRunStats::default();
    }
    let slots = field_slots(&ck.ids, store);
    match mode {
        VmMode::Scalar => run_scalar(ck, &slots, params, pool),
        VmMode::Lanes => run_lanes_rows(ck, &slots, params, pool),
    }
}

/// The reference executor: per-column scalar VM (the pre-vectorization
/// inner loop, kept verbatim as the bit-identity oracle and rind body).
fn run_scalar(ck: &CompiledKernel, slots: &[FieldSlot], params: &[f64], pool: &Pool) -> KernelRunStats {
    let hull = ck.hull;
    let ni = (hull.ih - hull.il) as usize;
    let nj = (hull.jh - hull.jl) as usize;
    let columns = ni * nj;
    let k_desc = ck.k_desc;
    let n_locals = ck.n_locals;
    let max_regs = ck.max_regs;
    let compiled = &ck.stmts;

    pool.for_each_chunk(columns, |range| {
        let mut regs = vec![0.0f64; max_regs];
        let mut locals = vec![0.0f64; n_locals];
        for col in range {
            let i = hull.il + (col % ni) as i64;
            let j = hull.jl + (col / ni) as i64;
            if n_locals > 0 {
                locals.iter_mut().for_each(|l| *l = 0.0);
            }
            let mut k = if k_desc { hull.kh - 1 } else { hull.kl };
            while k >= hull.kl && k < hull.kh {
                for cs in compiled {
                    let b = &cs.bounds;
                    if i >= b.il && i < b.ih && j >= b.jl && j < b.jh && k >= b.kl && k < b.kh {
                        let v = {
                            let ctx = PointCtx {
                                slots,
                                locals: &locals,
                                params,
                                i,
                                j,
                                k,
                            };
                            bytecode::run(&cs.program, &ctx, &mut regs)
                        };
                        match cs.lvalue {
                            CompiledLValue::Field(slot) => unsafe {
                                slots[slot as usize].write(i, j, k, v);
                            },
                            CompiledLValue::Local(l) => locals[l as usize] = v,
                        }
                    }
                }
                k += if k_desc { -1 } else { 1 };
            }
        }
    });

    KernelRunStats {
        points: ck.points,
        lanes_vector: 0,
        lanes_scalar: ck.points,
    }
}

/// The vectorized executor: rows of consecutive i-points per `(j, k)`.
///
/// Work decomposition: one parallel work item per j-row (per `(j, k)`
/// plane-row for `Parallel` kernels with no locals, which exposes more
/// parallelism). Within a row, K marches in the kernel's order and
/// statements run in program order, so each column sees exactly the
/// `(k, statement)` sequence the scalar path gives it — columns are
/// independent by [`validate_kernel`], making the row-major regrouping
/// bit-identical.
///
/// Each statement's i-range is cut into runs of at most [`LANE_WIDTH`]:
/// runs of at least [`VECTOR_MIN`] lanes execute on the lane VM (the
/// *interior*), narrower runs — region rinds, 1-wide hulls, remainders
/// under `VECTOR_MIN` — fall back to the scalar VM (the *rind*). Both
/// VMs apply the same scalar arithmetic kernels in the same order, so
/// the split never changes a single bit of output.
fn run_lanes_rows(
    ck: &CompiledKernel,
    slots: &[FieldSlot],
    params: &[f64],
    pool: &Pool,
) -> KernelRunStats {
    let hull = ck.hull;
    let ni = (hull.ih - hull.il) as usize;
    let nj = (hull.jh - hull.jl) as usize;
    let nk = (hull.kh - hull.kl) as usize;
    let n_locals = ck.n_locals;
    let k_desc = ck.k_desc;
    // Parallel K with no locals: every (j, k) row is independent.
    let jk_rows = ck.k_parallel && n_locals == 0;
    let rows = if jk_rows { nj * nk } else { nj };
    let max_regs = ck.max_regs;
    let compiled = &ck.stmts;
    let vec_pts = AtomicU64::new(0);
    let scalar_pts = AtomicU64::new(0);

    pool.for_each_chunk(rows, |range| {
        let mut regs = vec![0.0f64; max_regs * LANE_WIDTH];
        let mut row_locals = vec![0.0f64; n_locals * ni];
        let mut lv = 0u64;
        let mut ls = 0u64;
        for row in range {
            let j = hull.jl + (if jk_rows { row % nj } else { row }) as i64;
            if n_locals > 0 {
                row_locals.fill(0.0);
            }
            let (mut k, k_last) = if jk_rows {
                let k = hull.kl + (row / nj) as i64;
                (k, k)
            } else if k_desc {
                (hull.kh - 1, hull.kl)
            } else {
                (hull.kl, hull.kh - 1)
            };
            loop {
                for cs in compiled {
                    let b = &cs.bounds;
                    if j < b.jl || j >= b.jh || k < b.kl || k >= b.kh || b.ih <= b.il {
                        continue;
                    }
                    let mut i0 = b.il;
                    while i0 < b.ih {
                        let w = ((b.ih - i0) as usize).min(LANE_WIDTH);
                        let lane0 = (i0 - hull.il) as usize;
                        if w >= VECTOR_MIN {
                            {
                                let ctx = LaneRowCtx {
                                    slots,
                                    row_locals: &row_locals,
                                    ni,
                                    lane0,
                                    params,
                                    i0,
                                    j,
                                    k,
                                };
                                bytecode::run_lanes(&cs.program, &ctx, &mut regs, w);
                            }
                            let res = cs.program.result as usize * LANE_WIDTH;
                            match cs.lvalue {
                                CompiledLValue::Field(slot) => unsafe {
                                    let s = &slots[slot as usize];
                                    let base = s.offset(i0, j, k);
                                    let istride = s.strides[0];
                                    if istride == 1 {
                                        std::ptr::copy_nonoverlapping(
                                            regs.as_ptr().add(res),
                                            s.ptr.add(base),
                                            w,
                                        );
                                    } else {
                                        for l in 0..w {
                                            *s.ptr.add(base + l * istride) = regs[res + l];
                                        }
                                    }
                                },
                                CompiledLValue::Local(lid) => {
                                    let off = lid as usize * ni + lane0;
                                    row_locals[off..off + w]
                                        .copy_from_slice(&regs[res..res + w]);
                                }
                            }
                            lv += w as u64;
                        } else {
                            for l in 0..w {
                                let i = i0 + l as i64;
                                let v = {
                                    let ctx = RowPointCtx {
                                        slots,
                                        row_locals: &row_locals,
                                        ni,
                                        col: lane0 + l,
                                        params,
                                        i,
                                        j,
                                        k,
                                    };
                                    bytecode::run(&cs.program, &ctx, &mut regs)
                                };
                                match cs.lvalue {
                                    CompiledLValue::Field(slot) => unsafe {
                                        slots[slot as usize].write(i, j, k, v);
                                    },
                                    CompiledLValue::Local(lid) => {
                                        row_locals[lid as usize * ni + lane0 + l] = v;
                                    }
                                }
                            }
                            ls += w as u64;
                        }
                        i0 += w as i64;
                    }
                }
                if k == k_last {
                    break;
                }
                k += if k_desc { -1 } else { 1 };
            }
        }
        vec_pts.fetch_add(lv, Ordering::Relaxed);
        scalar_pts.fetch_add(ls, Ordering::Relaxed);
    });

    KernelRunStats {
        points: ck.points,
        lanes_vector: vec_pts.load(Ordering::Relaxed),
        lanes_scalar: scalar_pts.load(Ordering::Relaxed),
    }
}

/// Compile and run one kernel with an explicit [`VmMode`] (used by the
/// differential tests and the ablation bench).
pub fn run_kernel_with(
    kernel: &Kernel,
    store: &mut DataStore,
    params: &[f64],
    pool: &Pool,
    mode: VmMode,
) -> KernelRunStats {
    debug_assert!(validate_kernel(kernel).is_ok(), "{:?}", validate_kernel(kernel));
    run_compiled(&compile_kernel(kernel), store, params, pool, mode)
}

/// Compiled kernels held by an [`Executor`], keyed by `(state index,
/// node index)` and namespaced by the source graph's `(uid, generation)`.
///
/// Invalidation contract: any mutation of the SDFG must bump its
/// generation via [`Sdfg::touch`] (all transform passes do); running a
/// different or newer graph through the executor clears the cache. As a
/// second line of defense, each hit re-checks a cheap per-kernel
/// fingerprint (domain, statement count, locals, K order) and recompiles
/// on mismatch.
#[derive(Default)]
struct KernelCache {
    sdfg_uid: u64,
    generation: u64,
    entries: HashMap<(usize, usize), Arc<CacheEntry>>,
}

struct CacheEntry {
    compiled: CompiledKernel,
    /// Modeled per-invocation `(bytes, flops)` from the kernel's access
    /// set, filled on the first *profiled* launch so kernels inside
    /// timestep loops are profiled structurally only once.
    modeled: OnceLock<(u64, u64)>,
}

/// Executes SDFGs with a worker pool, a compiled-kernel cache, and hooks.
pub struct Executor {
    pool: Pool,
    mode: VmMode,
    cache: Mutex<KernelCache>,
}

impl Executor {
    /// An executor backed by `pool` (vectorized lane VM).
    pub fn new(pool: Pool) -> Self {
        Executor::with_mode(pool, VmMode::default())
    }

    /// An executor backed by `pool` with an explicit VM mode.
    pub fn with_mode(pool: Pool, mode: VmMode) -> Self {
        Executor {
            pool,
            mode,
            cache: Mutex::new(KernelCache::default()),
        }
    }

    /// Serial executor (deterministic, used by tests).
    pub fn serial() -> Self {
        Executor::new(Pool::new(1))
    }

    /// Serial executor forced onto the scalar reference VM.
    pub fn serial_scalar() -> Self {
        Executor::with_mode(Pool::new(1), VmMode::Scalar)
    }

    /// Look up (or compile) the kernel at `key`, reporting whether it was
    /// a cache hit. The `Arc` keeps the lock window to the map probe.
    fn compiled_for(
        &self,
        sdfg: &Sdfg,
        key: (usize, usize),
        kernel: &Kernel,
    ) -> (Arc<CacheEntry>, bool) {
        let mut cache = self.cache.lock();
        if cache.sdfg_uid != sdfg.uid() || cache.generation != sdfg.generation() {
            cache.entries.clear();
            cache.sdfg_uid = sdfg.uid();
            cache.generation = sdfg.generation();
        }
        if let Some(e) = cache.entries.get(&key) {
            if e.compiled.fingerprint == KernelFingerprint::of(kernel) {
                return (Arc::clone(e), true);
            }
        }
        let entry = Arc::new(CacheEntry {
            compiled: compile_kernel(kernel),
            modeled: OnceLock::new(),
        });
        cache.entries.insert(key, Arc::clone(&entry));
        (entry, false)
    }

    /// Run the whole program. `params` maps [`crate::expr::ParamId`]
    /// indices to values and must cover `sdfg.params`.
    pub fn run(
        &self,
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
    ) -> ExecReport {
        self.run_inner(sdfg, store, params, hooks, None)
    }

    /// Run the whole program with observability: every executed node is
    /// recorded as a `kernel` / `copy` / `halo` / `callback` span in
    /// `tracer`, kernels annotated with points and modeled bytes/flops
    /// from their access sets. The spans share the tracer's clock and the
    /// calling thread's span stack, so they nest inside whatever run/step
    /// span the caller holds open. Numerical results are identical to
    /// [`Executor::run`] — profiling never touches the data plane.
    pub fn run_profiled(
        &self,
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
        tracer: &Tracer,
    ) -> ExecReport {
        self.run_inner(sdfg, store, params, hooks, Some(tracer))
    }

    fn run_inner(
        &self,
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
        prof: Option<&Tracer>,
    ) -> ExecReport {
        assert!(
            params.len() >= sdfg.params.len(),
            "expected {} params, got {}",
            sdfg.params.len(),
            params.len()
        );
        let mut report = ExecReport::default();
        self.run_control(&sdfg.control, sdfg, store, params, hooks, &mut report, prof);
        report
    }

    #[allow(clippy::too_many_arguments)]
    fn run_control(
        &self,
        nodes: &[ControlNode],
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
        report: &mut ExecReport,
        prof: Option<&Tracer>,
    ) {
        for node in nodes {
            match node {
                ControlNode::State(s) => {
                    self.run_state(*s, sdfg, store, params, hooks, report, prof)
                }
                ControlNode::Loop { trips, body } => {
                    for _ in 0..*trips {
                        self.run_control(body, sdfg, store, params, hooks, report, prof);
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run_state(
        &self,
        state_idx: usize,
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
        report: &mut ExecReport,
        prof: Option<&Tracer>,
    ) {
        let state = &sdfg.states[state_idx];
        for (node_idx, node) in state.nodes.iter().enumerate() {
            match node {
                DataflowNode::Kernel(k) => {
                    debug_assert!(validate_kernel(k).is_ok(), "{:?}", validate_kernel(k));
                    let span = prof.map(|t| t.span("kernel", &k.name));
                    let t0 = Instant::now();
                    let (entry, hit) = self.compiled_for(sdfg, (state_idx, node_idx), k);
                    let stats =
                        run_compiled(&entry.compiled, store, params, &self.pool, self.mode);
                    report.record(&k.name, stats.points, t0.elapsed().as_secs_f64());
                    if hit {
                        report.cache_hits += 1;
                    } else {
                        report.cache_misses += 1;
                    }
                    report.lanes_vector += stats.lanes_vector;
                    report.lanes_scalar += stats.lanes_scalar;
                    if let Some(mut span) = span {
                        let (bytes, flops) = *entry.modeled.get_or_init(|| {
                            let p = k.profile(&sdfg.layout_fn());
                            (p.bytes_total(), p.flops)
                        });
                        span.set_points(stats.points);
                        span.set_bytes(bytes);
                        span.set_flops(flops);
                    }
                }
                DataflowNode::Library(l) => {
                    panic!(
                        "unexpanded library node '{}' — call Sdfg::expand_libraries first",
                        l.label()
                    );
                }
                DataflowNode::Copy { src, dst } => {
                    let span = prof.map(|t| t.span("copy", "copy"));
                    let (s, d) = (*src, *dst);
                    let src_arr = store.get(s).clone();
                    store.get_mut(d).copy_from(&src_arr);
                    if let Some(mut span) = span {
                        // Copy traffic: every stored element read + written.
                        let points = src_arr.raw().len() as u64;
                        span.set_points(points);
                        span.set_bytes(2 * 8 * points);
                    }
                }
                DataflowNode::HaloExchange { fields } => {
                    let span = prof.map(|t| t.span("halo", "halo"));
                    hooks.halo_exchange(fields, store);
                    report.halo_exchanges += 1;
                    if let Some(mut span) = span {
                        // Rind traffic: each exchanged field's halo shell is
                        // packed (read) and unpacked (written) once.
                        let mut points = 0u64;
                        for f in fields {
                            let total = store.get(*f).raw().len() as u64;
                            let interior = sdfg.layout_of(*f).domain_len() as u64;
                            points += total.saturating_sub(interior);
                        }
                        span.set_points(points);
                        span.set_bytes(2 * 8 * points);
                    }
                }
                DataflowNode::Callback { name, reads, writes } => {
                    let span = prof.map(|t| t.span("callback", name));
                    hooks.callback(name, store);
                    report.callbacks += 1;
                    if let Some(mut span) = span {
                        // Attribute the callback's declared access set: every
                        // read field streamed in, every written field out.
                        let points: u64 = writes
                            .iter()
                            .map(|f| sdfg.layout_of(*f).domain_len() as u64)
                            .sum();
                        let read_elems: u64 = reads
                            .iter()
                            .map(|f| sdfg.layout_of(*f).domain_len() as u64)
                            .sum();
                        span.set_points(points);
                        span.set_bytes(8 * (read_elems + points));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, LocalId};
    use crate::graph::State;
    use crate::kernel::{Anchor, AxisInterval, Domain, Extent2, KOrder, Region2, Schedule, Stmt};
    use crate::storage::StorageOrder;

    fn sdfg_with(n: usize, halo: usize, names: &[&str]) -> (Sdfg, Vec<DataId>) {
        let mut g = Sdfg::new("t");
        let l = Layout::new([n, n, 4], [halo, halo, 1], StorageOrder::IContiguous, 1);
        let ids = names
            .iter()
            .map(|nm| g.add_container(*nm, l.clone(), false))
            .collect();
        (g, ids)
    }

    #[test]
    fn pointwise_kernel_executes() {
        let (mut g, ids) = sdfg_with(8, 0, &["a", "b"]);
        let p = g.add_param("scale");
        let mut k = Kernel::new(
            "scale",
            Domain::from_shape([8, 8, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(ids[1]),
            Expr::load(ids[0], 0, 0, 0) * Expr::Param(p),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        *store.get_mut(ids[0]) = Array3::from_fn(g.layout_of(ids[0]), |i, j, k| {
            (i + j + k) as f64
        });
        let report = Executor::serial().run(&g, &mut store, &[3.0], &mut NoHooks);
        assert_eq!(report.launches, 1);
        assert_eq!(store.get(ids[1]).get(2, 3, 1), 18.0);
    }

    #[test]
    fn laplacian_uses_halo() {
        let (mut g, ids) = sdfg_with(6, 1, &["inp", "out"]);
        let mut k = Kernel::new(
            "lap",
            Domain::from_shape([6, 6, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let e = Expr::load(ids[0], -1, 0, 0)
            + Expr::load(ids[0], 1, 0, 0)
            + Expr::load(ids[0], 0, -1, 0)
            + Expr::load(ids[0], 0, 1, 0)
            - Expr::c(4.0) * Expr::load(ids[0], 0, 0, 0);
        k.stmts.push(Stmt::full(LValue::Field(ids[1]), e));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        // f(i,j) = i^2 -> laplacian = 2 everywhere (constant in j, k)
        let l = g.layout_of(ids[0]);
        let mut inp = Array3::zeros(l);
        for k_ in 0..4i64 {
            for j in -1..7i64 {
                for i in -1..7i64 {
                    inp.set(i, j, k_, (i * i) as f64);
                }
            }
        }
        *store.get_mut(ids[0]) = inp;
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        for j in 0..6 {
            for i in 0..6 {
                assert!((store.get(ids[1]).get(i, j, 2) - 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn forward_solver_carries_dependency() {
        // cum[k] = cum[k-1] + a[k] for k >= 1; cum[0] = a[0]
        let (mut g, ids) = sdfg_with(4, 0, &["a", "cum"]);
        let mut k = Kernel::new(
            "cumsum",
            Domain::from_shape([4, 4, 4]),
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[1]),
            expr: Expr::load(ids[0], 0, 0, 0),
            k_range: AxisInterval::new(Anchor::Start(0), Anchor::Start(1)),
            region: None,
            extent: Extent2::ZERO,
        });
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[1]),
            expr: Expr::load(ids[1], 0, 0, -1) + Expr::load(ids[0], 0, 0, 0),
            k_range: AxisInterval::new(Anchor::Start(1), Anchor::End(0)),
            region: None,
            extent: Extent2::ZERO,
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        *store.get_mut(ids[0]) = Array3::from_fn(g.layout_of(ids[0]), |_, _, k| (k + 1) as f64);
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        // cumsum of 1,2,3,4 = 1,3,6,10
        assert_eq!(store.get(ids[1]).get(0, 0, 0), 1.0);
        assert_eq!(store.get(ids[1]).get(1, 2, 1), 3.0);
        assert_eq!(store.get(ids[1]).get(3, 3, 3), 10.0);
    }

    #[test]
    fn backward_solver_marches_down() {
        // s[k] = s[k+1] + a[k] for k < n-1; s[n-1] = a[n-1]  (suffix sum)
        let (mut g, ids) = sdfg_with(3, 0, &["a", "suf"]);
        let mut k = Kernel::new(
            "suffix",
            Domain::from_shape([3, 3, 4]),
            KOrder::Backward,
            Schedule::gpu_vertical(),
        );
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[1]),
            expr: Expr::load(ids[0], 0, 0, 0),
            k_range: AxisInterval::new(Anchor::End(-1), Anchor::End(0)),
            region: None,
            extent: Extent2::ZERO,
        });
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[1]),
            expr: Expr::load(ids[1], 0, 0, 1) + Expr::load(ids[0], 0, 0, 0),
            k_range: AxisInterval::new(Anchor::Start(0), Anchor::End(-1)),
            region: None,
            extent: Extent2::ZERO,
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        *store.get_mut(ids[0]) = Array3::from_fn(g.layout_of(ids[0]), |_, _, k| (k + 1) as f64);
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        // suffix sums of 1,2,3,4 = 10,9,7,4
        assert_eq!(store.get(ids[1]).get(0, 0, 0), 10.0);
        assert_eq!(store.get(ids[1]).get(2, 2, 2), 7.0);
        assert_eq!(store.get(ids[1]).get(1, 1, 3), 4.0);
    }

    #[test]
    fn locals_carry_within_column_of_forward_solver() {
        // Running max via a local: loc = max(loc, a); out = loc
        let (mut g, ids) = sdfg_with(2, 0, &["a", "out"]);
        let mut k = Kernel::new(
            "runmax",
            Domain::from_shape([2, 2, 4]),
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        k.n_locals = 1;
        k.stmts.push(Stmt::full(
            LValue::Local(LocalId(0)),
            Expr::bin(
                crate::expr::BinOp::Max,
                Expr::Local(LocalId(0)),
                Expr::load(ids[0], 0, 0, 0),
            ),
        ));
        k.stmts
            .push(Stmt::full(LValue::Field(ids[1]), Expr::Local(LocalId(0))));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        let vals = [3.0, 1.0, 5.0, 2.0];
        *store.get_mut(ids[0]) =
            Array3::from_fn(g.layout_of(ids[0]), |_, _, k| vals[k as usize]);
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        let expect = [3.0, 3.0, 5.0, 5.0];
        for k_ in 0..4i64 {
            assert_eq!(store.get(ids[1]).get(1, 1, k_), expect[k_ as usize]);
        }
    }

    #[test]
    fn region_statement_applies_only_at_edge() {
        let (mut g, ids) = sdfg_with(6, 0, &["out"]);
        let mut k = Kernel::new(
            "edges",
            Domain::from_shape([6, 6, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(ids[0]), Expr::c(1.0)));
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[0]),
            expr: Expr::c(9.0),
            k_range: AxisInterval::FULL,
            region: Some(Region2 {
                i: AxisInterval::FULL,
                j: AxisInterval::at_start(0),
            }),
            extent: Extent2::ZERO,
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(store.get(ids[0]).get(3, 0, 1), 9.0);
        assert_eq!(store.get(ids[0]).get(3, 1, 1), 1.0);
        assert_eq!(store.get(ids[0]).get(0, 5, 3), 1.0);
    }

    #[test]
    fn extent_extends_statement_domain() {
        let (mut g, ids) = sdfg_with(6, 2, &["out"]);
        let mut k = Kernel::new(
            "ext",
            Domain::from_shape([6, 6, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[0]),
            expr: Expr::c(7.0),
            k_range: AxisInterval::FULL,
            region: None,
            extent: Extent2 {
                i_lo: 1,
                i_hi: 1,
                j_lo: 0,
                j_hi: 0,
            },
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let mut store = DataStore::for_sdfg(&g);
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(store.get(ids[0]).get(-1, 0, 0), 7.0);
        assert_eq!(store.get(ids[0]).get(6, 0, 0), 7.0);
        assert_eq!(store.get(ids[0]).get(0, -1, 0), 0.0, "j not extended");
    }

    #[test]
    fn parallel_pool_matches_serial() {
        let (mut g, ids) = sdfg_with(16, 1, &["inp", "out"]);
        let mut k = Kernel::new(
            "lap",
            Domain::from_shape([16, 16, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        let e = Expr::load(ids[0], -1, 0, 0) + Expr::load(ids[0], 1, 0, 0)
            - Expr::c(2.0) * Expr::load(ids[0], 0, 0, 0);
        k.stmts.push(Stmt::full(LValue::Field(ids[1]), e));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);

        let init = |store: &mut DataStore| {
            let l = g.layout_of(ids[0]);
            let mut a = Array3::zeros(l);
            for k_ in 0..4i64 {
                for j in -1..17i64 {
                    for i in -1..17i64 {
                        a.set(i, j, k_, ((i * 7 + j * 3 + k_) % 11) as f64);
                    }
                }
            }
            *store.get_mut(ids[0]) = a;
        };
        let mut s1 = DataStore::for_sdfg(&g);
        init(&mut s1);
        Executor::serial().run(&g, &mut s1, &[], &mut NoHooks);
        let mut s2 = DataStore::for_sdfg(&g);
        init(&mut s2);
        Executor::new(Pool::new(4)).run(&g, &mut s2, &[], &mut NoHooks);
        assert_eq!(s1.get(ids[1]).max_abs_diff(s2.get(ids[1])), 0.0);
    }

    #[test]
    fn loop_control_node_repeats() {
        let (mut g, ids) = sdfg_with(4, 0, &["x"]);
        let mut k = Kernel::new(
            "inc",
            Domain::from_shape([4, 4, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(ids[0]),
            Expr::load(ids[0], 0, 0, 0) + Expr::c(1.0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.states.push(s);
        g.control = vec![ControlNode::Loop {
            trips: 5,
            body: vec![ControlNode::State(0)],
        }];

        let mut store = DataStore::for_sdfg(&g);
        let report = Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(report.launches, 5);
        assert_eq!(store.get(ids[0]).get(2, 2, 2), 5.0);
    }

    /// The single spine: spans recorded by `run_profiled` land in the
    /// caller's tracer on the caller's thread, so they sit inside the
    /// span the caller holds open with no timeline re-basing, and the
    /// modeled cost rides in the compiled-kernel cache entry (profiled
    /// structurally once, however many loop trips launch the kernel).
    #[test]
    fn profiled_spans_nest_in_the_callers_open_span() {
        let (mut g, ids) = sdfg_with(4, 0, &["a", "out"]);
        let mut k = Kernel::new(
            "k#0",
            Domain::from_shape([4, 4, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(ids[1]), Expr::load(ids[0], 0, 0, 0)));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        s.nodes.push(DataflowNode::Copy {
            src: ids[1],
            dst: ids[0],
        });
        g.add_state(s);
        g.control = vec![ControlNode::Loop {
            trips: 7,
            body: vec![ControlNode::State(0)],
        }];

        let tracer = Tracer::new();
        let exec = Executor::serial();
        let mut store = DataStore::for_sdfg(&g);
        {
            let _step = tracer.span("step", "timestep0");
            exec.run_profiled(&g, &mut store, &[], &mut NoHooks, &tracer);
        }
        let events = tracer.finished();
        let step = events.iter().find(|e| e.cat == "step").expect("outer span");
        let inner: Vec<_> = events.iter().filter(|e| e.cat != "step").collect();
        assert_eq!(inner.len(), 14);
        for e in &inner {
            assert_eq!(e.tid, step.tid, "{} recorded on another thread id", e.name);
            assert!(
                step.ts_us <= e.ts_us && e.ts_us + e.dur_us <= step.ts_us + step.dur_us,
                "{} escapes the open step span",
                e.name
            );
        }
        let report = crate::ProfileReport::from_events(&events);
        assert_eq!(report.launches, 7);
        assert_eq!(report.copy.invocations, 7);
        // 4*4*4 elements read + written per launch.
        assert_eq!(report.kernels[0].modeled_bytes, 7 * 2 * 64 * 8);
        let cache = exec.cache.lock();
        assert_eq!(cache.entries.len(), 1, "one cache entry for the looped kernel");
        assert!(cache.entries[&(0, 0)].modeled.get().is_some());
    }

    #[test]
    fn halo_and_callback_hooks_fire() {
        let (mut g, ids) = sdfg_with(4, 1, &["x"]);
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::HaloExchange {
            fields: vec![ids[0]],
        });
        s.nodes.push(DataflowNode::Callback {
            name: "diag".into(),
            reads: vec![ids[0]],
            writes: vec![],
        });
        g.add_state(s);

        struct H {
            halos: u32,
            cbs: Vec<String>,
        }
        impl ExecHooks for H {
            fn halo_exchange(&mut self, fields: &[DataId], _store: &mut DataStore) {
                assert_eq!(fields.len(), 1);
                self.halos += 1;
            }
            fn callback(&mut self, name: &str, _store: &mut DataStore) {
                self.cbs.push(name.to_string());
            }
        }
        let mut h = H {
            halos: 0,
            cbs: vec![],
        };
        let mut store = DataStore::for_sdfg(&g);
        let report = Executor::serial().run(&g, &mut store, &[], &mut h);
        assert_eq!(h.halos, 1);
        assert_eq!(h.cbs, vec!["diag"]);
        assert_eq!(report.halo_exchanges, 1);
        assert_eq!(report.callbacks, 1);
    }

    #[test]
    fn validation_rejects_horizontal_self_dependency() {
        let (_, ids) = sdfg_with(4, 1, &["x", "y"]);
        let mut k = Kernel::new(
            "bad",
            Domain::from_shape([4, 4, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(ids[0]),
            Expr::load(ids[0], 1, 0, 0),
        ));
        assert!(validate_kernel(&k).is_err());
        // And vertical self-dependency in PARALLEL:
        let mut k2 = Kernel::new(
            "bad2",
            Domain::from_shape([4, 4, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k2.stmts.push(Stmt::full(
            LValue::Field(ids[1]),
            Expr::load(ids[1], 0, 0, -1),
        ));
        assert!(validate_kernel(&k2).is_err());
        // Forward reading k-1 of own output is fine:
        let mut k3 = Kernel::new(
            "ok",
            Domain::from_shape([4, 4, 4]),
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        k3.stmts.push(Stmt::full(
            LValue::Field(ids[1]),
            Expr::load(ids[1], 0, 0, -1),
        ));
        assert!(validate_kernel(&k3).is_ok());
        // ...but reading k+1 in a forward solver is not.
        let mut k4 = k3.clone();
        k4.stmts[0].expr = Expr::load(ids[1], 0, 0, 1);
        assert!(validate_kernel(&k4).is_err());
    }

    /// A kernel with a bit of everything: multi-statement, region rind,
    /// locals carried through a forward K march, and an i-hull wide
    /// enough to engage the lane VM.
    fn mixed_kernel_sdfg(n: usize) -> (Sdfg, Vec<DataId>) {
        let (mut g, ids) = sdfg_with(n, 1, &["a", "b", "out"]);
        let mut k = Kernel::new(
            "mixed",
            Domain::from_shape([n, n, 4]),
            KOrder::Forward,
            Schedule::gpu_vertical(),
        );
        k.n_locals = 1;
        k.stmts.push(Stmt::full(
            LValue::Local(LocalId(0)),
            Expr::Local(LocalId(0)) + Expr::load(ids[0], 1, 0, 0) * Expr::load(ids[1], 0, -1, 0),
        ));
        k.stmts.push(Stmt::full(
            LValue::Field(ids[2]),
            Expr::Local(LocalId(0)) + Expr::Index(Axis::I) * Expr::c(0.125),
        ));
        k.stmts.push(Stmt {
            lvalue: LValue::Field(ids[2]),
            expr: Expr::load(ids[1], 0, 0, 0) - Expr::c(2.5),
            k_range: AxisInterval::new(Anchor::Start(1), Anchor::End(0)),
            region: Some(Region2 {
                i: AxisInterval::at_start(0),
                j: AxisInterval::FULL,
            }),
            extent: Extent2::ZERO,
        });
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        (g, ids)
    }

    fn filled_store(g: &Sdfg, ids: &[DataId]) -> DataStore {
        let mut store = DataStore::for_sdfg(g);
        for (n, d) in ids.iter().enumerate() {
            *store.get_mut(*d) = Array3::from_fn(g.layout_of(*d), |i, j, k| {
                0.1 + ((n as i64 * 31 + i * 7 + j * 5 + k * 3).rem_euclid(23)) as f64 * 0.17
            });
        }
        store
    }

    #[test]
    fn lanes_mode_bit_identical_to_scalar_mode() {
        let (g, ids) = mixed_kernel_sdfg(20);
        let mut s1 = filled_store(&g, &ids);
        let mut s2 = filled_store(&g, &ids);
        let r1 = Executor::serial_scalar().run(&g, &mut s1, &[], &mut NoHooks);
        let r2 = Executor::serial().run(&g, &mut s2, &[], &mut NoHooks);
        assert_eq!(r1.lanes_vector, 0);
        assert!(r2.lanes_vector > 0, "lane VM never engaged");
        assert!(r2.lanes_scalar > 0, "region rind should fall back to scalar");
        for d in &ids {
            let (a, b) = (s1.get(*d), s2.get(*d));
            for (x, y) in a.raw().iter().zip(b.raw()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn executor_caches_compiled_kernels_across_runs() {
        let (g, ids) = mixed_kernel_sdfg(8);
        let exec = Executor::serial();
        let mut store = filled_store(&g, &ids);
        let r1 = exec.run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(r1.cache_hits, 0);
        assert_eq!(r1.cache_misses, 1);
        let r2 = exec.run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(r2.cache_hits, 1, "steady state must recompile nothing");
        assert_eq!(r2.cache_misses, 0);
    }

    #[test]
    fn touch_invalidates_compiled_kernel_cache() {
        let (mut g, ids) = mixed_kernel_sdfg(8);
        let exec = Executor::serial();
        let mut store = filled_store(&g, &ids);
        exec.run(&g, &mut store, &[], &mut NoHooks);
        g.touch();
        let r = exec.run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(r.cache_misses, 1, "generation bump must force recompile");
    }

    #[test]
    fn cloned_sdfg_does_not_share_cache_namespace() {
        let (g, ids) = mixed_kernel_sdfg(8);
        let g2 = g.clone();
        assert_ne!(g.uid(), g2.uid());
        let exec = Executor::serial();
        let mut store = filled_store(&g, &ids);
        exec.run(&g, &mut store, &[], &mut NoHooks);
        // The clone is a distinct graph: no stale hits.
        let r = exec.run(&g2, &mut store, &[], &mut NoHooks);
        assert_eq!(r.cache_hits, 0);
    }

    #[test]
    fn narrow_hull_runs_entirely_on_scalar_rind() {
        let (mut g, ids) = sdfg_with(2, 0, &["a", "b"]);
        let mut k = Kernel::new(
            "narrow",
            Domain::from_shape([2, 2, 4]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(
            LValue::Field(ids[1]),
            Expr::load(ids[0], 0, 0, 0) * Expr::c(2.0),
        ));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        let mut store = filled_store(&g, &ids);
        let r = Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(r.lanes_vector, 0);
        assert_eq!(r.lanes_scalar, 16);
        assert_eq!(
            store.get(ids[1]).get(1, 1, 1),
            store.get(ids[0]).get(1, 1, 1) * 2.0
        );
    }

    #[test]
    fn param_count_is_checked() {
        let mut g = Sdfg::new("t");
        g.add_param("dt");
        let store = &mut DataStore::for_sdfg(&g);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::serial().run(&g, store, &[], &mut NoHooks);
        }));
        assert!(result.is_err());
    }
}
