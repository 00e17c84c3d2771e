//! The runtime executor: runs an expanded SDFG numerically on the host.
//!
//! Execution is column-oriented: every column of a kernel's `(i, j)` hull
//! sees its statements in program order while K marches upward, downward,
//! or in arbitrary order per its [`KOrder`]. Columns are grouped into
//! blocks of j-rows whose statements run as tile programs on the tile VM,
//! on the thread that launches the kernel; the reference walks each
//! statement's expression tree per column ([`VmMode::Scalar`]). The
//! executor enforces the same
//! parallel-model restriction GT4Py does: within one kernel, no statement
//! may read — at a nonzero horizontal offset — a field written by the same
//! kernel (cross-thread dependencies must be broken into separate kernels or
//! fused by recomputation; Section IV-D "some synchronization points were
//! pre-determined and had to be worked around by splitting stencils").

use crate::bytecode::{self, Src, TileProgram, View, TILE_LANES, TILE_SCRATCH};
use crate::expr::{DataId, EvalCtx, Expr, LocalId, Offset3, ParamId};
use crate::graph::{ControlNode, DataflowNode, Sdfg};
use crate::kernel::{Domain, KOrder, Kernel, LValue};
use crate::liveness::{live_intervals, Interval, Packing};
use crate::storage::{Array3, Axis, Layout};
use machine::faults::SITE_WORKER_PANIC;
use machine::{Faults, FireCtx, RunContext};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Runtime storage: one array per SDFG container, except that transients
/// whose lifetimes do not overlap share one ([`crate::liveness`]): ids
/// resolve through the store's packing. A
/// [`constant`](crate::graph::Container::constant) container's slot holds
/// no array of its own: the caller lends one by reference
/// ([`lend_constant`](Self::lend_constant)) and every store it is lent to
/// reads the same allocation.
#[derive(Debug, Clone)]
pub struct DataStore {
    arrays: Vec<Slot>,
    packing: Arc<Packing>,
}

#[derive(Debug, Clone)]
enum Slot {
    Owned(Array3),
    /// A constant's slot: the layout the program declared, and the array
    /// once one has been lent.
    Constant(Layout, Option<Arc<Array3>>),
}

impl Slot {
    fn array(&self) -> Option<&Array3> {
        match self {
            Slot::Owned(a) => Some(a),
            Slot::Constant(_, lent) => lent.as_deref(),
        }
    }

    fn owned_mut(&mut self) -> &mut Array3 {
        match self {
            Slot::Owned(a) => a,
            Slot::Constant(..) => panic!("write access to a constant container"),
        }
    }
}

impl DataStore {
    /// Allocate zeroed arrays for the containers of `sdfg` that are not
    /// constant, one per array of the graph's packing: a transient's
    /// array may hold another transient's values before its first write
    /// and after its last read.
    pub fn for_sdfg(sdfg: &Sdfg) -> Self {
        let packing = Packing::of(sdfg);
        let mut arrays = Vec::new();
        for (c, &a) in sdfg.containers.iter().zip(&packing.array_of) {
            if a == arrays.len() {
                arrays.push(match c.constant {
                    true => Slot::Constant(c.layout.clone(), None),
                    false => Slot::Owned(Array3::zeros(c.layout.clone())),
                });
            }
        }
        DataStore {
            arrays,
            packing: Arc::new(packing),
        }
    }

    fn slot(&self, d: DataId) -> &Slot {
        &self.arrays[self.packing.array_of[d.0]]
    }

    /// Immutable access to a container's array. A constant nobody has
    /// lent yet reads as the empty array.
    pub fn get(&self, d: DataId) -> &Array3 {
        static UNLENT: OnceLock<Array3> = OnceLock::new();
        self.slot(d)
            .array()
            .unwrap_or_else(|| UNLENT.get_or_init(Array3::default))
    }

    /// Mutable access to a container's array. Panics for a constant.
    pub fn get_mut(&mut self, d: DataId) -> &mut Array3 {
        self.arrays[self.packing.array_of[d.0]].owned_mut()
    }

    /// Mutable access to several containers at once (a host callback that
    /// updates fields in place). Panics when two ids name one array.
    pub fn get_disjoint_mut<const N: usize>(&mut self, ids: [DataId; N]) -> [&mut Array3; N] {
        let at = ids.map(|d| self.packing.array_of[d.0]);
        self.arrays
            .get_disjoint_mut(at)
            .expect("distinct arrays of this store")
            .map(Slot::owned_mut)
    }

    /// Put `array` in constant container `d`'s slot: a pointer bump, no
    /// copy. Panics when `d` was not declared constant or the layouts
    /// differ.
    pub fn lend_constant(&mut self, d: DataId, array: &Arc<Array3>) {
        let Slot::Constant(layout, lent) = &mut self.arrays[self.packing.array_of[d.0]] else {
            panic!("container {} is not constant", d.0)
        };
        assert_eq!(layout, array.layout(), "layout mismatch in lend_constant");
        *lent = Some(Arc::clone(array));
    }

    /// Copy every element of `src` into `dst` (same layout; a no-op when
    /// the two share an array).
    pub fn copy(&mut self, src: DataId, dst: DataId) {
        let (s, d) = (self.packing.array_of[src.0], self.packing.array_of[dst.0]);
        if s == d {
            return;
        }
        let [s, d] = self
            .arrays
            .get_disjoint_mut([s, d])
            .expect("two arrays of this store");
        d.owned_mut()
            .copy_from(s.array().expect("copy from a constant nobody lent"));
    }

    /// Take over `from`'s contents for every container of `sdfg` that is
    /// not transient and that `from` holds: an owned array copied, a lent
    /// constant lent again. `from` may have been built for another graph
    /// over the same containers; this store keeps its own packing.
    pub fn copy_inputs(&mut self, sdfg: &Sdfg, from: &DataStore) {
        for (n, c) in sdfg.containers.iter().enumerate().take(from.len()) {
            let d = DataId(n);
            match from.slot(d) {
                _ if c.transient => {}
                Slot::Owned(a) => self.get_mut(d).copy_from(a),
                Slot::Constant(_, Some(lent)) => self.lend_constant(d, lent),
                Slot::Constant(_, None) => {}
            }
        }
    }

    /// Number of containers.
    pub fn len(&self) -> usize {
        self.packing.array_of.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.packing.array_of.is_empty()
    }

    /// The arrays this store allocated itself (lent constants are not
    /// counted): how many, and their bytes.
    pub fn owned_arrays(&self) -> (usize, usize) {
        self.arrays
            .iter()
            .filter_map(|s| match s {
                Slot::Owned(a) => Some(a.raw().len() * 8),
                Slot::Constant(..) => None,
            })
            .fold((0, 0), |(n, bytes), b| (n + 1, bytes + b))
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
    /// Points executed through the tile VM.
    pub lanes_vector: u64,
    /// Points evaluated by the per-column reference tree walk
    /// (`VmMode::Scalar` only).
    pub lanes_scalar: u64,
    /// Tile instructions dispatched (one opcode `match` each).
    pub vm_dispatches: u64,
    /// Lanes × dispatches: the lanes the VM's passes walked. A tree
    /// instruction is one pass however many operators it holds.
    pub vm_lane_ops: u64,
    /// Lanes × operators: what the statements compute, however the
    /// lowering groups operators into instructions.
    pub vm_operator_lanes: u64,
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

/// What evaluates a kernel's statement bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmMode {
    /// [`Expr::eval`] on every point, column by column (the reference
    /// path).
    Scalar,
    /// Tile programs over blocks of j-rows × i-lanes, every hull width.
    /// Bit-identical to [`VmMode::Scalar`].
    #[default]
    Lanes,
}

/// Counters from one kernel launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRunStats {
    /// Statement-points executed.
    pub points: u64,
    /// Points that went through the tile VM.
    pub lanes_vector: u64,
    /// Points that went through the reference tree walk.
    pub lanes_scalar: u64,
    /// Tile instructions dispatched.
    pub vm_dispatches: u64,
    /// Lanes × dispatches (passes).
    pub vm_lane_ops: u64,
    /// Lanes × operators.
    pub vm_operator_lanes: u64,
}

/// Raw view of one container used inside the kernel loop. Columns write
/// disjoint points (guaranteed by [`validate_kernel`]), so sharing the
/// pointer across worker threads is sound; a slot the kernel does not
/// write is only read through (see [`field_slots`]).
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
    tile: TileProgram,
    /// Operators of `tile`, summed over its instructions.
    operators: usize,
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
    /// Per entry of `ids`: whether a statement writes it. A launch takes
    /// write access to these slots only, so a store may hold the others
    /// by shared reference.
    written: Vec<bool>,
    stmts: Vec<CompiledStmt>,
    hull: StmtBounds,
    /// Width of the statement rectangle with the most horizontal points:
    /// the rows of a j-block are sized to fill a tile at this width.
    block_w: usize,
    tile_regs: usize,
    n_locals: usize,
    points: u64,
    k_desc: bool,
    k_parallel: bool,
    empty: bool,
    fingerprint: KernelFingerprint,
}

impl CompiledKernel {
    /// Size of the lowered tile programs: instructions summed over the
    /// statements, and the register file of the widest one.
    pub fn tile_shape(&self) -> (usize, usize) {
        let instrs = self.stmts.iter().map(|c| c.tile.instrs.len()).sum();
        (instrs, self.tile_regs)
    }

    /// Operators the tile programs apply, summed over the statements: what
    /// [`Self::tile_shape`]'s instruction count was before trees folded.
    pub fn tile_operators(&self) -> usize {
        self.stmts.iter().map(|c| c.operators).sum()
    }
}

/// Compile a kernel: build the slot table (one hash-map pass — the old
/// path was O(fields²) in `contains`/`position` scans), compile every
/// statement, and resolve per-statement bounds plus the union hull.
pub fn compile_kernel(kernel: &Kernel) -> CompiledKernel {
    let fingerprint = KernelFingerprint::of(kernel);
    let empty_ck = |fingerprint| CompiledKernel {
        ids: Vec::new(),
        written: Vec::new(),
        stmts: Vec::new(),
        hull: StmtBounds {
            il: 0,
            ih: 0,
            jl: 0,
            jh: 0,
            kl: 0,
            kh: 0,
        },
        block_w: 0,
        tile_regs: 0,
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
    let writes = kernel.writes();
    for d in kernel.reads().into_iter().map(|(d, _)| d).chain(writes.iter().copied()) {
        slot_map.entry(d).or_insert_with(|| {
            ids.push(d);
            (ids.len() - 1) as u16
        });
    }
    let written = ids.iter().map(|d| writes.contains(d)).collect();
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
    let (mut block_w, mut most_points) = (0usize, 0i64);
    // Locals referenced anywhere (declared, written, or read) size the
    // per-column local file.
    let mut n_locals = kernel.n_locals;
    for s in &kernel.stmts {
        let Domain {
            start: [il, jl, kl],
            end: [ih, jh, kh],
        } = s.bounds(&dom);
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
        let horizontal = (ih - il).max(0) * (jh - jl).max(0);
        if horizontal > most_points {
            (block_w, most_points) = ((ih - il) as usize, horizontal);
        }
        let lvalue = match s.lvalue {
            LValue::Field(d) => CompiledLValue::Field(slot_of(d)),
            LValue::Local(l) => {
                n_locals = n_locals.max(l.0 + 1);
                CompiledLValue::Local(l.0 as u16)
            }
        };
        s.expr.visit(&mut |e| {
            if let Expr::Local(l) = e {
                n_locals = n_locals.max(l.0 + 1);
            }
        });
        let tile = bytecode::lower(&s.expr, &slot_of);
        stmts.push(CompiledStmt {
            operators: tile.instrs.iter().map(|i| i.op.operators()).sum(),
            tile,
            bounds: b,
            lvalue,
        });
    }
    if hull.ih <= hull.il || hull.jh <= hull.jl || hull.kh <= hull.kl {
        return empty_ck(fingerprint);
    }

    let tile_regs = stmts.iter().map(|c| c.tile.n_regs).max().unwrap_or(0) as usize;
    CompiledKernel {
        ids,
        written,
        stmts,
        hull,
        block_w,
        tile_regs,
        n_locals,
        points,
        k_desc: kernel.k_order == KOrder::Backward,
        k_parallel: kernel.k_order == KOrder::Parallel,
        empty: false,
        fingerprint,
    }
}

/// One point of a kernel as the reference tree walk sees it.
struct PointCtx<'a> {
    ids: &'a [DataId],
    slots: &'a [FieldSlot],
    locals: &'a [f64],
    params: &'a [f64],
    i: i64,
    j: i64,
    k: i64,
}

impl EvalCtx for PointCtx<'_> {
    #[inline]
    fn load(&self, data: DataId, off: Offset3) -> f64 {
        let slot = self.ids.iter().position(|d| *d == data).expect("unknown field in kernel");
        unsafe {
            self.slots[slot].read(
                self.i + off.i as i64,
                self.j + off.j as i64,
                self.k + off.k as i64,
            )
        }
    }

    #[inline]
    fn local(&self, l: LocalId) -> f64 {
        self.locals[l.0]
    }

    #[inline]
    fn param(&self, p: ParamId) -> f64 {
        self.params[p.0]
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

/// Resolve a kernel's slot table against `store`: write access for the
/// slots the kernel writes, read access for the rest — those pointers are
/// only ever read through, so an array the store shares with other stores
/// (a lent constant) is never aliased mutably.
fn field_slots(ck: &CompiledKernel, store: &mut DataStore) -> Vec<FieldSlot> {
    ck.ids
        .iter()
        .zip(&ck.written)
        .map(|(d, written)| {
            let (ptr, layout) = if *written {
                let a = store.get_mut(*d);
                (a.raw_mut().as_mut_ptr(), a.layout())
            } else {
                let a = store
                    .slot(*d)
                    .array()
                    .unwrap_or_else(|| panic!("constant container {} was never lent to this store", d.0));
                (a.raw().as_ptr().cast_mut(), a.layout())
            };
            FieldSlot {
                ptr,
                base: layout.base,
                strides: layout.strides,
            }
        })
        .collect()
}

/// Run `kernel`, compiled as `ck`, on the calling thread, as part of the
/// run that holds `faults`: a launch with work fires the kernel-panic
/// site once first. Array pointers are re-resolved from `store` on every
/// launch (arrays may have been reallocated between launches); everything
/// else comes from the cache-friendly [`CompiledKernel`], except the
/// statements the reference walk evaluates, which it reads from `kernel`
/// in place.
fn run_compiled(
    kernel: &Kernel,
    ck: &CompiledKernel,
    store: &mut DataStore,
    params: &[f64],
    mode: VmMode,
    faults: &Faults,
) -> KernelRunStats {
    if ck.empty {
        return KernelRunStats::default();
    }
    // Fault site: panic mid-kernel, as a bad stencil body would.
    if faults.fire(SITE_WORKER_PANIC, FireCtx::default()).is_some() {
        panic!(
            "injected fault: kernel panic in '{}' (site {SITE_WORKER_PANIC})",
            kernel.name
        );
    }
    let slots = field_slots(ck, store);
    match mode {
        VmMode::Scalar => run_scalar(kernel, ck, &slots, params),
        VmMode::Lanes => run_tiles(ck, &slots, params),
    }
}

/// The reference executor: every column walks its statements' expression
/// trees point by point — the bit-identity oracle the tile VM is tested
/// against.
fn run_scalar(
    kernel: &Kernel,
    ck: &CompiledKernel,
    slots: &[FieldSlot],
    params: &[f64],
) -> KernelRunStats {
    let hull = ck.hull;
    let ni = (hull.ih - hull.il) as usize;
    let nj = (hull.jh - hull.jl) as usize;
    let k_desc = ck.k_desc;
    let mut locals = vec![0.0f64; ck.n_locals];
    for col in 0..ni * nj {
        let i = hull.il + (col % ni) as i64;
        let j = hull.jl + (col / ni) as i64;
        locals.fill(0.0);
        let mut k = if k_desc { hull.kh - 1 } else { hull.kl };
        while k >= hull.kl && k < hull.kh {
            for (s, cs) in kernel.stmts.iter().zip(&ck.stmts) {
                let b = &cs.bounds;
                if i >= b.il && i < b.ih && j >= b.jl && j < b.jh && k >= b.kl && k < b.kh {
                    let v = s.expr.eval(&PointCtx {
                        ids: &ck.ids,
                        slots,
                        locals: &locals,
                        params,
                        i,
                        j,
                        k,
                    });
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

    KernelRunStats {
        points: ck.points,
        lanes_scalar: ck.points,
        ..Default::default()
    }
}

/// One statement's part of a j-block: `rows × w` points from
/// `origin = (i, j, k)`, and where its operands live.
struct Tile<'a> {
    slots: &'a [FieldSlot],
    params: &'a [f64],
    /// Local 0 at `origin`; the block's locals are laid out
    /// `[local][block row][hull column]`.
    locals: *mut f64,
    /// Elements per local, and per row of one.
    local_len: usize,
    ni: usize,
    origin: [i64; 3],
    rows: usize,
    w: usize,
}

impl Tile<'_> {
    /// Run one statement over the tile; `regs` is the chunk's register
    /// file. Sound under the conditions spelled out in [`run_tiles`].
    unsafe fn run(&self, cs: &CompiledStmt, regs: *mut f64) {
        let local = |l: u16| View {
            ptr: self.locals.add(l as usize * self.local_len),
            stride: self.ni,
            lane: 1,
        };
        // Field rows are read and written where they are, whatever the
        // storage order: the i-stride becomes the view's lane stride.
        let field = |slot: u16, off: Offset3| {
            let (s, [i, j, k]) = (&self.slots[slot as usize], self.origin);
            let at = s.offset(i + off.i as i64, j + off.j as i64, k + off.k as i64);
            View { ptr: s.ptr.add(at), stride: s.strides[1], lane: s.strides[0] }
        };
        let out = match cs.lvalue {
            CompiledLValue::Local(l) => local(l),
            CompiledLValue::Field(slot) => field(slot, Offset3::ZERO),
        };
        let resolve = |src| match src {
            Src::Local(l) => local(l),
            Src::Field { slot, off } => field(slot, off),
            _ => unreachable!("registers and scalars are resolved by run_tile"),
        };
        bytecode::run_tile(&cs.tile, regs, self.rows, self.w, out, self.origin, self.params, resolve);
    }
}

/// The production executor: tile programs over blocks of consecutive
/// j-rows × i-lanes.
///
/// Work decomposition: the hull's j-rows are cut into blocks of `h` rows.
/// A work item is one block (K marches inside it in the kernel's order,
/// per-block locals zeroed first) or, for `Parallel` kernels without
/// locals, one `(block, k)` pair. Within an item statements run in program
/// order, each over the part of its bounds inside the block, so every
/// column sees exactly the `(k, statement)` sequence the scalar path gives
/// it — columns are independent by [`validate_kernel`], making the
/// regrouping bit-identical.
///
/// `h` is as many rows as fit [`TILE_LANES`] lanes at the width of the
/// kernel's largest statement rectangle, evened out over the blocks: a
/// kernel of narrow strips in a wide hull (the edge regions a region
/// split carves out) runs each strip as one tall tile instead of one
/// sliver per hull-sized block.
fn run_tiles(ck: &CompiledKernel, slots: &[FieldSlot], params: &[f64]) -> KernelRunStats {
    let hull = ck.hull;
    let ni = (hull.ih - hull.il) as usize;
    let nj = (hull.jh - hull.jl) as usize;
    let nk = (hull.kh - hull.kl) as usize;
    let marching = !(ck.k_parallel && ck.n_locals == 0);
    let blocks = nj.div_ceil((TILE_LANES / ck.block_w.max(1)).max(1));
    let h = nj.div_ceil(blocks);
    let blocks = nj.div_ceil(h);
    let items = if marching { blocks } else { blocks * nk };
    let mut regs = vec![0.0f64; (ck.tile_regs + TILE_SCRATCH) * TILE_LANES];
    let mut locals = vec![0.0f64; ck.n_locals * h * ni];
    let mut stats = KernelRunStats {
        points: ck.points,
        lanes_vector: ck.points,
        ..Default::default()
    };
    for item in 0..items {
        let j0 = hull.jl + ((item % blocks) * h) as i64;
        let j1 = (j0 + h as i64).min(hull.jh);
        let (mut k, k_last, dk) = if !marching {
            let k = hull.kl + (item / blocks) as i64;
            (k, k, 1)
        } else if ck.k_desc {
            (hull.kh - 1, hull.kl, -1)
        } else {
            (hull.kl, hull.kh - 1, 1)
        };
        locals.fill(0.0);
        loop {
            for cs in &ck.stmts {
                let b = &cs.bounds;
                let (j, j_end) = (b.jl.max(j0), b.jh.min(j1));
                if j >= j_end || k < b.kl || k >= b.kh {
                    continue;
                }
                let rows = (j_end - j) as usize;
                let mut i = b.il;
                while i < b.ih {
                    let w = ((b.ih - i) as usize).min(TILE_LANES / rows);
                    let first = (j - j0) as usize * ni + (i - hull.il) as usize;
                    let tile = Tile {
                        slots,
                        params,
                        // Never dereferenced when the kernel has no locals.
                        locals: locals.as_mut_ptr().wrapping_add(first),
                        local_len: h * ni,
                        ni,
                        origin: [i, j, k],
                        rows,
                        w,
                    };
                    // SAFETY — the one argument for every raw view of the
                    // tile VM (DESIGN §10.1). (1) Registers, scratch and
                    // locals are this launch's own buffers, sized above:
                    // `rows * w <= TILE_LANES` because `w <= TILE_LANES /
                    // rows` and `rows <= h <= TILE_LANES`, and the tile lies in
                    // the `h × ni` block. (2) A field view covers the
                    // statement's bounds shifted by a stencil offset,
                    // inside the container's domain + halo: the points the
                    // reference walk reads one by one. (3) The calling
                    // thread runs the items one after another, so only this
                    // tile's views are live; `validate_kernel` lets a kernel
                    // read a field it writes only at zero horizontal offset
                    // (zero offset at all for `(block, k)` items), and a
                    // written field is not constant, hence not horizontal
                    // (`compiled_for`), so distinct `k` are distinct cells.
                    // (4) Hence a destination overlaps an operand only as
                    // the same rows of the same field or local, which the
                    // lane loops read before they write.
                    unsafe { tile.run(cs, regs.as_mut_ptr()) };
                    stats.vm_dispatches += cs.tile.instrs.len() as u64;
                    stats.vm_lane_ops += (cs.tile.instrs.len() * rows * w) as u64;
                    stats.vm_operator_lanes += (cs.operators * rows * w) as u64;
                    i += w as i64;
                }
            }
            if k == k_last {
                break;
            }
            k += dk;
        }
    }
    stats
}

/// Compile and run one kernel with an explicit [`VmMode`] (used by the
/// differential tests).
pub fn run_kernel_with(
    kernel: &Kernel,
    store: &mut DataStore,
    params: &[f64],
    mode: VmMode,
) -> KernelRunStats {
    debug_assert!(validate_kernel(kernel).is_ok(), "{:?}", validate_kernel(kernel));
    run_compiled(kernel, &compile_kernel(kernel), store, params, mode, &Faults::inert())
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
    /// The graph's live intervals, which every store run on it is
    /// checked against.
    live: Option<Arc<[Option<Interval>]>>,
}

impl KernelCache {
    /// Drop everything cached for another graph, or an older generation
    /// of this one.
    fn namespace(&mut self, sdfg: &Sdfg) -> &mut Self {
        if self.sdfg_uid != sdfg.uid() || self.generation != sdfg.generation() {
            self.entries.clear();
            self.live = None;
            self.sdfg_uid = sdfg.uid();
            self.generation = sdfg.generation();
        }
        self
    }
}

struct CacheEntry {
    compiled: CompiledKernel,
    /// Modeled per-invocation `(bytes, flops)` from the kernel's access
    /// set, filled on the first *profiled* launch so kernels inside
    /// timestep loops are profiled structurally only once.
    modeled: OnceLock<(u64, u64)>,
}

/// Executes SDFGs with a compiled-kernel cache and hooks. Every kernel
/// runs on the thread that calls [`run`](Self::run): the parallelism of
/// a run is its rank threads, each with its own store, sharing one
/// executor.
pub struct Executor {
    mode: VmMode,
    cache: Mutex<KernelCache>,
}

impl Executor {
    /// An executor on the tile VM.
    pub fn serial() -> Self {
        Executor::with_mode(VmMode::default())
    }

    /// An executor forced onto the reference tree walk.
    pub fn serial_scalar() -> Self {
        Executor::with_mode(VmMode::Scalar)
    }

    /// An executor on `mode`.
    pub fn with_mode(mode: VmMode) -> Self {
        Executor {
            mode,
            cache: Mutex::new(KernelCache::default()),
        }
    }

    /// The kernel cache; a poisoned lock is recovered, not propagated.
    fn cache(&self) -> MutexGuard<'_, KernelCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up (or compile) the kernel at `key`, reporting whether it was
    /// a cache hit. The `Arc` keeps the lock window to the map probe.
    fn compiled_for(
        &self,
        sdfg: &Sdfg,
        key: (usize, usize),
        kernel: &Kernel,
    ) -> (Arc<CacheEntry>, bool) {
        let mut cache = self.cache();
        let cache = cache.namespace(sdfg);
        if let Some(e) = cache.entries.get(&key) {
            if e.compiled.fingerprint == KernelFingerprint::of(kernel) {
                return (Arc::clone(e), true);
            }
        }
        // Horizontal ⇒ constant: every level of a horizontal container is
        // one cell, so two `(block, k)` work items writing it would write
        // one cell (`run_tiles` SAFETY (3)); a constant is never written.
        let touched = kernel.reads().into_iter().map(|(d, _)| d).chain(kernel.writes());
        for d in touched {
            let c = &sdfg.containers[d.0];
            assert!(
                c.constant || !c.layout.is_horizontal(),
                "container '{}' of kernel '{}' has a k-stride of 0 but is not constant",
                c.name,
                kernel.name
            );
        }
        if let Some(d) = kernel.writes().into_iter().find(|d| sdfg.containers[d.0].constant) {
            panic!(
                "kernel '{}' writes constant container '{}'",
                kernel.name, sdfg.containers[d.0].name
            );
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
        self.run_in(sdfg, store, params, hooks, &RunContext::default())
    }

    /// Run the whole program as part of the run that carries `ctx`: every
    /// kernel launch fires the context's fault plan's kernel-panic site. With a tracer
    /// in the context, every executed node is recorded as a `kernel` /
    /// `copy` / `halo` / `callback` span, kernels annotated with points and
    /// modeled bytes/flops from their access sets. The spans share the
    /// tracer's clock and the calling thread's span stack, so they nest
    /// inside whatever run/step span the caller holds open. Numerical
    /// results are identical to [`Executor::run`]: profiling never touches
    /// the data plane. An executor is shared between runs; the context
    /// comes with the call.
    pub fn run_in(
        &self,
        sdfg: &Sdfg,
        store: &mut DataStore,
        params: &[f64],
        hooks: &mut dyn ExecHooks,
        ctx: &RunContext,
    ) -> ExecReport {
        assert!(
            params.len() >= sdfg.params.len(),
            "expected {} params, got {}",
            sdfg.params.len(),
            params.len()
        );
        self.check_packing(sdfg, store);
        let mut report = ExecReport::default();
        self.run_control(&sdfg.control, sdfg, store, params, hooks, &mut report, ctx);
        report
    }

    /// Refuse to run `sdfg` on a store whose packing puts two containers
    /// that `sdfg` keeps live at once into one array (a store built for
    /// another graph).
    fn check_packing(&self, sdfg: &Sdfg, store: &DataStore) {
        let live = {
            let mut cache = self.cache();
            let cache = cache.namespace(sdfg);
            Arc::clone(cache.live.get_or_insert_with(|| live_intervals(sdfg).into()))
        };
        if let Some((a, b)) = store.packing.conflict(&live) {
            let name = |d: DataId| &sdfg.containers[d.0].name;
            panic!(
                "the store shares one array between '{}' and '{}', which '{}' keeps live at once",
                name(a),
                name(b),
                sdfg.name
            );
        }
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
        ctx: &RunContext,
    ) {
        for node in nodes {
            match node {
                ControlNode::State(s) => {
                    self.run_state(*s, sdfg, store, params, hooks, report, ctx)
                }
                ControlNode::Loop { trips, body } => {
                    for _ in 0..*trips {
                        self.run_control(body, sdfg, store, params, hooks, report, ctx);
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
        ctx: &RunContext,
    ) {
        let (prof, faults) = (ctx.tracer.as_ref(), &ctx.faults);
        let state = &sdfg.states[state_idx];
        for (node_idx, node) in state.nodes.iter().enumerate() {
            match node {
                DataflowNode::Kernel(k) => {
                    debug_assert!(validate_kernel(k).is_ok(), "{:?}", validate_kernel(k));
                    let span = prof.map(|t| t.span("kernel", &k.name));
                    let t0 = Instant::now();
                    let (entry, hit) = self.compiled_for(sdfg, (state_idx, node_idx), k);
                    let stats = run_compiled(k, &entry.compiled, store, params, self.mode, faults);
                    report.record(&k.name, stats.points, t0.elapsed().as_secs_f64());
                    if hit {
                        report.cache_hits += 1;
                    } else {
                        report.cache_misses += 1;
                    }
                    report.lanes_vector += stats.lanes_vector;
                    report.lanes_scalar += stats.lanes_scalar;
                    report.vm_dispatches += stats.vm_dispatches;
                    report.vm_lane_ops += stats.vm_lane_ops;
                    report.vm_operator_lanes += stats.vm_operator_lanes;
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
                    store.copy(*src, *dst);
                    if let Some(mut span) = span {
                        // Copy traffic: every stored element read + written.
                        let points = store.get(*src).raw().len() as u64;
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

    /// The single spine: spans recorded by a traced `run_in` land in the
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

        let tracer = obs::Tracer::new();
        let exec = Executor::serial();
        let mut store = DataStore::for_sdfg(&g);
        {
            let _step = tracer.span("step", "timestep0");
            let ctx = RunContext {
                tracer: Some(tracer.clone()),
                ..Default::default()
            };
            exec.run_in(&g, &mut store, &[], &mut NoHooks, &ctx);
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
        let of = |cat: &str| inner.iter().filter(|e| e.cat == cat).collect::<Vec<_>>();
        assert_eq!((of("kernel").len(), of("copy").len()), (7, 7));
        // 4*4*4 elements read + written per launch.
        assert!(of("kernel").iter().all(|e| e.bytes == 2 * 64 * 8));
        let cache = exec.cache();
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

    /// A kernel with a bit of everything: multi-statement, a one-column
    /// region, locals carried through a forward K march, and `Index(I)`.
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
        assert_eq!((r1.lanes_vector, r1.vm_dispatches), (0, 0));
        assert_eq!(r2.lanes_vector, r1.lanes_scalar, "every point runs on the tile VM");
        assert_eq!(r2.lanes_scalar, 0);
        assert!(r2.vm_lane_ops > r2.vm_dispatches);
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

    /// Hulls 1–3 wide (and a 1-wide region column inside a wider hull)
    /// have no fallback: the tile VM runs them, bit for bit.
    #[test]
    fn narrow_hulls_are_bit_identical_on_the_tile_vm() {
        for n in 1..=3 {
            let (g, ids) = mixed_kernel_sdfg(n);
            let mut s1 = filled_store(&g, &ids);
            let mut s2 = filled_store(&g, &ids);
            let r1 = Executor::serial_scalar().run(&g, &mut s1, &[], &mut NoHooks);
            let r2 = Executor::serial().run(&g, &mut s2, &[], &mut NoHooks);
            assert_eq!((r2.lanes_vector, r2.lanes_scalar), (r1.lanes_scalar, 0));
            for d in &ids {
                for (x, y) in s1.get(*d).raw().iter().zip(s2.get(*d).raw()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn store_copy_works_in_both_directions_and_onto_itself() {
        let (g, ids) = sdfg_with(4, 1, &["a", "b", "c"]);
        let mut store = filled_store(&g, &ids);
        let (a, c) = (store.get(ids[0]).clone(), store.get(ids[2]).clone());
        store.copy(ids[0], ids[1]);
        assert_eq!(store.get(ids[1]), &a);
        store.copy(ids[2], ids[0]);
        assert_eq!(store.get(ids[0]), &c);
        store.copy(ids[2], ids[2]);
        assert_eq!(store.get(ids[2]), &c);
    }

    /// `in -> t1 -> out`, then `in -> t2 -> out` (or, `interleaved`, both
    /// transients written before either is read).
    fn two_transients(interleaved: bool) -> Sdfg {
        let (mut g, ids) = sdfg_with(4, 0, &["in", "t1", "t2", "out"]);
        g.containers[1].transient = true;
        g.containers[2].transient = true;
        let step = |src: DataId, dst: DataId| {
            let mut k = Kernel::new(
                "step",
                Domain::from_shape([4, 4, 4]),
                KOrder::Parallel,
                Schedule::gpu_horizontal(),
            );
            k.stmts
                .push(Stmt::full(LValue::Field(dst), Expr::load(src, 0, 0, 0) + Expr::c(1.0)));
            DataflowNode::Kernel(k)
        };
        let (i, t1, t2, o) = (ids[0], ids[1], ids[2], ids[3]);
        let mut s = State::new("s");
        s.nodes = match interleaved {
            false => vec![step(i, t1), step(t1, o), step(i, t2), step(t2, o)],
            true => vec![step(i, t1), step(i, t2), step(t1, o), step(t2, o)],
        };
        g.add_state(s);
        g
    }

    #[test]
    fn transients_live_at_different_times_share_an_array() {
        let g = two_transients(false);
        let mut store = DataStore::for_sdfg(&g);
        assert_eq!(store.owned_arrays(), (3, 3 * 4 * 4 * 6 * 8), "K halo of one");
        assert!(std::ptr::eq(store.get(DataId(1)), store.get(DataId(2))));
        Executor::serial().run(&g, &mut store, &[], &mut NoHooks);
        assert_eq!(store.get(DataId(3)).get(1, 2, 3), 2.0);
        assert_eq!(DataStore::for_sdfg(&two_transients(true)).owned_arrays().0, 4);
    }

    #[test]
    #[should_panic(expected = "the store shares one array between 't1' and 't2', which 'other' keeps live at once")]
    fn a_store_refuses_a_graph_whose_intervals_conflict_with_its_packing() {
        let mut store = DataStore::for_sdfg(&two_transients(false));
        let mut other = two_transients(true);
        other.name = "other".into();
        Executor::serial().run(&other, &mut store, &[], &mut NoHooks);
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

    /// `out = metric * 2` over a constant `metric`, or — `backwards` — the
    /// kernel that writes it.
    fn constant_program(backwards: bool) -> (Sdfg, DataId, DataId) {
        let mut g = Sdfg::new("t");
        let l = Layout::new([4, 4, 2], [1, 1, 0], StorageOrder::IContiguous, 1);
        let metric = g.add_container("metric", l.clone(), false);
        g.containers[metric.0].constant = true;
        let out = g.add_container("out", l, false);
        let (dst, src) = if backwards { (metric, out) } else { (out, metric) };
        let mut k = Kernel::new(
            "scale",
            Domain::from_shape([4, 4, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts.push(Stmt::full(LValue::Field(dst), Expr::load(src, 0, 0, 0) * Expr::c(2.0)));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        (g, metric, out)
    }

    #[test]
    fn a_constant_is_lent_to_every_store_not_copied() {
        let (g, metric, out) = constant_program(false);
        let lent = Arc::new(Array3::from_fn(g.layout_of(metric), |i, j, k| (i + 4 * j + 16 * k) as f64));
        let mut stores = [DataStore::for_sdfg(&g), DataStore::for_sdfg(&g)];
        // Nothing is allocated for the slot; unlent it reads as empty.
        assert!(stores[0].get(metric).raw().is_empty());
        for store in &mut stores {
            store.lend_constant(metric, &lent);
            store.lend_constant(metric, &lent);
            Executor::serial().run(&g, store, &[], &mut NoHooks);
            assert!(std::ptr::eq(store.get(metric), &*lent));
            assert_eq!(store.get(out).get(3, 2, 1), 2.0 * lent.get(3, 2, 1));
        }
        assert_eq!(Arc::strong_count(&lent), 3, "one handle per store, one here");
        let clone = stores[0].clone();
        assert!(std::ptr::eq(clone.get(metric), &*lent));
    }

    #[test]
    #[should_panic(expected = "kernel 'scale' writes constant container 'metric'")]
    fn a_kernel_that_writes_a_constant_is_refused_at_compile() {
        let (g, _, _) = constant_program(true);
        Executor::serial().run(&g, &mut DataStore::for_sdfg(&g), &[], &mut NoHooks);
    }

    #[test]
    #[should_panic(expected = "was never lent")]
    fn a_launch_over_an_unlent_constant_panics_instead_of_reading() {
        let (g, _, _) = constant_program(false);
        Executor::serial().run(&g, &mut DataStore::for_sdfg(&g), &[], &mut NoHooks);
    }

    #[test]
    #[should_panic(expected = "write access to a constant")]
    fn a_constant_slot_hands_out_no_write_access() {
        let (g, metric, _) = constant_program(false);
        DataStore::for_sdfg(&g).get_mut(metric);
    }
}
