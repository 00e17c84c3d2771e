//! Assembly of the full dynamical-core timestep (Fig. 2 / Fig. 5).
//!
//! [`build_dycore_program`] produces the orchestrated whole-program SDFG:
//! the acoustic loop (halo exchange → `c_sw` → `riem_solver_c` → `d_sw` →
//! tracer transport) repeated `n_split` times inside `k_split` remapping
//! substeps, each closed by the vertical-remap host callback — the
//! structure the paper's orchestrator extracts from the Python classes
//! (26,689 nodes in 3,179 states at production scale; ours is the same
//! shape at reproduction scale).
//!
//! [`baseline_step`] is the FORTRAN-style counterpart built from the
//! per-module baselines in the exact same order, used to validate the
//! orchestrated program end-to-end.

use crate::c_sw::{baseline_c_sw, c_sw_domain, c_sw_stencil};
use crate::d_sw::{baseline_d_sw, d_sw_stencil};
use crate::fv_tp_2d::{baseline_fv_tp_2d, baseline_transport_update, flux_domain, fv_tp_2d_stencil, transport_update_stencil};
use crate::grid::Grid;
use crate::recorder::{NoRecorder, StateRecorder};
use crate::remapping::remap_state;
use crate::riem_solver_c::{baseline_riem_solver_c, riem_solver_c_stencil};
use crate::state::DycoreState;
use dataflow::graph::Sdfg;
use dataflow::{Array3, DataId, DataStore};
use stencil::ProgramBuilder;

/// Name of the vertical-remap host callback.
pub const REMAP_CALLBACK: &str = "vertical_remap";

/// Dycore configuration (the knobs of Section II's sub-stepping).
#[derive(Debug, Clone, Copy)]
pub struct DycoreConfig {
    /// Acoustic substeps per remapping step.
    pub n_split: u32,
    /// Remapping substeps per call.
    pub k_split: u32,
    /// Acoustic timestep (s).
    pub dt: f64,
    /// Smagorinsky/divergence-damping coefficient.
    pub dddmp: f64,
    /// Optional fourth-order tracer hyperdiffusion coefficient
    /// (`delnflux` with nord = del4); `None` disables the module.
    pub nord4_damp: Option<f64>,
}

impl Default for DycoreConfig {
    fn default() -> Self {
        DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 10.0,
            dddmp: 0.05,
            nord4_damp: None,
        }
    }
}

/// Container ids of the orchestrated program.
#[derive(Debug, Clone)]
pub struct DycoreIds {
    pub delp: DataId,
    pub pt: DataId,
    pub u: DataId,
    pub v: DataId,
    pub w: DataId,
    pub delz: DataId,
    pub q: DataId,
    pub crx: DataId,
    pub cry: DataId,
    pub xfx: DataId,
    pub yfx: DataId,
    pub delpc: DataId,
    pub ptc: DataId,
    pub uc: DataId,
    pub vc: DataId,
    pub fx: DataId,
    pub fy: DataId,
    pub rdx: DataId,
    pub rdy: DataId,
    pub area: DataId,
    pub rarea: DataId,
    pub cosa: DataId,
    pub sina: DataId,
}

/// The orchestrated dycore: program + ids + runtime parameter vector.
pub struct DycoreProgram {
    pub sdfg: Sdfg,
    pub ids: DycoreIds,
    /// Values for the SDFG parameters, in `ParamId` order.
    pub params: Vec<f64>,
    pub config: DycoreConfig,
}

/// Build the whole-model program for an `n`×`n`×`nk` subdomain.
pub fn build_dycore_program(n: usize, nk: usize, config: DycoreConfig) -> DycoreProgram {
    build_program(n, nk, config, true)
}

/// Build the program of one acoustic substep for an `n`×`n`×`nk`
/// subdomain: [`build_dycore_program`] with `n_split = k_split = 1` and
/// no remap, so it ends at `pt_update`. A caller that runs the sub-step
/// loops itself remaps once per `k_split` round ([`remap_callback`]).
pub fn build_substep_program(n: usize, nk: usize, config: DycoreConfig) -> DycoreProgram {
    let one = DycoreConfig {
        n_split: 1,
        k_split: 1,
        ..config
    };
    build_program(n, nk, one, false)
}

fn build_program(n: usize, nk: usize, config: DycoreConfig, remap: bool) -> DycoreProgram {
    let h = crate::state::HALO;
    let mut b = ProgramBuilder::new("fv3_dycore", [n, n, nk], [h, h, 0]);
    let ids = DycoreIds {
        delp: b.field("delp"),
        pt: b.field("pt"),
        u: b.field("u"),
        v: b.field("v"),
        w: b.field("w"),
        delz: b.field("delz"),
        q: b.field("q"),
        crx: b.field("crx"),
        cry: b.field("cry"),
        xfx: b.field("xfx"),
        yfx: b.field("yfx"),
        delpc: b.field("delpc"),
        ptc: b.field("ptc"),
        uc: b.field("uc"),
        vc: b.field("vc"),
        fx: b.field("fx"),
        fy: b.field("fy"),
        rdx: b.constant("rdx"),
        rdy: b.constant("rdy"),
        area: b.constant("area"),
        rarea: b.constant("rarea"),
        cosa: b.constant("cosa"),
        sina: b.constant("sina"),
    };
    // Parameters in registration order: dt2, dt, dddmp[, delndamp].
    b.param("dt2");
    b.param("dt");
    b.param("dddmp");
    if config.nord4_damp.is_some() {
        b.param("delndamp");
    }

    let csw = c_sw_stencil();
    let riem = riem_solver_c_stencil();
    let dsw = d_sw_stencil();
    let fvtp = fv_tp_2d_stencil();
    let update = transport_update_stencil();

    b.repeat(config.k_split, |b| {
        b.repeat(config.n_split, |b| {
            b.begin_state("acoustic_halo");
            b.halo_exchange(&[ids.u, ids.v, ids.w, ids.delp, ids.pt, ids.q]);
            b.begin_state("c_sw");
            b.call_on(
                &csw,
                &[
                    ("u", ids.u),
                    ("v", ids.v),
                    ("delp", ids.delp),
                    ("pt", ids.pt),
                    ("rdx", ids.rdx),
                    ("rdy", ids.rdy),
                    ("area", ids.area),
                    ("rarea", ids.rarea),
                    ("crx", ids.crx),
                    ("cry", ids.cry),
                    ("xfx", ids.xfx),
                    ("yfx", ids.yfx),
                    ("delpc", ids.delpc),
                    ("ptc", ids.ptc),
                    ("uc", ids.uc),
                    ("vc", ids.vc),
                ],
                &[("dt2", "dt2")],
                c_sw_domain(n, nk),
            )
            .expect("c_sw binds");
            b.begin_state("riem_solver_c");
            b.call(
                &riem,
                &[
                    ("delp", ids.delp),
                    ("pt", ids.pt),
                    ("delz", ids.delz),
                    ("w", ids.w),
                ],
                &[("dt", "dt")],
            )
            .expect("riem binds");
            b.begin_state("d_sw");
            b.call(
                &dsw,
                &[
                    ("uc", ids.uc),
                    ("vc", ids.vc),
                    ("cosa", ids.cosa),
                    ("sina", ids.sina),
                    ("rdx", ids.rdx),
                    ("rdy", ids.rdy),
                    ("u", ids.u),
                    ("v", ids.v),
                    ("w", ids.w),
                ],
                &[("dt2", "dt2"), ("dddmp", "dddmp")],
            )
            .expect("d_sw binds");
            b.begin_state("tracer");
            b.call_on(
                &fvtp,
                &[
                    ("q", ids.q),
                    ("crx", ids.crx),
                    ("cry", ids.cry),
                    ("xfx", ids.xfx),
                    ("yfx", ids.yfx),
                    ("fx", ids.fx),
                    ("fy", ids.fy),
                ],
                &[],
                flux_domain(n, nk),
            )
            .expect("fv_tp_2d binds");
            b.call(
                &update,
                &[
                    ("q", ids.q),
                    ("delp", ids.delp),
                    ("fx", ids.fx),
                    ("fy", ids.fy),
                    ("xfx", ids.xfx),
                    ("yfx", ids.yfx),
                    ("rarea", ids.rarea),
                ],
                &[],
            )
            .expect("transport_update binds");
            if config.nord4_damp.is_some() {
                b.begin_state("delnflux");
                b.call(
                    &crate::delnflux::delnflux_stencil(crate::delnflux::Nord::Del4),
                    &[("q", ids.q)],
                    &[("damp", "delndamp")],
                )
                .expect("delnflux binds");
            }
            b.begin_state("pt_update");
            // pt takes the C-grid half-step value (simplified D-grid
            // thermodynamics; see DESIGN.md).
            b.copy(ids.ptc, ids.pt);
        });
        if remap {
            b.begin_state("remap");
            b.callback(
                REMAP_CALLBACK,
                &[ids.delp, ids.pt, ids.w, ids.q, ids.u, ids.v],
                &[ids.delp, ids.pt, ids.w, ids.q, ids.u, ids.v],
            );
        }
    });

    let sdfg = b.build();
    let mut params = vec![0.5 * config.dt, config.dt, config.dddmp];
    if let Some(d) = config.nord4_damp {
        params.push(d);
    }
    DycoreProgram {
        sdfg,
        ids,
        params,
        config,
    }
}

impl DycoreIds {
    /// The containers [`load_state`] overwrites in full before every run
    /// of the program: the seven prognostics, in [`PROGNOSTICS`] order.
    /// The six grid metrics are `constant` containers, lent by reference.
    /// Everything else in a store is scratch the program itself must
    /// write before it reads (`dataflow::reuse`).
    ///
    /// [`PROGNOSTICS`]: crate::state::PROGNOSTICS
    pub fn loaded(&self) -> [DataId; 7] {
        [self.delp, self.pt, self.u, self.v, self.w, self.delz, self.q]
    }
}

/// Lend `grid`'s six metric arrays to the store's constant slots: six
/// pointer bumps.
fn lend_metrics(store: &mut DataStore, ids: &DycoreIds, grid: &Grid) {
    let metrics = [
        (ids.rdx, &grid.rdx),
        (ids.rdy, &grid.rdy),
        (ids.area, &grid.area),
        (ids.rarea, &grid.rarea),
        (ids.cosa, &grid.cosa),
        (ids.sina, &grid.sina),
    ];
    for (id, metric) in metrics {
        store.lend_constant(id, metric);
    }
}

/// Load a rank's state and grid into the program's data store: the seven
/// prognostics are copied, the grid metrics lent. Returns the number of
/// whole arrays copied.
pub fn load_state(store: &mut DataStore, ids: &DycoreIds, state: &DycoreState, grid: &Grid) -> usize {
    lend_metrics(store, ids, grid);
    let loaded = ids.loaded();
    for (id, (_, src)) in loaded.into_iter().zip(state.fields()) {
        store.get_mut(id).copy_from(src);
    }
    loaded.len()
}

/// Read the prognostics back out of the data store. Returns the number
/// of whole arrays copied.
pub fn extract_state(store: &DataStore, ids: &DycoreIds, state: &mut DycoreState) -> usize {
    let loaded = ids.loaded();
    let DycoreState { delp, pt, u, v, w, delz, q, .. } = state;
    for (id, field) in loaded.into_iter().zip([delp, pt, u, v, w, delz, q]) {
        field.copy_from(store.get(id));
    }
    loaded.len()
}

/// A rank's prognostics on loan to a store ([`lend_state`]): the program
/// runs on [`store`](Self::store), and dropping the loan — at the end of
/// the run or while it unwinds — hands the arrays back to the state.
pub struct LentState<'a> {
    store: &'a mut DataStore,
    ids: &'a DycoreIds,
    state: &'a mut DycoreState,
}

impl LentState<'_> {
    /// The store holding the state's arrays.
    pub fn store(&mut self) -> &mut DataStore {
        self.store
    }
}

impl Drop for LentState<'_> {
    fn drop(&mut self) {
        swap_prognostics(self.store, self.ids, self.state);
    }
}

/// Exchange the seven prognostic arrays of `state` with the store's.
fn swap_prognostics(store: &mut DataStore, ids: &DycoreIds, state: &mut DycoreState) {
    let DycoreState { delp, pt, u, v, w, delz, q, .. } = state;
    for (id, field) in ids.loaded().into_iter().zip([delp, pt, u, v, w, delz, q]) {
        std::mem::swap(store.get_mut(id), field);
    }
}

/// [`load_state`] and [`extract_state`] without a copy: the grid metrics
/// are lent, the state's arrays are swapped into the store (layouts
/// asserted equal) and swapped back, with whatever the program wrote, when
/// the returned loan drops.
/// Meanwhile `state` holds the store's spare arrays, so a run that unwinds
/// returns a *partly stepped* state where the copying pair would have left
/// it untouched: lend only once the rank is marked for the rollback (the
/// driver's rank team lends after its receives, and marks the rank just
/// before).
pub fn lend_state<'a>(
    store: &'a mut DataStore,
    ids: &'a DycoreIds,
    state: &'a mut DycoreState,
    grid: &Grid,
) -> LentState<'a> {
    for ((_, field), id) in state.fields().into_iter().zip(ids.loaded()) {
        assert_eq!(field.layout(), store.get(id).layout(), "layout mismatch in lend_state");
    }
    lend_metrics(store, ids, grid);
    swap_prognostics(store, ids, state);
    LentState { store, ids, state }
}

/// Apply the vertical remap to the prognostics in `store`: what the
/// whole program's callback runs, and what the distributed driver runs
/// after the last acoustic substep of each `k_split` round.
pub fn remap_callback(store: &mut DataStore, ids: &DycoreIds) {
    let [delp, pt, w, q, u, v] =
        store.get_disjoint_mut([ids.delp, ids.pt, ids.w, ids.q, ids.u, ids.v]);
    remap_state(delp, &mut [pt, w, q, u, v]);
}

/// Scratch arrays for the baseline step.
pub struct BaselineScratch {
    pub crx: Array3,
    pub cry: Array3,
    pub xfx: Array3,
    pub yfx: Array3,
    pub delpc: Array3,
    pub ptc: Array3,
    pub uc: Array3,
    pub vc: Array3,
    pub fx: Array3,
    pub fy: Array3,
}

impl BaselineScratch {
    /// Allocate scratch matching `state`'s layout.
    pub fn for_state(state: &DycoreState) -> Self {
        let mk = || Array3::zeros(state.layout());
        BaselineScratch {
            crx: mk(),
            cry: mk(),
            xfx: mk(),
            yfx: mk(),
            delpc: mk(),
            ptc: mk(),
            uc: mk(),
            vc: mk(),
            fx: mk(),
            fy: mk(),
        }
    }
}

/// FORTRAN-style full timestep: identical module order and arithmetic to
/// the orchestrated program. `halo` is invoked exactly where the program
/// has halo-exchange nodes (pass a no-op for single-rank runs).
pub fn baseline_step(
    state: &mut DycoreState,
    grid: &Grid,
    scratch: &mut BaselineScratch,
    config: &DycoreConfig,
    halo: &mut impl FnMut(&mut DycoreState),
) {
    baseline_step_recorded(state, grid, scratch, config, halo, &mut NoRecorder);
}

/// [`baseline_step`] with savepoint instrumentation: after each dycore
/// module, `recorder` receives the fields that module just produced,
/// labelled `"k{ks}.s{ns}.{module}"` (and `"k{ks}.remap"` after the
/// vertical remap). The arithmetic is byte-for-byte that of
/// [`baseline_step`]; [`NoRecorder`] makes the two paths identical.
pub fn baseline_step_recorded(
    state: &mut DycoreState,
    grid: &Grid,
    scratch: &mut BaselineScratch,
    config: &DycoreConfig,
    halo: &mut impl FnMut(&mut DycoreState),
    recorder: &mut impl StateRecorder,
) {
    let dt2 = 0.5 * config.dt;
    for ks in 0..config.k_split {
        for ns in 0..config.n_split {
            halo(state);
            baseline_c_sw(
                &state.u,
                &state.v,
                &state.delp,
                &state.pt,
                &grid.rdx,
                &grid.rdy,
                &grid.area,
                &grid.rarea,
                &mut scratch.crx,
                &mut scratch.cry,
                &mut scratch.xfx,
                &mut scratch.yfx,
                &mut scratch.delpc,
                &mut scratch.ptc,
                &mut scratch.uc,
                &mut scratch.vc,
                dt2,
            );
            recorder.record(
                &format!("k{ks}.s{ns}.c_sw"),
                &[
                    ("delpc", &scratch.delpc),
                    ("ptc", &scratch.ptc),
                    ("uc", &scratch.uc),
                    ("vc", &scratch.vc),
                    ("crx", &scratch.crx),
                    ("cry", &scratch.cry),
                    ("xfx", &scratch.xfx),
                    ("yfx", &scratch.yfx),
                ],
            );
            baseline_riem_solver_c(
                &state.delp,
                &state.pt,
                &state.delz,
                &mut state.w,
                config.dt,
            );
            recorder.record(&format!("k{ks}.s{ns}.riem_solver_c"), &[("w", &state.w)]);
            baseline_d_sw(
                &scratch.uc,
                &scratch.vc,
                &grid.cosa,
                &grid.sina,
                &grid.rdx,
                &grid.rdy,
                &mut state.u,
                &mut state.v,
                &mut state.w,
                dt2,
                config.dddmp,
            );
            recorder.record(
                &format!("k{ks}.s{ns}.d_sw"),
                &[("u", &state.u), ("v", &state.v), ("w", &state.w)],
            );
            baseline_fv_tp_2d(
                &state.q,
                &scratch.crx,
                &scratch.cry,
                &scratch.xfx,
                &scratch.yfx,
                &mut scratch.fx,
                &mut scratch.fy,
            );
            baseline_transport_update(
                &mut state.q,
                &mut state.delp,
                &scratch.fx,
                &scratch.fy,
                &scratch.xfx,
                &scratch.yfx,
                &grid.rarea,
            );
            recorder.record(
                &format!("k{ks}.s{ns}.transport"),
                &[
                    ("q", &state.q),
                    ("delp", &state.delp),
                    ("fx", &scratch.fx),
                    ("fy", &scratch.fy),
                ],
            );
            if let Some(damp) = config.nord4_damp {
                crate::delnflux::baseline_delnflux(
                    crate::delnflux::Nord::Del4,
                    &mut state.q,
                    damp,
                );
            }
            state.pt.copy_from(&scratch.ptc);
        }
        remap_state(
            &mut state.delp,
            &mut [
                &mut state.pt,
                &mut state.w,
                &mut state.q,
                &mut state.u,
                &mut state.v,
            ],
        );
        recorder.record(&format!("k{ks}.remap"), &state.fields());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{init_baroclinic, BaroclinicConfig};
    use comm::CubeGeometry;
    use crate::profiling::RemapHooks;
    use dataflow::exec::Executor;
    use dataflow::graph::ExpansionAttrs;

    fn setup(n: usize, nk: usize) -> (DycoreState, Grid) {
        let geom = CubeGeometry::new(n);
        let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, crate::state::HALO, nk);
        let mut s = DycoreState::zeros(n, nk);
        init_baroclinic(&mut s, &grid, &BaroclinicConfig::default());
        (s, grid)
    }

    #[test]
    fn orchestrated_program_matches_baseline_step() {
        let (n, nk) = (8, 6);
        let (state0, grid) = setup(n, nk);
        let config = DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 5.0,
            dddmp: 0.02,
            nord4_damp: None,
        };

        // Baseline.
        let mut sb = state0.clone();
        let mut scratch = BaselineScratch::for_state(&sb);
        baseline_step(&mut sb, &grid, &mut scratch, &config, &mut |_| {});

        // Orchestrated.
        let prog = build_dycore_program(n, nk, config);
        let mut g = prog.sdfg.clone();
        g.expand_libraries(&ExpansionAttrs::tuned());
        dataflow::exec::validate_sdfg(&g).expect("program validates");
        let mut store = DataStore::for_sdfg(&g);
        load_state(&mut store, &prog.ids, &state0, &grid);
        let mut hooks = RemapHooks { ids: &prog.ids };
        // Under the profiler, which must not perturb the answer.
        let tracer = obs::Tracer::new();
        let ctx = machine::RunContext {
            tracer: Some(tracer.clone()),
            ..Default::default()
        };
        let report = Executor::serial().run_in(&g, &mut store, &prog.params, &mut hooks, &ctx);
        assert!(report.launches > 0);
        assert_eq!(report.callbacks, config.k_split as u64);
        assert_eq!(
            report.halo_exchanges,
            (config.k_split * config.n_split) as u64
        );
        // Every executed node is attributed, host glue included: the
        // `pt_update` copy, the halo markers and the remap callback carry
        // points and modeled bytes; every dycore module's kernels carry
        // modeled flops as well.
        let events = tracer.finished();
        let of = |cat: &str| events.iter().filter(|e| e.cat == cat).collect::<Vec<_>>();
        assert_eq!(of("kernel").len() as u64, report.launches);
        for cat in ["copy", "halo", "callback"] {
            let (points, bytes) = of(cat).iter().fold((0, 0), |(p, b), e| (p + e.points, b + e.bytes));
            assert!(points > 0 && bytes > 0, "{cat} spans are not attributed");
        }
        for stem in ["c_sw", "riem_solver_c", "d_sw", "fv_tp_2d", "transport_update"] {
            let mut of_module = of("kernel");
            of_module.retain(|e| e.name.split('#').next() == Some(stem));
            assert!(!of_module.is_empty(), "no kernel of module '{stem}' ran");
            assert!(of_module.iter().all(|e| e.points > 0 && e.bytes > 0));
            let flops: u64 = of_module.iter().map(|e| e.flops).sum();
            assert!(flops > 0, "module '{stem}' models no flops");
        }
        let mut sd = state0.clone();
        extract_state(&store, &prog.ids, &mut sd);

        let diff = sb.max_abs_diff(&sd);
        assert!(diff < 1e-9, "orchestrated vs baseline diff {diff}");
        assert!(!sd.has_nonfinite());
    }

    #[test]
    fn metrics_are_lent_and_a_lent_state_is_swapped_never_copied() {
        let (mut state, grid) = setup(6, 3);
        let prog = build_dycore_program(6, 3, DycoreConfig::default());
        let ids = &prog.ids;
        let mut store = DataStore::for_sdfg(&prog.sdfg);
        let delp = state.delp.raw().as_ptr();
        {
            let mut lent = lend_state(&mut store, ids, &mut state, &grid);
            assert!(std::ptr::eq(lent.store().get(ids.rdx), &*grid.rdx));
            assert_eq!(lent.store().get(ids.delp).raw().as_ptr(), delp);
        }
        assert_eq!(state.delp.raw().as_ptr(), delp, "the loan hands the array back");

        assert_eq!(load_state(&mut store, ids, &state, &grid), 7);
        assert_ne!(store.get(ids.delp).raw().as_ptr(), delp, "prognostics are copied in");
        for (id, metric) in [(ids.area, &grid.area), (ids.sina, &grid.sina)] {
            assert!(std::ptr::eq(store.get(id), &**metric));
            assert_eq!(std::sync::Arc::strong_count(metric), 2, "one handle, however often lent");
        }
        assert_eq!(extract_state(&store, ids, &mut state), 7);
    }

    #[test]
    fn naive_and_tuned_expansions_agree() {
        let (n, nk) = (6, 4);
        let (state0, grid) = setup(n, nk);
        let config = DycoreConfig::default();
        let prog = build_dycore_program(n, nk, config);
        let mut results = Vec::new();
        for attrs in [ExpansionAttrs::naive(), ExpansionAttrs::tuned()] {
            let mut g = prog.sdfg.clone();
            g.expand_libraries(&attrs);
            let mut store = DataStore::for_sdfg(&g);
            load_state(&mut store, &prog.ids, &state0, &grid);
            let mut hooks = RemapHooks { ids: &prog.ids };
            Executor::serial().run(&g, &mut store, &prog.params, &mut hooks);
            let mut s = state0.clone();
            extract_state(&store, &prog.ids, &mut s);
            results.push(s);
        }
        let diff = results[0].max_abs_diff(&results[1]);
        assert!(diff < 1e-11, "expansion-mode diff {diff}");
    }

    #[test]
    fn kernel_counts_shrink_under_fusion() {
        let prog = build_dycore_program(8, 4, DycoreConfig::default());
        let mut naive = prog.sdfg.clone();
        naive.expand_libraries(&ExpansionAttrs::naive());
        let mut tuned = prog.sdfg.clone();
        tuned.expand_libraries(&ExpansionAttrs::tuned());
        assert!(
            tuned.kernel_count() < naive.kernel_count(),
            "{} !< {}",
            tuned.kernel_count(),
            naive.kernel_count()
        );
    }

    #[test]
    fn delnflux_extension_matches_baseline_too() {
        let (n, nk) = (8, 4);
        let (state0, grid) = setup(n, nk);
        let config = DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: Some(0.01),
        };
        let mut sb = state0.clone();
        let mut scratch = BaselineScratch::for_state(&sb);
        baseline_step(&mut sb, &grid, &mut scratch, &config, &mut |_| {});

        let prog = build_dycore_program(n, nk, config);
        assert_eq!(prog.params.len(), 4);
        let mut g = prog.sdfg.clone();
        g.expand_libraries(&ExpansionAttrs::tuned());
        let mut store = DataStore::for_sdfg(&g);
        load_state(&mut store, &prog.ids, &state0, &grid);
        let mut hooks = RemapHooks { ids: &prog.ids };
        Executor::serial().run(&g, &mut store, &prog.params, &mut hooks);
        let mut sd = state0.clone();
        extract_state(&store, &prog.ids, &mut sd);
        let diff = sb.max_abs_diff(&sd);
        assert!(diff < 1e-9, "delnflux-enabled diff {diff}");
        // And it actually does something: differs from the undamped run.
        let mut undamped = state0.clone();
        let mut scratch2 = BaselineScratch::for_state(&undamped);
        baseline_step(
            &mut undamped,
            &grid,
            &mut scratch2,
            &DycoreConfig {
                nord4_damp: None,
                ..config
            },
            &mut |_| {},
        );
        assert!(sb.q.max_abs_diff(&undamped.q) > 0.0);
    }

    #[test]
    fn dycore_runs_many_steps_stably() {
        let (n, nk) = (8, 6);
        let (mut state, grid) = setup(n, nk);
        let config = DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 2.0,
            dddmp: 0.05,
            nord4_damp: None,
        };
        let mut scratch = BaselineScratch::for_state(&state);
        let mass0 = state.air_mass(&grid.area);
        for _ in 0..5 {
            baseline_step(&mut state, &grid, &mut scratch, &config, &mut |_| {});
        }
        assert!(!state.has_nonfinite(), "stable integration");
        let mass1 = state.air_mass(&grid.area);
        // Mass changes only through (un-exchanged) boundaries here; it
        // must stay the right order of magnitude.
        assert!((mass1 / mass0 - 1.0).abs() < 0.2, "{mass0} -> {mass1}");
    }
}
