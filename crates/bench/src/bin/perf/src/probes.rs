//! Layer probes: each crate's public entry points, called and timed from
//! outside at the benchmark's main case. They run in the traced run only,
//! after the timed loop, and every probe is one span of the trace.
//!
//! Time values are medians over `sizes.probe_reps` repetitions unless
//! stated; counts are exact.

use crate::toolchain::{cold_build, tile_state, BuildCfg};
use crate::{stats, Case, Ctx};
use comm::halo::{rank_arrays, HaloUpdater};
use comm::{CornerPolicy, Partition};
use dataflow::exec::{DataStore, ExecHooks, Executor};
use dataflow::graph::ExpansionAttrs;
use dataflow::DataId;
use fv3::dyn_core::{build_dycore_program, load_state};
use fv3::profiling::RemapHooks;
use fv3::state::HALO;
use fv3core::{Checkpoint, DistributedDycore, RankSchedule};
use machine::pool::Pool;
use resilience::{Supervisor, SupervisorPolicy};
use std::hint::black_box;
use std::time::Instant;

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&mut v)
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times the host callbacks the executor hands back to the caller.
struct TimedHooks<'a> {
    inner: RemapHooks<'a>,
    seconds: f64,
}

impl ExecHooks for TimedHooks<'_> {
    fn halo_exchange(&mut self, fields: &[DataId], store: &mut DataStore) {
        let t = Instant::now();
        self.inner.halo_exchange(fields, store);
        self.seconds += t.elapsed().as_secs_f64();
    }
    fn callback(&mut self, name: &str, store: &mut DataStore) {
        let t = Instant::now();
        self.inner.callback(name, store);
        self.seconds += t.elapsed().as_secs_f64();
    }
}

/// Seconds of `ExecReport.kernels` whose stencil name (the part before
/// `#`) satisfies `is`.
fn kernel_seconds(rep: &dataflow::exec::ExecReport, is: impl Fn(&str) -> bool) -> f64 {
    rep.kernels
        .iter()
        .filter(|k| is(k.name.split('#').next().unwrap_or(&k.name)))
        .map(|k| k.wall_seconds)
        .sum()
}

/// `dataflow.*` and `fv3.*`: one tile's expanded substep graph through
/// `Executor::serial()`, one cold run then `reps` steady ones.
fn tile(ctx: &mut Ctx, case: Case, reps: usize) -> f64 {
    let ((state, grid), init_s) = secs(|| tile_state(case.n, case.nk));
    let prog = build_dycore_program(case.n, case.nk, case.dycore());
    let mut g = prog.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let mut store = DataStore::for_sdfg(&g);
    load_state(&mut store, &prog.ids, &state, &grid);
    let exec = Executor::serial();
    let mut hooks = TimedHooks {
        inner: RemapHooks { ids: &prog.ids },
        seconds: 0.0,
    };
    exec.run(&g, &mut store, &prog.params, &mut hooks);

    let mut cols: [Vec<f64>; 8] = Default::default();
    let (mut launches, mut misses, mut points, mut kernel_total) = (0u64, 0u64, 0u64, 0.0);
    let (mut lanes_vector, mut lanes_scalar) = (0u64, 0u64);
    for _ in 0..reps {
        hooks.seconds = 0.0;
        let (rep, wall) = secs(|| exec.run(&g, &mut store, &prog.params, &mut hooks));
        let row = [
            wall,
            rep.wall_seconds,
            wall - rep.wall_seconds - hooks.seconds,
            hooks.seconds,
            kernel_seconds(&rep, |s| s == "c_sw"),
            kernel_seconds(&rep, |s| s == "d_sw"),
            kernel_seconds(&rep, |s| s == "riem_solver_c"),
            kernel_seconds(&rep, |s| s == "fv_tp_2d" || s == "transport_update"),
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
        launches = rep.launches;
        misses += rep.cache_misses;
        points += rep.kernels.iter().map(|k| k.points).sum::<u64>();
        kernel_total += rep.wall_seconds;
        lanes_vector += rep.lanes_vector;
        lanes_scalar += rep.lanes_scalar;
    }
    let med = cols.map(|mut c| stats::median(&mut c));
    let names = [
        "dataflow.kernel_s_per_step",
        "dataflow.exec_overhead_s_per_step",
        "fv3.callback_s_per_step",
        "fv3.c_sw_s_per_step",
        "fv3.d_sw_s_per_step",
        "fv3.riem_solver_c_s_per_step",
        "fv3.tracer_s_per_step",
    ];
    for (name, v) in names.iter().zip(&med[1..]) {
        ctx.set(name, *v);
    }
    ctx.set("dataflow.launches_per_step", launches as f64);
    ctx.set("dataflow.points_per_s", points as f64 / kernel_total);
    ctx.set(
        "dataflow.lane_vector_share",
        lanes_vector as f64 / (lanes_vector + lanes_scalar).max(1) as f64,
    );
    ctx.set("dataflow.cache_misses_steady", misses as f64);
    ctx.set("fv3.init_s", init_s);
    med[0]
}

/// `comm.exchange_*`: the central (sequential-schedule) halo update.
fn exchange(ctx: &mut Ctx, case: Case, reps: usize) -> f64 {
    let part = Partition::new(case.n, 1);
    let updater = HaloUpdater::new(part.clone(), HALO, CornerPolicy::Fold);
    let fill = |seed: f64| {
        let mut arrays = rank_arrays(&part, case.nk, HALO);
        for (r, a) in arrays.iter_mut().enumerate() {
            for (i, v) in a.raw_mut().iter_mut().enumerate() {
                *v = seed + r as f64 + i as f64 * 1e-6;
            }
        }
        arrays
    };
    let (mut a, mut b) = (fill(1.0), fill(2.0));
    let scalar = median_of(reps, || {
        secs(|| black_box(updater.exchange_scalar(&mut a))).1
    });
    let vector = median_of(reps, || {
        secs(|| black_box(updater.exchange_vector(&mut a, &mut b))).1
    });
    ctx.set("comm.exchange_scalar_s", scalar);
    ctx.set("comm.exchange_vector_s", vector);
    vector + 4.0 * scalar
}

/// `machine.*`: rank-thread spawn cost and the host's copy bandwidth (the
/// fingerprint two result files must share to be comparable).
fn machine(ctx: &mut Ctx, reps: usize) {
    let pool = Pool::new(1);
    let scope = median_of(reps * 20, || {
        secs(|| {
            pool.rank_scope(6, |r| {
                black_box(r);
            })
        })
        .1
    });
    ctx.set("machine.rank_scope_s", scope);
    let elements = ctx.sizes.stream_elements;
    let copy = machine::stream::copy(elements, 5);
    eprintln!(
        "perf: stream copy arrays 2 x {:.1} MiB (L2/L3 sizes in the header)",
        (elements * 8) as f64 / 1048576.0
    );
    ctx.set("machine.stream_copy_gib_per_s", copy.gib_per_s());
}

/// `fv3core.checkpoint_*` / `restore_s`: the warm-acquire path of the
/// engine (capture a template, rewind an instance through it) plus the
/// wire codec.
fn checkpoint(ctx: &mut Ctx, case: Case, reps: usize) {
    let mut d = DistributedDycore::new(case.driver(), &ExpansionAttrs::tuned());
    let mut cols: [Vec<f64>; 4] = Default::default();
    let mut bytes_len = 0;
    for _ in 0..reps {
        let (ck, capture) = secs(|| Checkpoint::capture(&d));
        let (bytes, encode) = secs(|| ck.to_bytes());
        let (back, decode) = secs(|| Checkpoint::from_bytes(&bytes).expect("checkpoint decodes"));
        // A decoded checkpoint has no basis, so every rank is rewritten:
        // the same work as rewinding a warm instance to its template.
        let (restored, restore) = secs(|| d.restore(&back));
        assert_eq!(restored, d.partition.ranks());
        bytes_len = bytes.len();
        for (col, v) in cols.iter_mut().zip([capture, encode, decode, restore]) {
            col.push(v);
        }
    }
    let med = cols.map(|mut c| stats::median(&mut c));
    ctx.set("fv3core.checkpoint_capture_s", med[0]);
    ctx.set("fv3core.checkpoint_encode_s", med[1]);
    ctx.set("fv3core.checkpoint_decode_s", med[2]);
    ctx.set("fv3core.restore_s", med[3]);
    ctx.set("fv3core.checkpoint_bytes", bytes_len as f64);
}

/// `resilience.*`: what default supervision (in-memory checkpoint every
/// step, health sampling) adds to a bare step.
fn supervision(ctx: &mut Ctx, reps: usize) {
    let case = ctx.sizes.case;
    let make = || {
        let mut d = DistributedDycore::new(case.driver(), &ExpansionAttrs::tuned());
        d.set_rank_schedule(RankSchedule::Sequential);
        d.set_tuned(false);
        d.step();
        d
    };
    let mut bare = make();
    let steps: Vec<f64> = (0..3 * reps).map(|_| secs(|| bare.step()).1).collect();
    let bare_s = stats::bbm(&steps, reps).expect("three whole blocks").value;
    let mut supervised = make();
    let mut runs: Vec<f64> = (0..3)
        .map(|_| {
            let mut sup = Supervisor::new(SupervisorPolicy::default());
            let (report, s) = secs(|| sup.run(&mut supervised, reps as u64));
            assert!(
                report.is_ok_and(|r| r.clean()),
                "supervised probe run is clean"
            );
            s / reps as f64
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    ctx.set(
        "resilience.supervised_overhead_s_per_step",
        runs[0] - bare_s,
    );
}

/// `stencil.*`, `fv3core.pipeline_*`, `dataflow.{expand,compile}_*`,
/// `tuning.*`: the build phases of the workload's own case.
fn build_phases(ctx: &mut Ctx, case: Case, reps: usize) {
    let cfg = BuildCfg::of_case(case);
    let mut cols: [Vec<f64>; 5] = Default::default();
    let mut counts = None;
    for _ in 0..reps {
        let build = cold_build(&cfg, &mut ctx.rec, true);
        for (col, v) in cols.iter_mut().zip(build.phase_s) {
            col.push(v);
        }
        counts = Some(build.counts);
    }
    let med = cols.map(|mut c| stats::median(&mut c));
    let counts = counts.expect("at least one probe build");
    ctx.set("stencil.program_build_s", med[0]);
    ctx.set("fv3core.pipeline_s", med[1]);
    ctx.set("dataflow.expand_s", med[2]);
    ctx.set("tuning.autotune_s", med[3]);
    ctx.set("dataflow.compile_s", med[4]);
    ctx.set("stencil.states", counts.states as f64);
    ctx.set(
        "fv3core.pipeline_kernels_after",
        counts.pipeline_kernels_after as f64,
    );
    ctx.set("dataflow.kernels_expanded", counts.kernels_expanded as f64);
    ctx.set("tuning.kernels_after", counts.tuned_kernels_after as f64);
    ctx.set("dataflow.kernels_compiled", counts.kernels_compiled as f64);
}

/// Open a span, run one probe, close the span.
fn probe<T>(ctx: &mut Ctx, name: &str, f: impl FnOnce(&mut Ctx) -> T) -> T {
    let span = ctx.rec.open(name);
    let out = f(ctx);
    ctx.rec.close(span);
    out
}

/// `fv3core.unattributed_s_per_step`: what a sequential-schedule step
/// costs beyond six tile programs and one central exchange (the u/v
/// vector pair plus four scalars) — load/extract copies, state clones,
/// driver bookkeeping. Measured right after the two probes it subtracts,
/// so all three share a host regime; reported, never dropped.
fn step_ledger(ctx: &mut Ctx, case: Case, reps: usize, tile_step_s: f64, exchange_s: f64) {
    let mut d = crate::dycore::fresh(case, RankSchedule::Sequential, ctx.args.seed);
    d.step();
    let step_s = median_of(reps, || secs(|| d.step()).1);
    ctx.set(
        "fv3core.unattributed_s_per_step",
        step_s - 6.0 * tile_step_s - exchange_s,
    );
}

pub fn run_all(ctx: &mut Ctx) {
    let case = ctx.sizes.case;
    let reps = ctx.sizes.probe_reps;
    eprintln!("perf: probes at {} x{reps}", case.label());
    let tile_step_s = probe(ctx, "probe.tile", |c| tile(c, case, 2 * reps));
    let exchange_s = probe(ctx, "probe.exchange", |c| exchange(c, case, 5 * reps));
    probe(ctx, "probe.step", |c| {
        step_ledger(c, case, 2 * reps, tile_step_s, exchange_s)
    });
    probe(ctx, "probe.machine", |c| machine(c, reps));
    probe(ctx, "probe.checkpoint", |c| checkpoint(c, case, reps));
    probe(ctx, "probe.supervision", |c| supervision(c, reps));
    probe(ctx, "probe.build", |c| build_phases(c, case, reps));
}
