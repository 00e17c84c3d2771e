//! `toolchain_cold`: the compiler face of the system (the paper's Fig. 7
//! turnaround). One cold build is program construction, the Table III
//! optimization pipeline, library expansion plus model-driven autotuning,
//! and kernel compilation of the tuned graph — `dataflow` and `tuning`
//! transforming and compiling rather than executing. Work a later change
//! moves from run time into build time shows here and in `setup_s`.
//!
//! Only deterministic, model-driven paths are built: the measured tuning
//! veto is excluded because its commit set varies from build to build.

use crate::host::{peak_rss_mib, state_hash, Rng};
use crate::trace::Recorder;
use crate::{Case, Ctx, Outcome};
use comm::CubeGeometry;
use dataflow::exec::{compile_kernel, DataStore, Executor};
use dataflow::graph::{ExpansionAttrs, Sdfg};
use fv3::dyn_core::{build_dycore_program, extract_state, load_state, DycoreConfig, DycoreProgram};
use fv3::grid::Grid;
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::profiling::RemapHooks;
use fv3::state::{DycoreState, HALO};
use fv3core::experiments::p100;
use fv3core::parallel::{tune_model, TUNE_M_OTF};
use fv3core::pipeline::{run_pipeline, PipelineStage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One build's inputs. Build cost does not depend on `n`/`nk`; the
/// structural part is `(n_split, k_split, nord4)`.
#[derive(Debug, Clone, Copy)]
pub struct BuildCfg {
    pub n: usize,
    pub nk: usize,
    pub dycore: DycoreConfig,
}

impl BuildCfg {
    pub fn of_case(case: Case) -> Self {
        BuildCfg {
            n: case.n,
            nk: case.nk,
            dycore: case.dycore(),
        }
    }

    fn structure(&self) -> (u32, u32, bool) {
        (
            self.dycore.n_split,
            self.dycore.k_split,
            self.dycore.nord4_damp.is_some(),
        )
    }
}

/// Exact graph sizes after each phase; a pure function of the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildCounts {
    pub states: usize,
    pub pipeline_kernels_after: usize,
    pub kernels_expanded: usize,
    pub tuned_kernels_after: usize,
    pub kernels_compiled: usize,
}

/// Phase names, in build order; also the span names of a traced build.
pub const PHASES: [&str; 5] = ["program_build", "pipeline", "expand", "autotune", "compile"];

pub struct Build {
    pub counts: BuildCounts,
    /// Wall seconds per phase, in [`PHASES`] order.
    pub phase_s: [f64; 5],
    pub program: DycoreProgram,
    /// Expanded + autotuned graph.
    pub tuned: Sdfg,
}

/// Run build phase `idx`, timed, and as a span when `on`.
fn phase<T>(
    rec: &mut Recorder,
    on: bool,
    idx: usize,
    phase_s: &mut [f64; 5],
    f: impl FnOnce() -> T,
) -> T {
    rec.span(on, PHASES[idx], || {
        let t = Instant::now();
        let out = f();
        phase_s[idx] = t.elapsed().as_secs_f64();
        out
    })
}

/// One cold build, every phase timed (and recorded as a span when `on`).
pub fn cold_build(cfg: &BuildCfg, rec: &mut Recorder, on: bool) -> Build {
    let mut phase_s = [0.0; 5];
    let program = phase(rec, on, 0, &mut phase_s, || {
        build_dycore_program(cfg.n, cfg.nk, cfg.dycore)
    });
    let pipeline_kernels_after = phase(rec, on, 1, &mut phase_s, || {
        let report = run_pipeline(
            &program.sdfg,
            &p100(),
            &|_| 0.0,
            PipelineStage::TransferTuning,
        );
        black_box(&report.optimized).kernel_count()
    });
    let mut tuned = phase(rec, on, 2, &mut phase_s, || {
        let mut g = program.sdfg.clone();
        g.expand_libraries(&ExpansionAttrs::tuned());
        g
    });
    let kernels_expanded = tuned.kernel_count();
    phase(rec, on, 3, &mut phase_s, || {
        black_box(tuning::autotune(&mut tuned, &tune_model(), TUNE_M_OTF));
    });
    let kernels_compiled = phase(rec, on, 4, &mut phase_s, || {
        let mut compiled = 0;
        for state in &tuned.states {
            for kernel in state.kernels() {
                black_box(compile_kernel(kernel));
                compiled += 1;
            }
        }
        compiled
    });
    let counts = BuildCounts {
        states: program.sdfg.states.len(),
        pipeline_kernels_after,
        kernels_expanded,
        tuned_kernels_after: tuned.kernel_count(),
        kernels_compiled,
    };
    Build {
        counts,
        phase_s,
        program,
        tuned,
    }
}

/// One tile's initialized baroclinic state and grid.
pub fn tile_state(n: usize, nk: usize) -> (DycoreState, Grid) {
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    (state, grid)
}

/// Run `graph` once over a fresh tile state and hash the result.
fn run_hash(graph: &Sdfg, program: &DycoreProgram, exec: &Executor, n: usize, nk: usize) -> u64 {
    let (mut state, grid) = tile_state(n, nk);
    let mut store = DataStore::for_sdfg(graph);
    load_state(&mut store, &program.ids, &state, &grid);
    let mut hooks = RemapHooks { ids: &program.ids };
    exec.run(graph, &mut store, &program.params, &mut hooks);
    extract_state(&store, &program.ids, &mut state);
    assert!(
        !state.has_nonfinite(),
        "tuned build produced non-finite state"
    );
    state_hash(std::slice::from_ref(&state))
}

/// The build's own correctness: its autotuned graph on the lane VM must
/// be bit-identical to the untuned expansion on the scalar reference VM.
fn tuned_matches_untuned(structure: &BuildCfg, case: Case, rec: &mut Recorder) -> bool {
    let cfg = BuildCfg {
        n: case.n,
        nk: case.nk,
        dycore: DycoreConfig {
            dt: case.dt,
            ..structure.dycore
        },
    };
    let build = cold_build(&cfg, rec, false);
    let mut untuned = build.program.sdfg.clone();
    untuned.expand_libraries(&ExpansionAttrs::tuned());
    let a = run_hash(
        &build.tuned,
        &build.program,
        &Executor::serial(),
        cfg.n,
        cfg.nk,
    );
    let b = run_hash(
        &untuned,
        &build.program,
        &Executor::serial_scalar(),
        cfg.n,
        cfg.nk,
    );
    a == b
}

/// One seeded build config.
fn draw(rng: &mut Rng, ctx: &Ctx) -> BuildCfg {
    BuildCfg {
        n: rng.pick(&ctx.sizes.build_n),
        nk: rng.pick(&ctx.sizes.build_nk),
        dycore: DycoreConfig {
            n_split: 1 + rng.below(5) as u32,
            k_split: 1 + rng.below(2) as u32,
            dt: 2.0,
            dddmp: 0.02,
            nord4_damp: rng.pick(&[None, Some(0.01)]),
        },
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut rng = Rng::new(ctx.args.seed);
    // A cyclic pool of seeded configs; the loop length is set by time.
    let pool: Vec<BuildCfg> = (0..256).map(|_| draw(&mut rng, ctx)).collect();
    let block = ctx.sizes.build_block;

    // Every structure the seed drew is verified once, outside the timing.
    let mut structures: Vec<BuildCfg> = Vec::new();
    for c in &pool {
        if !structures.iter().any(|s| s.structure() == c.structure()) {
            structures.push(*c);
        }
    }
    let verify_case = ctx.sizes.build_verify;
    let t = Instant::now();
    let span = ctx.rec.open("reference");
    let mut mismatches = 0u64;
    for s in &structures {
        if !tuned_matches_untuned(s, verify_case, &mut ctx.rec) {
            eprintln!(
                "perf: tuned graph differs from untuned for {:?}",
                s.structure()
            );
            mismatches += 1;
        }
    }
    ctx.rec.close(span);
    let reference_s = t.elapsed().as_secs_f64();

    let mut seen: BTreeMap<(u32, u32, bool), BuildCounts> = BTreeMap::new();
    let mut count_changes = 0u64;
    let mut builds = 0u64;
    // Set-up, timed to the first useful result: one cold build of the
    // main case, the same whatever the seed drew.
    let first = BuildCfg::of_case(ctx.sizes.case);
    let mut scratch = Recorder::new(false);
    let (samples, setup_s) = ctx.timed_loop(block).run(
        || {
            black_box(cold_build(&first, &mut scratch, false).counts);
        },
        |rec, i, traced| {
            let cfg = &pool[i % pool.len()];
            let span = if traced { rec.open("build") } else { None };
            let t = Instant::now();
            let build = cold_build(cfg, rec, traced);
            let dt = t.elapsed().as_secs_f64();
            rec.close(span);
            builds += 1;
            let earlier = *seen.entry(cfg.structure()).or_insert(build.counts);
            if earlier != build.counts {
                count_changes += 1;
            }
            black_box(build);
            dt
        },
    );

    if count_changes != 0 {
        eprintln!("perf: {count_changes} rebuilds changed their kernel counts");
    }
    ctx.set("bench.reference_s", reference_s);
    ctx.set("validate.state_hash_mismatches", mismatches as f64);
    eprintln!(
        "perf: toolchain_cold builds={builds} structures={} verified={}",
        seen.len(),
        structures.len()
    );
    Outcome {
        samples,
        block,
        setup_s,
        peak_rss_mib: peak_rss_mib(),
        attempted: builds,
        failed: mismatches + count_changes,
    }
}
