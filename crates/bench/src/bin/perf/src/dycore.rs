//! `dycore_seq` / `dycore_par`: the six-rank baroclinic wave stepped under
//! one rank schedule, untuned, with no worker pool.
//!
//! Sequential is the plain single-threaded baseline: almost all of a step
//! is `dataflow` kernel execution of the `fv3` modules and the halo
//! exchange is a central copy. Parallel runs the same problem on six rank
//! threads with mailboxes, the interior/rind split and overlap, so the
//! two moving apart isolates `comm`, `machine::Pool::rank_scope` and
//! `fv3core::parallel`.

use crate::host::{peak_rss_mib, state_hash, Rng};
use crate::{stats, Case, Ctx, Outcome};
use dataflow::graph::ExpansionAttrs;
use dataflow::{DataId, DataStore};
use fv3core::{DistributedDycore, RankSchedule};
use std::hint::black_box;
use std::time::Instant;

/// Bound on the relative drift of global air mass per step. The drift is
/// deterministic and identical under both schedules (1.6e-8 per step at
/// c24L8, 8.5e-8 at the c8L3 smoke size, from the simplified cube-corner
/// treatment); an order of magnitude more is a numerics break.
const MASS_DRIFT_PER_STEP: f64 = 1e-6;

/// A dycore with every knob pinned and its initial potential temperature
/// perturbed by the seed (relative amplitude 5e-5), so the seed decides
/// the inputs and two schedules given one seed must agree bit for bit.
pub fn fresh(case: Case, schedule: RankSchedule, seed: u64) -> DistributedDycore {
    let mut d = DistributedDycore::new(case.driver(), &ExpansionAttrs::tuned());
    d.set_rank_schedule(schedule);
    d.set_tuned(false);
    d.set_pool(None);
    let mut rng = Rng::new(seed);
    let (n, nk) = (case.n as i64, case.nk as i64);
    for s in &mut d.states {
        for k in 0..nk {
            for j in 0..n {
                for i in 0..n {
                    let v = s.pt.get(i, j, k);
                    s.pt.set(i, j, k, v * (1.0 + 1e-4 * (rng.unit() - 0.5)));
                }
            }
        }
    }
    d
}

fn other(schedule: RankSchedule) -> RankSchedule {
    match schedule {
        RankSchedule::Sequential => RankSchedule::Parallel,
        RankSchedule::Parallel => RankSchedule::Sequential,
    }
}

/// Bytes one rank's substep program keeps live (every container of the
/// expanded graph).
fn rank_working_set_bytes(d: &DistributedDycore) -> usize {
    let store = DataStore::for_sdfg(d.program_graph());
    (0..store.len())
        .map(|i| store.get(DataId(i)).layout().len * 8)
        .sum()
}

pub fn run(ctx: &mut Ctx, schedule: RankSchedule) -> Outcome {
    let case = ctx.sizes.case;
    let seed = ctx.args.seed;
    let verify_steps = ctx.sizes.verify_steps;
    let block = ctx.sizes.step_block;

    let t = Instant::now();
    let mut d = ctx
        .rec
        .span(true, "construct", || fresh(case, schedule, seed));
    let construct_s = t.elapsed().as_secs_f64();
    let ranks = d.partition.ranks();
    let ws = rank_working_set_bytes(&d);
    eprintln!(
        "perf: {} {schedule:?} ranks={ranks} threads={} working_set_per_rank={:.2}MiB total={:.2}MiB",
        case.label(),
        if schedule == RankSchedule::Parallel { ranks } else { 1 },
        ws as f64 / 1048576.0,
        (ws * ranks) as f64 / 1048576.0,
    );
    let mass0 = d.global_air_mass();
    let t = Instant::now();
    ctx.rec.span(true, "first_step", || d.step());
    let first_step_s = t.elapsed().as_secs_f64();
    let misses_after_first = d.exec_cache_counters().1;

    let mut steps_done = 1usize;
    let mut verify_hash = None;
    // Set-up, timed to the first useful result: construction plus the
    // first step, which carries the whole lazy compile bill.
    let (samples, setup_s) = ctx.timed_loop(block).run(
        || {
            let mut d = fresh(case, schedule, seed);
            d.step();
            black_box(&d);
        },
        |rec, _, traced| {
            let dt = rec.span(traced, "step", || {
                let t = Instant::now();
                d.step();
                t.elapsed().as_secs_f64()
            });
            steps_done += 1;
            if steps_done == verify_steps {
                verify_hash = Some(state_hash(&d.states));
            }
            dt
        },
    );
    // The workload's memory high-water mark is read here, before the
    // reference below runs the other schedule in this process: six rank
    // threads and their allocator arenas would otherwise set the peak of
    // the single-threaded `dycore_seq`, 10 % apart from run to run.
    let peak_rss_mib = peak_rss_mib();

    // Reference: the same inputs under the other schedule. The repo's
    // 0-ULP contract says the states must be bit-identical.
    let (ref_hash, reference_s) = ctx.rec.span(true, "reference", || {
        let t = Instant::now();
        let mut r = fresh(case, other(schedule), seed);
        for _ in 0..verify_steps {
            r.step();
        }
        (state_hash(&r.states), t.elapsed().as_secs_f64())
    });
    let verify_hash = verify_hash.expect("the timed loop covers the verified prefix");
    let mismatches = u64::from(verify_hash != ref_hash);

    let drift = d.global_air_mass() / mass0 - 1.0;
    let steady_misses = d.exec_cache_counters().1 - misses_after_first;
    let mut failed = mismatches;
    if d.any_nonfinite() {
        eprintln!("perf: non-finite state after {steps_done} steps");
        failed += 1;
    }
    if drift.is_nan() || drift.abs() > MASS_DRIFT_PER_STEP * steps_done as f64 {
        eprintln!("perf: mass drift {drift:e} after {steps_done} steps");
        failed += 1;
    }
    if steady_misses != 0 {
        eprintln!("perf: {steady_misses} kernel recompiles after the first step");
        failed += 1;
    }

    let steps = steps_done as f64;
    let step_s = stats::bbm(&samples.plain, block)
        .expect("whole block")
        .value;
    let (bytes, messages) = d.halo_traffic_posted();
    let overlap = d.overlap_stats();
    let rank_steps = ranks as f64 * steps;
    ctx.set("bench.reference_s", reference_s);
    ctx.set("validate.state_hash_mismatches", mismatches as f64);
    ctx.set("validate.mass_drift_rel", drift.abs());
    ctx.set("fv3core.construct_s", construct_s);
    ctx.set("fv3core.first_step_s", first_step_s);
    ctx.set("fv3core.step_s_p50", stats::pct(&samples.plain, 50.0));
    ctx.set("fv3core.step_s_p90", stats::pct(&samples.plain, 90.0));
    ctx.set("fv3core.steps_per_s", 1.0 / step_s);
    ctx.set(
        "fv3core.cells_per_s",
        (6 * case.n * case.n * case.nk) as f64 / step_s,
    );
    ctx.set("fv3core.cache_misses_steady", steady_misses as f64);
    ctx.set(
        "fv3core.interior_s_per_step",
        overlap.interior_seconds / rank_steps,
    );
    ctx.set("fv3core.overlap_efficiency", overlap.efficiency());
    ctx.set("comm.halo_bytes_per_step", bytes as f64 / steps);
    ctx.set("comm.halo_messages_per_step", messages as f64 / steps);
    ctx.set(
        "comm.halo_wait_s_per_step",
        overlap.halo_wait_seconds / rank_steps,
    );

    Outcome {
        samples,
        block,
        setup_s,
        peak_rss_mib,
        attempted: steps_done as u64,
        failed,
    }
}
