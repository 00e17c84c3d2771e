//! Supervised-run recovery under injected faults (ISSUE 5 tentpole).
//!
//! Each test arms its plan in the context of the one dycore it faults;
//! the clean comparison runs carry no plan at all.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use fv3core::RankSchedule;
use resilience::{FailureKind, FaultPlan, Supervisor, SupervisorPolicy};

fn dycore() -> DistributedDycore {
    let cfg = DriverConfig::six_rank(
        8,
        3,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    DistributedDycore::new(cfg, &ExpansionAttrs::tuned())
}

/// A dycore attached to a run whose only content is `plan`, armed.
fn faulted(plan: &str) -> DistributedDycore {
    let mut d = dycore();
    d.set_run(machine::RunContext {
        faults: FaultPlan::parse(plan).unwrap().arm(),
        ..Default::default()
    });
    d
}

fn assert_bit_identical(a: &DistributedDycore, b: &DistributedDycore) {
    assert_eq!(a.step_index(), b.step_index());
    for (r, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            let (va, vb) = (fa.export_logical(), fb.export_logical());
            for (n, (x, y)) in va.iter().zip(&vb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn nan_blowup_recovers_by_rollback_and_matches_clean_run() {
    let mut d = faulted("seed=1;nan@step=1,field=pt");
    let faults = d.run_context().faults.clone();
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 3).expect("supervised run recovers");

    assert_eq!(d.step_index(), 3);
    assert_eq!(report.retries, 1, "one rollback should clear the NaN");
    assert_eq!(report.restores, 1);
    assert_eq!(report.faults_injected, 1);
    assert_eq!(report.events.len(), 1);
    let ev = &report.events[0];
    assert_eq!(ev.kind, FailureKind::Blowup);
    assert!(ev.detail.contains("pt"), "detail names the field: {}", ev.detail);
    assert!(!ev.backed_off, "first retry is a pure rollback");
    let sites: Vec<String> = faults.log().into_iter().map(|f| f.site).collect();
    assert_eq!(sites, ["driver.poison_field"]);

    // The recovered run is bit-identical to one that never faulted.
    let mut clean = dycore();
    for _ in 0..3 {
        clean.step();
    }
    assert_bit_identical(&d, &clean);
}

#[test]
fn worker_panic_recovers_and_pool_survives() {
    // The kernel-panic site fires on whichever thread runs the kernel:
    // the calling thread for the team of one, a rank thread for the
    // parallel schedule. Either way the step unwinds once the team has
    // joined, and the rollback erases the failed attempt.
    for schedule in [RankSchedule::Sequential, RankSchedule::Parallel] {
        let mut d = faulted("seed=2;panic");
        d.set_rank_schedule(schedule);
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let report = sup.run(&mut d, 2).expect("panic recovered by rollback");

        assert_eq!(d.step_index(), 2);
        assert!(report.retries >= 1, "{schedule:?}");
        assert_eq!(report.events[0].kind, FailureKind::Panic);
        assert_eq!(report.faults_injected, 1);

        // Bit-identity with a clean run: the schedule changes wall time,
        // not bits.
        let mut clean = dycore();
        for _ in 0..2 {
            clean.step();
        }
        assert_bit_identical(&d, &clean);
    }
}

#[test]
fn retries_exhausted_yields_blowup_report_with_span_stack() {
    // A repeatable poison re-fires after every rollback; the supervisor
    // must give up with the full post-mortem.
    let mut d = faulted("seed=5;nan@repeat=1,field=u");
    let policy = SupervisorPolicy {
        max_retries: 2,
        ..SupervisorPolicy::default()
    };
    let mut sup = Supervisor::new(policy);
    let err = sup.run(&mut d, 2).expect_err("unrecoverable fault must fail");
    assert_eq!(err.kind, FailureKind::Blowup);
    assert_eq!(err.events.len(), 2, "both retries recorded");
    // The poison goes into `u` but propagates through transport before
    // the health check runs; the report names whichever prognostic the
    // scan hit first, with the exact cell and the enclosing span stack.
    let blowup = err.blowup.as_ref().expect("blowup report attached");
    assert!(
        fv3::state::PROGNOSTICS.contains(&blowup.field.as_str()),
        "unknown field {}",
        blowup.field
    );
    assert!(!blowup.value.is_finite());
    let text = err.to_string();
    assert!(text.contains("recovery attempt"), "{text}");
    assert!(text.contains(&blowup.field), "{text}");
}

#[test]
fn checkpointing_disabled_fails_fast_without_rollback_basis() {
    let mut d = faulted("seed=6;nan");
    let policy = SupervisorPolicy {
        checkpoint_every: 0,
        ..SupervisorPolicy::default()
    };
    let mut sup = Supervisor::new(policy);
    let err = sup.run(&mut d, 2).expect_err("no basis, no recovery");
    assert!(err.detail.contains("no rollback basis"), "{}", err.detail);
    assert!(err.events.is_empty());
}

/// A kernel panics `call` fault-site calls into a run, i.e. some way
/// into one rank's kernels: the team runs that rank on its own
/// prognostic arrays, lent to the scratch store.
fn panics_mid_rank(call: u64) -> DistributedDycore {
    let mut d = faulted(&format!("seed=7;panic@call={call}"));
    d.set_rank_schedule(RankSchedule::Sequential);
    d
}

/// Site calls into the step at which the panic lands: past the first
/// ranks' kernels, before the last's. The site fires once per kernel
/// launch, and a rank-substep of this case launches 25 kernels, so call
/// 65 is the sixteenth kernel of rank 2.
const MID_STEP_CALL: u64 = 65;

#[test]
fn a_panic_mid_rank_hands_every_lent_array_back() {
    let mut clean = dycore();
    let layout = clean.states[0].layout();
    clean.step();

    let mut d = panics_mid_rank(MID_STEP_CALL);
    let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.step()));
    assert!(stepped.is_err(), "the injected panic must escape step()");
    assert_eq!(d.run_context().faults.fired_count(machine::faults::SITE_WORKER_PANIC), 1);
    // The loan's guard ran on the unwind: every field of every rank is a
    // full-size array of the state's own layout again, not a spare of the
    // scratch store (same layout today, but asserted rather than assumed).
    for (r, s) in d.states.iter().enumerate() {
        for (name, f) in s.fields() {
            assert_eq!(f.layout(), &layout, "rank {r} field {name}");
            assert_eq!(f.raw().len(), layout.len, "rank {r} field {name}");
        }
    }
    // Mid-rank: the victim hands back a partly stepped state; the ranks
    // before it finished their substep in place, and so did the ones
    // after it (a failed rank fails alone).
    let same = |a: &fv3::state::DycoreState, b: &fv3::state::DycoreState| {
        let pairs = a.fields().into_iter().zip(b.fields());
        pairs.into_iter().all(|((_, x), (_, y))| x.raw() == y.raw())
    };
    let done: Vec<bool> = d.states.iter().zip(&clean.states).map(|(a, b)| same(a, b)).collect();
    assert!(
        done[0] && done[5] && done.iter().filter(|d| !**d).count() == 1,
        "panic did not land mid-rank: {done:?}"
    );
}

#[test]
fn a_panic_mid_rank_rolls_back_all_six_ranks_bit_identically() {
    let mut d = panics_mid_rank(MID_STEP_CALL);
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut d, 2).expect("panic recovered by rollback");
    assert_eq!(d.step_index(), 2);
    assert_eq!((report.retries, report.restores), (1, 1));
    assert_eq!(report.events[0].kind, FailureKind::Panic);
    // Every rank got past its receives, so the partly stepped victim —
    // and everyone else — is rewritten.
    assert_eq!(report.ranks_restored, 6);
    // One store per step attempt (two steps and the one that unwound),
    // none kept: lending builds nothing of its own.
    assert_eq!((d.scratch_stores_built(), d.live_scratch_stores()), (3, 0));

    let mut clean = dycore();
    for _ in 0..2 {
        clean.step();
    }
    assert_bit_identical(&d, &clean);
}
