//! ISSUE 7 satellite 3: proptest soak over request interleavings.
//!
//! For every combination of arrival order (rotation of a mixed batch),
//! per-request step budget (1–4), and slot count (1–4), the engine must:
//!
//! * complete every submitted request within a hard deadline — no
//!   deadlock, no lost request (every id waited on yields an outcome);
//! * keep the shared kernel cache monotone: after the warmup request
//!   pays the case's compile bill, `EngineStats::cache_hits` only grows
//!   and `cache_misses` never moves again;
//! * run every request clean and for exactly its budget.
//!
//! Regression parameter sets found by the fuzzer are pinned as named
//! tests at the bottom, following `fv3core/tests/parallel_fuzz.rs`.

use engine::{EngineConfig, ForecastEngine, ForecastRequest, Scenario};
use fv3::dyn_core::DycoreConfig;
use fv3core::DriverConfig;
use proptest::prelude::*;
use std::time::Duration;

/// Per-request completion deadline. Generous: a debug-build c8L3 step is
/// well under a second; hitting this means a hang, not a slow machine.
const DEADLINE: Duration = Duration::from_secs(120);

fn small_request(steps: u64) -> ForecastRequest {
    let config = DriverConfig::six_rank(
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
    ForecastRequest::new(Scenario::BaroclinicWave, config, steps)
}

/// Drive one interleaving: `budgets` submitted in rotated arrival order
/// against `slots` run slots, after one warmup request compiles the
/// case.
fn check_case(slots: usize, budgets: &[u64], rotate: usize) {
    let label = format!("slots={slots} budgets={budgets:?} rotate={rotate}");
    let engine = ForecastEngine::start(EngineConfig {
        slots,
        ..EngineConfig::default()
    });

    // Warmup: the one request allowed to compile.
    let warm = engine.submit(small_request(1).with_label("warmup"));
    let warm_out = engine
        .wait_timeout(warm, DEADLINE)
        .unwrap_or_else(|| panic!("{label}: warmup hung"));
    let warm_rep = warm_out.result.expect("warmup succeeds");
    assert!(warm_rep.cache_misses > 0, "{label}: warmup compiles the case");
    let base = engine.stats();

    // The soak batch, in rotated arrival order.
    let n = budgets.len();
    let order: Vec<usize> = (0..n).map(|i| (i + rotate) % n).collect();
    let ids: Vec<_> = order
        .iter()
        .map(|&i| {
            engine.submit(
                small_request(budgets[i]).with_label(&format!("req-{i}x{}", budgets[i])),
            )
        })
        .collect();

    // Every id must resolve: a None here is a deadlock or a lost
    // request, the two failure modes this suite exists to catch.
    let mut hits_seen = base.cache_hits;
    for (&i, id) in order.iter().zip(&ids) {
        let out = engine
            .wait_timeout(*id, DEADLINE)
            .unwrap_or_else(|| panic!("{label}: request {id} (budget {}) hung or lost", budgets[i]));
        assert_eq!(out.id, *id, "{label}: outcome routed to the wrong waiter");
        let rep = out
            .result
            .expect(&format!("{label}: request {id}"));
        assert_eq!(rep.steps, budgets[i], "{label}: request {id} ran a wrong budget");
        assert!(rep.run.clean(), "{label}: request {id} needed recovery");
        assert_eq!(rep.cache_misses, 0, "{label}: request {id} recompiled a warm case");
        assert!(rep.cache_hits > 0, "{label}: request {id} bypassed the shared cache");
        let now = engine.stats().cache_hits;
        assert!(now >= hits_seen, "{label}: cache_hits went backwards");
        hits_seen = now;
    }

    let stats = engine.shutdown();
    assert_eq!(
        stats.completed as usize,
        n + 1,
        "{label}: completed != submitted (lost request)"
    );
    assert_eq!(stats.failed, 0, "{label}: no request may fail");
    assert_eq!(
        stats.cache_misses, base.cache_misses,
        "{label}: cache_misses moved after the first compile"
    );
    assert!(
        stats.cache_hits > base.cache_hits,
        "{label}: the soak batch never hit the shared cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn soak_interleavings_complete_without_loss(
        slots in 1usize..5,
        budgets in prop::collection::vec(1u64..5, 3..7),
        rotate in 0usize..8,
    ) {
        check_case(slots, &budgets, rotate);
    }
}

// Pinned regression parameter sets. Each earned its place by failing
// during development; keep them even when the fuzzer goes quiet.

/// Single slot, descending budgets: maximal queueing behind one slot.
#[test]
fn pinned_single_slot_descending_budgets() {
    check_case(1, &[4, 3, 2, 1], 0);
}

/// More slots than requests: slots must idle and exit cleanly, not spin.
#[test]
fn pinned_more_slots_than_requests() {
    check_case(4, &[1, 1, 1], 2);
}

/// Rotation past the batch length: arrival order wraps.
#[test]
fn pinned_rotation_wraps() {
    check_case(2, &[2, 1, 4, 1, 3], 7);
}
