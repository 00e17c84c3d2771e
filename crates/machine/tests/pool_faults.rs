//! Fault-injection tests for the worker pool: injected panics must
//! propagate without poisoning the team, and injected worker deaths must
//! trigger a team rebuild on the next region instead of a hang.
//!
//! Each test arms its own plan and submits its regions through it
//! (`for_each_chunk_in`); the tests run concurrently and share nothing.

use machine::faults::{FaultAction, FaultSpec, Faults, SITE_WORKER_DEATH, SITE_WORKER_PANIC};
use machine::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn checked_sum(pool: &Pool, faults: &Faults, len: usize) {
    let total = AtomicU64::new(0);
    pool.for_each_chunk_in(faults, len, |r| {
        total.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
    });
    assert_eq!(
        total.load(Ordering::Relaxed),
        (len as u64 - 1) * len as u64 / 2
    );
}

/// The dying worker's drop guard runs after the region completes; give
/// it a moment before asserting the team size.
fn wait_alive(pool: &Pool, want: usize) {
    let t0 = Instant::now();
    while pool.alive_workers() != want {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "alive_workers stuck at {} (want {want})",
            pool.alive_workers()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn injected_worker_panic_propagates_and_team_survives() {
    let pool = Pool::new(4);
    let faults = Faults::arm(
        1,
        vec![FaultSpec::new(SITE_WORKER_PANIC, FaultAction::PanicWorker)],
    );
    // Another run's region on the same team never meets this plan.
    pool.for_each_chunk_in(&Faults::inert(), 1000, |_| {});
    assert_eq!(faults.fired_count(SITE_WORKER_PANIC), 0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.for_each_chunk_in(&faults, 1000, |_| {});
    }));
    assert!(caught.is_err(), "injected worker panic must propagate");
    assert_eq!(faults.fired_count(SITE_WORKER_PANIC), 1);
    // The panic was caught inside the worker: no thread died.
    assert_eq!(pool.alive_workers(), 3);
    // Team reusable, no rebuild was needed.
    checked_sum(&pool, &faults, 1000);
    assert_eq!(pool.rebuilds(), 0);
}

#[test]
fn killed_worker_is_rebuilt_on_next_region() {
    let pool = Pool::new(4);
    let faults = Faults::arm(
        1,
        vec![FaultSpec::new(SITE_WORKER_DEATH, FaultAction::KillWorker)],
    );
    // The region completes despite losing a worker mid-flight: the
    // shared cursor lets the rest of the team absorb its chunks.
    checked_sum(&pool, &faults, 10_000);
    assert_eq!(faults.fired_count(SITE_WORKER_DEATH), 1);
    wait_alive(&pool, 2);
    // Regression (reuse-after-death): the next region must rebuild the
    // team and complete — never hang on a check-in from a dead worker.
    checked_sum(&pool, &faults, 10_000);
    assert_eq!(pool.alive_workers(), 3);
    assert_eq!(pool.rebuilds(), 1);
}

#[test]
fn repeated_deaths_never_hang_even_with_the_whole_team_gone() {
    let pool = Pool::new(4);
    let faults = Faults::arm(
        1,
        vec![FaultSpec::new(SITE_WORKER_DEATH, FaultAction::KillWorker).repeatable()],
    );
    // Every worker dies at pickup, every region: the submitter drains
    // alone and each subsequent region respawns the full team.
    for round in 1..=3u64 {
        checked_sum(&pool, &faults, 5_000);
        wait_alive(&pool, 0);
        let _ = round;
    }
    // Two rebuild rounds of 3 workers each (before regions 2 and 3).
    assert_eq!(pool.rebuilds(), 6);
    assert!(faults.fired_count(SITE_WORKER_DEATH) >= 9);
}
