//! Reachability tests for the halo fault sites (ISSUE 5).
//!
//! Each test arms its own plan and attaches it to the updater under
//! test; the clean reference updaters carry no plan at all.

use comm::halo::{
    rank_arrays, CornerPolicy, HaloUpdater, FAULT_SITES, SITE_HALO_CORRUPT, SITE_HALO_DROP,
    SITE_HALO_STALL,
};
use comm::partition::Partition;
use machine::faults::{FaultAction, FaultSpec, Faults};
use machine::RunContext;
use std::time::Duration;

fn updater(width: usize, faults: &Faults) -> (HaloUpdater, Vec<dataflow::Array3>) {
    let part = Partition::new(6, 1);
    let mut up = HaloUpdater::new(part.clone(), width, CornerPolicy::Leave);
    up.set_run(RunContext {
        faults: faults.clone(),
        ..RunContext::default()
    });
    let mut arrays = rank_arrays(&part, 2, width);
    for (r, arr) in arrays.iter_mut().enumerate() {
        for k in 0..2 {
            for j in 0..6 {
                for i in 0..6 {
                    arr.set(i, j, k, (r * 100 + (i + 6 * j) as usize) as f64 + 0.5 * k as f64);
                }
            }
        }
    }
    (up, arrays)
}

#[test]
fn corrupt_site_poisons_exactly_one_halo_value() {
    let faults = Faults::arm(
        7,
        vec![FaultSpec::new(SITE_HALO_CORRUPT, FaultAction::PoisonNan)],
    );
    let (up, mut arrays) = updater(2, &faults);
    up.exchange_scalar(&mut arrays);
    assert_eq!(faults.fired_count(SITE_HALO_CORRUPT), 1);
    let nans: usize = arrays
        .iter()
        .map(|a| {
            let mut n = 0;
            let s = 6i64;
            for k in 0..2 {
                for j in -2..s + 2 {
                    for i in -2..s + 2 {
                        if a.get(i, j, k).is_nan() {
                            n += 1;
                        }
                    }
                }
            }
            n
        })
        .sum();
    assert_eq!(nans, 1, "exactly one poisoned halo cell");
    // A second exchange heals it: the once-spec has retired and the
    // poisoned cell is a halo cell, overwritten from clean interiors.
    up.exchange_scalar(&mut arrays);
    assert_eq!(faults.fired_count(SITE_HALO_CORRUPT), 1);
}

#[test]
fn corrupt_factor_is_silent_data_corruption() {
    let faults = Faults::arm(
        7,
        vec![FaultSpec::new(
            SITE_HALO_CORRUPT,
            FaultAction::CorruptFactor(1000.0),
        )],
    );
    let (up, mut arrays) = updater(1, &faults);
    let (up2, mut clean) = updater(1, &Faults::inert());
    up.exchange_scalar(&mut arrays);
    up2.exchange_scalar(&mut clean);
    assert_eq!(faults.fired_count(SITE_HALO_CORRUPT), 1);
    let mut diffs = 0;
    for (a, c) in arrays.iter().zip(clean.iter()) {
        for k in 0..2 {
            for j in -1..7 {
                for i in -1..7 {
                    let (va, vc) = (a.get(i, j, k), c.get(i, j, k));
                    if va != vc {
                        diffs += 1;
                        assert!(va.is_finite(), "factor corruption stays finite");
                        assert_eq!(va, vc * 1000.0);
                    }
                }
            }
        }
    }
    assert_eq!(diffs, 1, "one silently corrupted value");
}

#[test]
fn drop_site_leaves_target_rank_halo_stale() {
    let faults = Faults::arm(
        7,
        vec![FaultSpec::new(SITE_HALO_DROP, FaultAction::DropMessage).on_rank(3)],
    );
    let (up, mut arrays) = updater(2, &faults);
    let (up2, mut clean) = updater(2, &Faults::inert());
    let before3 = arrays[3].clone();
    up.exchange_scalar(&mut arrays);
    up2.exchange_scalar(&mut clean);
    assert_eq!(faults.fired_count(SITE_HALO_DROP), 1);
    // Rank 3's halo kept its pre-exchange (stale) values...
    let s = 6i64;
    let mut stale = 0;
    for k in 0..2 {
        for j in -2..s + 2 {
            for i in -2..s + 2 {
                let interior = (0..s).contains(&i) && (0..s).contains(&j);
                if interior {
                    continue;
                }
                if arrays[3].get(i, j, k) == before3.get(i, j, k)
                    && clean[3].get(i, j, k) != before3.get(i, j, k)
                {
                    stale += 1;
                }
            }
        }
    }
    assert!(stale > 0, "dropped message leaves stale halo cells");
    // ...while every other rank matches the clean exchange exactly.
    for r in 0..arrays.len() {
        if r == 3 {
            continue;
        }
        for k in 0..2 {
            for j in -2..s + 2 {
                for i in -2..s + 2 {
                    assert_eq!(
                        arrays[r].get(i, j, k).to_bits(),
                        clean[r].get(i, j, k).to_bits(),
                        "rank {r} ({i},{j},{k}) unaffected by drop"
                    );
                }
            }
        }
    }
}

#[test]
fn stall_site_trips_the_watchdog() {
    let faults = Faults::arm(
        7,
        vec![FaultSpec::new(SITE_HALO_STALL, FaultAction::StallMs(50))],
    );
    let (mut up, mut arrays) = updater(1, &faults);
    up.set_stall_deadline(Some(Duration::from_millis(10)));
    assert_eq!(up.stall_count(), 0);
    up.exchange_scalar(&mut arrays);
    assert_eq!(faults.fired_count(SITE_HALO_STALL), 1);
    assert_eq!(up.stall_count(), 1, "watchdog noticed the stall");
    // Once-spec retired: the next exchange is fast and clean.
    up.exchange_scalar(&mut arrays);
    assert_eq!(up.stall_count(), 1);
}

#[test]
fn watchdog_disarmed_counts_nothing() {
    let faults = Faults::arm(
        7,
        vec![FaultSpec::new(SITE_HALO_STALL, FaultAction::StallMs(30))],
    );
    let (up, mut arrays) = updater(1, &faults);
    // No deadline set: the stall happens but is not counted.
    up.exchange_scalar(&mut arrays);
    assert_eq!(faults.fired_count(SITE_HALO_STALL), 1);
    assert_eq!(up.stall_count(), 0);
}

#[test]
fn all_sites_enumerated() {
    assert_eq!(
        FAULT_SITES,
        [SITE_HALO_CORRUPT, SITE_HALO_DROP, SITE_HALO_STALL]
    );
}
