//! An allocation ledger of a warm step: how many heap allocations of
//! 32 KiB or more one c24L8 step makes, and their bytes, counted by a
//! global allocator (counts, not clocks, and not `VmHWM`). The binary
//! holds this one test, so no other test's allocations land in the count.
//!
//! At c24L8 an array is 65 760 B and a halo buffer 36 864 B; nothing else
//! a step allocates reaches 32 KiB. The team of one builds its packed
//! store every step (23 arrays, 71 allocations with the 47 of an unpacked
//! store) and posts the substep's 24 halo buffers, which its mailboxes
//! free when the substep ends (DESIGN §17.1). A team of two keeps its
//! stores across steps and its buffers in its mailboxes: nothing. The
//! parallel schedule on a one-worker pool is the team of one.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig, RankSchedule};
use machine::Pool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

const LARGE: usize = 32 * 1024;

struct Ledger {
    on: AtomicBool,
    count: AtomicU64,
    bytes: AtomicU64,
}

impl Ledger {
    fn note(&self, size: usize) {
        if size >= LARGE && self.on.load(Relaxed) {
            self.count.fetch_add(1, Relaxed);
            self.bytes.fetch_add(size as u64, Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Ledger {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static LEDGER: Ledger = Ledger {
    on: AtomicBool::new(false),
    count: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

/// `(allocations, bytes)` of 32 KiB or more made by `f`.
fn large_allocations(f: impl FnOnce()) -> (u64, u64) {
    LEDGER.count.store(0, Relaxed);
    LEDGER.bytes.store(0, Relaxed);
    LEDGER.on.store(true, Relaxed);
    f();
    LEDGER.on.store(false, Relaxed);
    (LEDGER.count.load(Relaxed), LEDGER.bytes.load(Relaxed))
}

#[test]
fn large_allocations_per_warm_c24l8_step() {
    let cfg = DriverConfig::six_rank(
        24,
        8,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    let (seq, par) = (RankSchedule::Sequential, RankSchedule::Parallel);
    let one = (47, 23 * 65_760 + 24 * 36_864);
    for ((schedule, workers), expect) in [((seq, 1), one), ((par, 2), (0, 0)), ((par, 1), one)] {
        let mut d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
        d.set_rank_schedule(schedule);
        d.set_tuned(false);
        d.set_pool(Some(Pool::new(workers)));
        d.step();
        for step in 2..=3 {
            let got = large_allocations(|| d.step());
            assert_eq!(got, expect, "{schedule:?} workers={workers} step {step}");
        }
    }
}
