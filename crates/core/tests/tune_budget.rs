//! An allocation budget of the build-time tuner: how many heap
//! allocations (reallocations included) one model-ranked
//! `tuning::autotune` of the expanded c24L8 dycore makes, and their bytes,
//! counted by a global allocator. The binary holds this one test, so no
//! other test's allocations land in the count.
//!
//! When every legal candidate was priced on a built trial state (a clone
//! of its state, every kernel re-profiled) and the usage map was rebuilt
//! every round, one autotune made 41,055 allocations of 3,284,694 B
//! (38,123 + 2,932 reallocations). Pricing a candidate by its one fused
//! kernel against the standing nodes' kept costs made it 12,576 of
//! 1,011,993 B. The cap is half the old count and half the old bytes.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::{build_dycore_program, DycoreConfig};
use fv3core::parallel::{tune_model, TUNE_M_OTF};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct Ledger {
    on: AtomicBool,
    count: AtomicU64,
    bytes: AtomicU64,
}

impl Ledger {
    fn note(&self, size: usize) {
        if self.on.load(Relaxed) {
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

/// `(allocations, bytes)` made by `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    LEDGER.count.store(0, Relaxed);
    LEDGER.bytes.store(0, Relaxed);
    LEDGER.on.store(true, Relaxed);
    let out = f();
    LEDGER.on.store(false, Relaxed);
    ((LEDGER.count.load(Relaxed), LEDGER.bytes.load(Relaxed)), out)
}

#[test]
fn one_c24l8_autotune_allocates_at_most_half_of_trial_state_pricing() {
    let dycore = DycoreConfig {
        n_split: 1,
        k_split: 1,
        dt: 2.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    let program = build_dycore_program(24, 8, dycore);
    let mut g = program.sdfg.clone();
    g.expand_libraries(&ExpansionAttrs::tuned());
    let ((count, bytes), report) =
        allocations(|| tuning::autotune(&mut g, &tune_model(), TUNE_M_OTF));
    assert_eq!(report.search.configurations, 698, "the same search");
    assert!(count <= 41_055 / 2, "{count} allocations (cap {})", 41_055 / 2);
    assert!(bytes <= 3_284_694 / 2, "{bytes} B (cap {} B)", 3_284_694 / 2);
}
