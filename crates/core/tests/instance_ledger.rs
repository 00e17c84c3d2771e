//! The live heap of one c24L8 six-rank instance after
//! `DistributedDycore::new`, by owner: counted by a global allocator
//! (bytes allocated minus bytes freed, not `VmHWM`). The binary holds
//! this one test, so no other test's allocations land in the count.
//!
//! - **grids**: six ranks × eight horizontal metrics, one plane each
//!   (DESIGN §18.3): a c24 plane with its 4-cell halo is 8 416 B.
//! - **states**: six ranks × seven prognostics of 65 760 B.
//! - **unattributed**: everything else — the partition, the shared
//!   grid handle, the per-rank bookkeeping — under a stated ceiling. The
//!   substep program is not here: construction lowers nothing (the
//!   first step's bundle does, DESIGN §19), which took 47 KiB off it.
//!
//! Before grid metrics were horizontal, each held eight copies of its
//! plane and the grid had ten of them: 3.76 MiB, 58 % of the instance.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::{DistributedDycore, DriverConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

struct Live(AtomicI64);

unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(layout.size() as i64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(layout.size() as i64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static LIVE: Live = Live(AtomicI64::new(0));

const PLANE: usize = 8_416;
const ARRAY: usize = 65_760;
const UNATTRIBUTED_MAX: usize = 32 * 1024;

#[test]
fn live_heap_of_a_c24l8_instance_by_owner() {
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
    let before = LIVE.0.load(Relaxed);
    let d = DistributedDycore::new(cfg, &ExpansionAttrs::tuned());
    let live = (LIVE.0.load(Relaxed) - before) as usize;

    let grids: usize = d
        .grids
        .iter()
        .flat_map(|g| [&*g.area, &*g.rarea, &*g.rdx, &*g.rdy, &*g.cosa, &*g.sina, &g.lat, &g.lon])
        .map(|a| {
            assert!(a.layout().is_horizontal(), "every grid metric is one plane");
            a.raw().len() * 8
        })
        .sum();
    let states: usize = d.states.iter().flat_map(|s| s.fields()).map(|(_, a)| a.raw().len() * 8).sum();
    let unattributed = live - grids - states;
    println!("live {live} B = grids {grids} + states {states} + unattributed {unattributed}");

    assert_eq!(grids, 6 * 8 * PLANE, "grids");
    assert_eq!(states, 6 * 7 * ARRAY, "states");
    assert!(grids <= 512 * 1024, "grids stay under 0.5 MiB");
    // 12 664 B: not a pin, a ceiling (128 KiB while `new` lowered the
    // substep program, 59 932 B of it).
    assert!(unattributed <= UNATTRIBUTED_MAX, "unattributed {unattributed} B");
}
