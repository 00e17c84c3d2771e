//! The execution hooks every whole-dycore-program run needs. (All that is
//! left of the per-module profile rollups; the benchmark package imports
//! it by this path, so the module keeps its name.)

use crate::dyn_core::{remap_callback, DycoreIds, REMAP_CALLBACK};
use dataflow::exec::{DataStore, ExecHooks};

/// Execution hooks wiring the vertical-remap callback into a profiled (or
/// plain) run of the orchestrated dycore program.
pub struct RemapHooks<'a> {
    pub ids: &'a DycoreIds,
}

impl ExecHooks for RemapHooks<'_> {
    fn callback(&mut self, name: &str, store: &mut DataStore) {
        assert_eq!(name, REMAP_CALLBACK);
        remap_callback(store, self.ids);
    }
}
