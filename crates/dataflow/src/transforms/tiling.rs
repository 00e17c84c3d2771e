//! Tiling transformations — the "tiling and tile sizes in each
//! dimension" schedule attribute of Section V-A.
//!
//! Tiling does not change execution semantics (the executor iterates the
//! same points); it changes the *blocked working set* the CPU cache model
//! sees, and is one of the four local-optimization aspects of
//! Section VI-A ("we search the available space on a representative
//! horizontal stencil [...] and apply the resulting scheme en masse").
//! This module applies and prices a tile shape; it does not search one.

use crate::kernel::Kernel;

/// Set a kernel's horizontal tile sizes (clamped to its domain).
pub fn apply_tiling(kernel: &mut Kernel, tile: [usize; 2]) {
    let ni = kernel.domain.len(crate::storage::Axis::I).max(1) as usize;
    let nj = kernel.domain.len(crate::storage::Axis::J).max(1) as usize;
    kernel.schedule.tile = [tile[0].clamp(1, ni), tile[1].clamp(1, nj), 1];
}

/// The blocked working set under the kernel's tile sizes: one tile-slab
/// per accessed field (falls back to the full slab when untiled).
pub fn tiled_working_set(kernel: &Kernel) -> u64 {
    let [ti, tj, _] = kernel.schedule.tile;
    if ti <= 1 && tj <= 1 {
        return kernel.slab_working_set();
    }
    let ni = kernel.domain.len(crate::storage::Axis::I).max(1) as u64;
    let nj = kernel.domain.len(crate::storage::Axis::J).max(1) as u64;
    let ti = (ti as u64).min(ni);
    let tj = (tj as u64).min(nj);
    let nfields = (kernel.reads().len() + kernel.writes().len()) as u64;
    ti * tj * nfields * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::{DataflowNode, Sdfg, State};
    use crate::kernel::{Domain, KOrder, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    /// An out-of-cache horizontal stencil: big slab, many fields.
    fn big_kernel_sdfg() -> Sdfg {
        let n = 512;
        let mut g = Sdfg::new("t");
        let l = Layout::new([n, n, 8], [1, 1, 0], StorageOrder::IContiguous, 1);
        let ids: Vec<_> = (0..6)
            .map(|i| g.add_container(format!("f{i}"), l.clone(), false))
            .collect();
        let mut k = Kernel::new(
            "wide",
            Domain::from_shape([n, n, 8]),
            KOrder::Parallel,
            Schedule::cpu_kblocked(),
        );
        let mut e = Expr::load(ids[0], 0, 0, 0);
        for d in &ids[1..5] {
            e = e + Expr::load(*d, -1, 0, 0) + Expr::load(*d, 1, 0, 0);
        }
        k.stmts.push(Stmt::full(LValue::Field(ids[5]), e));
        let mut s = State::new("s");
        s.nodes.push(DataflowNode::Kernel(k));
        g.add_state(s);
        g
    }

    #[test]
    fn tiled_working_set_shrinks_with_tiles() {
        let g = big_kernel_sdfg();
        let mut k = g.states[0].kernels().next().unwrap().clone();
        let full = tiled_working_set(&k);
        apply_tiling(&mut k, [64, 64]);
        let tiled = tiled_working_set(&k);
        assert!(tiled < full / 10, "{tiled} vs {full}");
        // Untiled (1x1) means "no tiling", not a 1-element tile.
        apply_tiling(&mut k, [1, 1]);
        assert_eq!(tiled_working_set(&k), full);
    }

    #[test]
    fn tile_clamps_to_domain() {
        let g = big_kernel_sdfg();
        let mut k = g.states[0].kernels().next().unwrap().clone();
        apply_tiling(&mut k, [10_000, 3]);
        assert_eq!(k.schedule.tile, [512, 3, 1]);
    }
}
