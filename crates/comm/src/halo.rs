//! The halo updater: a central pull-style gather over simulated ranks,
//! kept as the oracle of the message-passing exchange.
//!
//! This is the paper's "halo updater object [...] that takes care of
//! nonblocking communication, data packing, and transformation based on
//! the pair of ranks" (Section IV-C), written the simplest way: one
//! thread walks every rank's halo and reads the source interiors
//! directly. The driver exchanges through [`crate::plan`] instead; the
//! crate tests hold the two to 0 ULP, and the repo benchmark times this
//! one. The halo cell enumeration, corner folds, orientation classes and
//! the fault-site names the driver's rank team fires live here too.

use crate::partition::{HaloSource, Partition, RankId};
use dataflow::Array3;

/// Fault site: silently corrupt one packed value on one channel before
/// it is posted.
pub const SITE_HALO_CORRUPT: &str = "halo.corrupt";
/// Fault site: drop every message destined for one receiving rank (its
/// receives find them lost and the rank fails).
pub const SITE_HALO_DROP: &str = "halo.drop";
/// Fault site: stall one rank (sleep) before it posts its sends.
pub const SITE_HALO_STALL: &str = "halo.stall";
/// Every fault site compiled into this crate.
pub const FAULT_SITES: [&str; 3] = [SITE_HALO_CORRUPT, SITE_HALO_DROP, SITE_HALO_STALL];

/// Which side of the subdomain a halo cell sits on.
///
/// Used to break halo traffic down by edge orientation in the metrics —
/// on a cubed sphere the four edges are *not* equivalent (tile seams,
/// orientation transforms, cube corners), so a per-orientation byte
/// count localizes imbalances the per-rank total hides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    West,
    East,
    South,
    North,
    /// Diagonal corner blocks (both indices out of range).
    Corner,
}

impl Orientation {
    /// All orientations, in `bytes_by_orientation` index order.
    pub const ALL: [Orientation; 5] = [
        Orientation::West,
        Orientation::East,
        Orientation::South,
        Orientation::North,
        Orientation::Corner,
    ];

    /// Classify the halo cell `(i, j)` of a subdomain with edge `s`.
    pub fn classify(i: i64, j: i64, s: i64) -> Orientation {
        let iout = i < 0 || i >= s;
        let jout = j < 0 || j >= s;
        match (iout, jout) {
            (true, true) => Orientation::Corner,
            (true, false) => {
                if i < 0 {
                    Orientation::West
                } else {
                    Orientation::East
                }
            }
            (false, true) => {
                if j < 0 {
                    Orientation::South
                } else {
                    Orientation::North
                }
            }
            (false, false) => panic!("({i}, {j}) is interior, not halo"),
        }
    }

    /// Metric label ("west", "east", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Orientation::West => "west",
            Orientation::East => "east",
            Orientation::South => "south",
            Orientation::North => "north",
            Orientation::Corner => "corner",
        }
    }

    /// Index into `bytes_by_orientation`.
    pub fn idx(&self) -> usize {
        Orientation::ALL.iter().position(|o| o == self).expect("in ALL")
    }
}

/// Statistics of one exchange (per rank, for the alpha-beta model).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExchangeStats {
    /// Point-to-point messages sent per rank (max over ranks).
    pub messages_per_rank: u64,
    /// Bytes sent per rank (max over ranks).
    pub bytes_per_rank: u64,
    /// Messages across all ranks.
    pub total_messages: u64,
    /// Bytes across all ranks.
    pub total_bytes: u64,
    /// `total_bytes` split by receiving-halo orientation, indexed as
    /// [`Orientation::ALL`] (cube-corner cells carry no traffic and are
    /// excluded).
    pub bytes_by_orientation: [u64; 5],
}

impl ExchangeStats {
    /// Bytes received into halos of the given orientation.
    pub fn bytes_for(&self, o: Orientation) -> u64 {
        self.bytes_by_orientation[o.idx()]
    }
}

/// How cube-corner halo cells (where three faces meet) are filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CornerPolicy {
    /// Leave them untouched (stencils must not read them).
    Leave,
    /// FV3-style fold: copy the nearest valid edge-halo value from the
    /// same array (adequate for the corner-corrected numerics, which
    /// override these cells through horizontal regions anyway).
    Fold,
}

/// One non-corner halo cell of a rank and the interior cell it is
/// gathered from.
#[derive(Debug, Clone, Copy)]
struct HaloTap {
    i: i64,
    j: i64,
    src: usize,
    si: i64,
    sj: i64,
    /// Frame transform for vector pairs, on cells that cross a tile seam.
    transform: Option<[[i64; 2]; 2]>,
}

/// One cube-corner fold: copy `(fi, fj)` (an exchanged edge-halo cell)
/// into the cube-corner halo cell `(ci, cj)` of the same array.
#[derive(Debug, Clone, Copy)]
pub struct FoldCell {
    pub ci: i64,
    pub cj: i64,
    pub fi: i64,
    pub fj: i64,
}

/// Rank `r`'s cube-corner folds for halo width `w`: each takes the
/// edge-halo value sharing the larger offset (deterministic pick).
pub(crate) fn corner_folds(part: &Partition, r: usize, w: i64) -> Vec<FoldCell> {
    let s = part.sub_n as i64;
    let mut folds = Vec::new();
    for di in 1..=w {
        for dj in 1..=w {
            for (ci, cj) in [
                (-di, -dj),
                (s - 1 + di, -dj),
                (-di, s - 1 + dj),
                (s - 1 + di, s - 1 + dj),
            ] {
                if part.halo_source(RankId(r), ci, cj) == HaloSource::CubeCorner {
                    let (fi, fj) = if di >= dj {
                        (ci, cj.clamp(0, s - 1))
                    } else {
                        (ci.clamp(0, s - 1), cj)
                    };
                    folds.push(FoldCell { ci, cj, fi, fj });
                }
            }
        }
    }
    folds
}

/// Fill `arr`'s cube-corner halo cells from its (already exchanged)
/// edge-halo cells, `nk` levels each.
pub(crate) fn fold_corners(folds: &[FoldCell], nk: usize, arr: &mut Array3) {
    for f in folds {
        let (from, fk) = arr.column(f.fi, f.fj);
        let (to, tk) = arr.column(f.ci, f.cj);
        let raw = arr.raw_mut();
        for k in 0..nk {
            raw[to + k * tk] = raw[from + k * fk];
        }
    }
}

/// A reusable halo updater for a fixed partition and width.
///
/// Everything an exchange needs of the cube geometry is worked out once,
/// here: an exchange itself only gathers and scatters.
#[derive(Debug, Clone)]
pub struct HaloUpdater {
    part: Partition,
    corner: CornerPolicy,
    /// Per rank, its halo cells in [`halo_cells`] order (cube corners,
    /// which have no source, left out).
    taps: Vec<Vec<HaloTap>>,
    /// Per rank, its cube-corner folds.
    folds: Vec<Vec<FoldCell>>,
    /// Statistics of exchanging one level of one field.
    level_stats: ExchangeStats,
}

impl HaloUpdater {
    /// Build an updater exchanging `width` halo cells.
    pub fn new(part: Partition, width: usize, corner: CornerPolicy) -> Self {
        assert!(
            width <= part.sub_n,
            "halo width {} exceeds subdomain size {}",
            width,
            part.sub_n
        );
        let s = part.sub_n as i64;
        let w = width as i64;
        let cells = halo_cells(s, w);
        let mut taps = Vec::with_capacity(part.ranks());
        let mut msgs = vec![std::collections::BTreeSet::new(); part.ranks()];
        let mut bytes = vec![0u64; part.ranks()];
        let mut by_orientation = [0u64; 5];
        for r in 0..part.ranks() {
            let (tile, _, _) = part.coords(RankId(r));
            let mut rank_taps = Vec::with_capacity(cells.len());
            for &(i, j) in &cells {
                let (src, si, sj, transform) = match part.halo_source(RankId(r), i, j) {
                    HaloSource::Intra { rank, i, j } => (rank.0, i, j, None),
                    HaloSource::Inter {
                        rank,
                        i,
                        j,
                        from_tile,
                    } => (rank.0, i, j, Some(part.geom.vector_transform(tile, from_tile))),
                    HaloSource::CubeCorner => continue, // filled by the corner policy
                };
                msgs[src].insert(r);
                bytes[src] += 8;
                by_orientation[Orientation::classify(i, j, s).idx()] += 8;
                rank_taps.push(HaloTap {
                    i,
                    j,
                    src,
                    si,
                    sj,
                    transform,
                });
            }
            taps.push(rank_taps);
        }
        let level_stats = ExchangeStats {
            messages_per_rank: msgs.iter().map(|m| m.len() as u64).max().unwrap_or(0),
            bytes_per_rank: bytes.iter().copied().max().unwrap_or(0),
            total_messages: msgs.iter().map(|m| m.len() as u64).sum(),
            total_bytes: bytes.iter().sum(),
            bytes_by_orientation: by_orientation,
        };
        let folds = (0..part.ranks())
            .map(|r| corner_folds(&part, r, w))
            .collect();
        HaloUpdater {
            part,
            corner,
            taps,
            folds,
            level_stats,
        }
    }

    /// Exchange a scalar field: `arrays[r]` is rank r's array. Returns
    /// per-rank message statistics.
    pub fn exchange_scalar(&self, arrays: &mut [Array3]) -> ExchangeStats {
        self.exchange_impl(arrays, None)
    }

    /// Exchange a vector component pair `(u, v)`: orientation transforms
    /// are applied when data crosses between differently-oriented tiles.
    pub fn exchange_vector(&self, u: &mut [Array3], v: &mut [Array3]) -> ExchangeStats {
        // Pack u with v as the partner so cross-tile cells can blend the
        // two components through the 2x2 transform.
        let stats = self.exchange_impl(u, Some((v, 0)));
        self.exchange_impl(v, Some((u, 1)));
        stats
    }

    fn exchange_impl(
        &self,
        arrays: &mut [Array3],
        partner: Option<(&[Array3], usize)>,
    ) -> ExchangeStats {
        assert_eq!(arrays.len(), self.part.ranks(), "one array per rank");
        let nk = arrays[0].layout().domain[2];

        // Phase 1 (pack + "send"): gather every halo value into a staging
        // list, rank by rank in tap order, K innermost. This mirrors
        // nonblocking sends: all reads happen against the pre-exchange
        // state.
        let cells: usize = self.taps.iter().map(Vec::len).sum();
        let mut staged: Vec<f64> = Vec::with_capacity(cells * nk);
        for taps in &self.taps {
            for t in taps {
                let (at, sk) = arrays[t.src].column(t.si, t.sj);
                let a = arrays[t.src].raw();
                match (partner, t.transform) {
                    (Some((other, row)), Some(m)) => {
                        // primary is component `row` of (u, v) in the
                        // receiving frame.
                        let (mu, mv) = (m[row][0], m[row][1]);
                        let (bt, bk) = other[t.src].column(t.si, t.sj);
                        let b = other[t.src].raw();
                        for k in 0..nk {
                            let (a, b) = (a[at + k * sk], b[bt + k * bk]);
                            let (gu, gv) = if row == 0 { (a, b) } else { (b, a) };
                            staged.push(mu as f64 * gu + mv as f64 * gv);
                        }
                    }
                    _ => staged.extend((0..nk).map(|k| a[at + k * sk])),
                }
            }
        }

        // Phase 2 ("recv" + unpack).
        let mut next = 0;
        for (r, taps) in self.taps.iter().enumerate() {
            for t in taps {
                let column = &staged[next..next + nk];
                next += nk;
                let (at, sk) = arrays[r].column(t.i, t.j);
                let raw = arrays[r].raw_mut();
                for (k, v) in column.iter().enumerate() {
                    raw[at + k * sk] = *v;
                }
            }
        }

        // Phase 3: corner policy.
        if self.corner == CornerPolicy::Fold {
            for (arr, folds) in arrays.iter_mut().zip(&self.folds) {
                fold_corners(folds, nk, arr);
            }
        }

        self.exact_stats(nk)
    }

    /// The statistics [`exchange_scalar`](Self::exchange_scalar) reports
    /// for an `nk`-level field, without touching data (cube corners carry
    /// no traffic).
    pub fn exact_stats(&self, nk: usize) -> ExchangeStats {
        let nk = nk as u64;
        let one = &self.level_stats;
        ExchangeStats {
            bytes_per_rank: one.bytes_per_rank * nk,
            total_bytes: one.total_bytes * nk,
            bytes_by_orientation: one.bytes_by_orientation.map(|b| b * nk),
            ..*one
        }
    }
}

/// Every halo cell of a subdomain with edge `s` and halo width `w`:
/// four edge strips first, then the diagonal corner blocks — the
/// canonical enumeration both the exchange and its analytic model walk
/// (and the [`crate::plan::ExchangePlan`] derives its channels from).
pub fn halo_cells(s: i64, w: i64) -> Vec<(i64, i64)> {
    let mut cells = Vec::with_capacity((4 * s * w + 4 * w * w) as usize);
    for d in 1..=w {
        for t in 0..s {
            cells.push((-d, t));
            cells.push((s - 1 + d, t));
            cells.push((t, -d));
            cells.push((t, s - 1 + d));
        }
    }
    // Corner blocks (diagonal neighbours / cube corners).
    for di in 1..=w {
        for dj in 1..=w {
            cells.push((-di, -dj));
            cells.push((s - 1 + di, -dj));
            cells.push((-di, s - 1 + dj));
            cells.push((s - 1 + di, s - 1 + dj));
        }
    }
    cells
}

/// Allocate one array per rank with the given vertical extent and halo.
pub fn rank_arrays(part: &Partition, nk: usize, halo: usize) -> Vec<Array3> {
    let layout = dataflow::Layout::fv3_default([part.sub_n, part.sub_n, nk], [halo, halo, 0]);
    (0..part.ranks())
        .map(|_| Array3::zeros(layout.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fill each rank's interior with a function of the global 3-D cell
    /// position, unique per cell.
    fn fill_global(part: &Partition, arrays: &mut [Array3], f: impl Fn([f64; 3], i64) -> f64) {
        let s = part.sub_n as i64;
        let nk = arrays[0].layout().domain[2] as i64;
        for (r, arr) in arrays.iter_mut().enumerate() {
            let (tile, rx, ry) = part.coords(RankId(r));
            for k in 0..nk {
                for j in 0..s {
                    for i in 0..s {
                        let gi = rx as i64 * s + i;
                        let gj = ry as i64 * s + j;
                        let pos = part.geom.faces[tile].cell_center(gi as f64, gj as f64);
                        arr.set(i, j, k, f(pos, k));
                    }
                }
            }
        }
    }

    #[test]
    fn intra_tile_halo_matches_neighbor_interior() {
        let part = Partition::new(8, 2);
        let up = HaloUpdater::new(part.clone(), 2, CornerPolicy::Leave);
        let mut arrays = rank_arrays(&part, 2, 3);
        fill_global(&part, &mut arrays, |p, k| {
            p[0] + 10.0 * p[1] + 100.0 * p[2] + 1000.0 * k as f64
        });
        up.exchange_scalar(&mut arrays);
        // Rank (0,0,0) east halo == rank (0,1,0) west interior.
        let r = part.rank(0, 0, 0);
        let nb = part.rank(0, 1, 0);
        for d in 0..2i64 {
            for t in 0..4 {
                assert_eq!(
                    arrays[r.0].get(4 + d, t, 1),
                    arrays[nb.0].get(d, t, 1),
                    "east halo d={d} t={t}"
                );
            }
        }
    }

    #[test]
    fn inter_tile_halo_carries_unique_global_values() {
        // After exchange, each halo value must equal the value of its
        // geometric source cell — verified through the *global* fill
        // function, not through the mapping code.
        let part = Partition::new(6, 1);
        let up = HaloUpdater::new(part.clone(), 3, CornerPolicy::Leave);
        let mut arrays = rank_arrays(&part, 1, 3);
        fill_global(&part, &mut arrays, |p, _| {
            p[0] + 13.0 * p[1] + 169.0 * p[2]
        });
        up.exchange_scalar(&mut arrays);
        let s = 6i64;
        for r in 0..part.ranks() {
            for d in 1..=3i64 {
                for t in 0..s {
                    for (i, j) in [(-d, t), (s - 1 + d, t), (t, -d), (t, s - 1 + d)] {
                        match part.halo_source(RankId(r), i, j) {
                            HaloSource::Inter { rank, i: si, j: sj, .. }
                            | HaloSource::Intra { rank, i: si, j: sj } => {
                                assert_eq!(
                                    arrays[r].get(i, j, 0),
                                    arrays[rank.0].get(si, sj, 0),
                                    "rank {r} halo ({i},{j})"
                                );
                            }
                            HaloSource::CubeCorner => {}
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn halo_is_continuous_for_smooth_fields() {
        // A linear function of the 3-D position changes by at most
        // |gradient| * distance across any halo cell; a wrong orientation
        // would produce jumps of O(tile size).
        let part = Partition::new(8, 1);
        let up = HaloUpdater::new(part.clone(), 1, CornerPolicy::Leave);
        let mut arrays = rank_arrays(&part, 1, 3);
        fill_global(&part, &mut arrays, |p, _| p[0] + 2.0 * p[1] + 3.0 * p[2]);
        up.exchange_scalar(&mut arrays);
        let s = 8i64;
        for (r, arr) in arrays.iter().enumerate() {
            for t in 0..s {
                for (hi, hj, ii, ij) in [
                    (-1, t, 0, t),
                    (s, t, s - 1, t),
                    (t, -1, t, 0),
                    (t, s, t, s - 1),
                ] {
                    let h = arr.get(hi, hj, 0);
                    let int = arr.get(ii, ij, 0);
                    assert!(
                        (h - int).abs() <= 6.0 + 1e-9,
                        "discontinuity at rank {r} ({hi},{hj}): {h} vs {int}"
                    );
                }
            }
        }
    }

    #[test]
    fn corner_fold_fills_cube_corners() {
        let part = Partition::new(6, 1);
        let up = HaloUpdater::new(part.clone(), 2, CornerPolicy::Fold);
        let mut arrays = rank_arrays(&part, 1, 3);
        fill_global(&part, &mut arrays, |p, _| p[0] + p[1] + p[2]);
        // Poison corners to detect fills.
        for arr in arrays.iter_mut() {
            arr.set(-1, -1, 0, f64::NAN);
            arr.set(6, 6, 0, f64::NAN);
        }
        up.exchange_scalar(&mut arrays);
        for arr in arrays.iter() {
            assert!(!arr.get(-1, -1, 0).is_nan(), "corner not filled");
            assert!(!arr.get(6, 6, 0).is_nan());
        }
    }

    #[test]
    fn exchange_stats_are_sane() {
        let part = Partition::new(8, 2);
        let up = HaloUpdater::new(part.clone(), 3, CornerPolicy::Leave);
        let mut arrays = rank_arrays(&part, 4, 3);
        let stats = up.exchange_scalar(&mut arrays);
        assert!(stats.messages_per_rank >= 4);
        assert!(stats.bytes_per_rank > 0);
    }

    #[test]
    fn vector_exchange_transforms_components() {
        // A tangent vector field constant in 3-D must remain consistent:
        // exchanged (u, v) components equal the projection of the 3-D
        // vector onto the receiving face's frame.
        let part = Partition::new(6, 1);
        let up = HaloUpdater::new(part.clone(), 1, CornerPolicy::Leave);
        let mut u = rank_arrays(&part, 1, 3);
        let mut v = rank_arrays(&part, 1, 3);
        // Global vector g = (1, 2, 3): per face, u = g . U, v = g . V.
        let g = [1.0, 2.0, 3.0];
        for r in 0..6 {
            let f = &part.geom.faces[r];
            let gu = g[0] * f.u[0] as f64 + g[1] * f.u[1] as f64 + g[2] * f.u[2] as f64;
            let gv = g[0] * f.v[0] as f64 + g[1] * f.v[1] as f64 + g[2] * f.v[2] as f64;
            for j in 0..6 {
                for i in 0..6 {
                    u[r].set(i, j, 0, gu);
                    v[r].set(i, j, 0, gv);
                }
            }
        }
        up.exchange_vector(&mut u, &mut v);
        // After exchange, face r's halo cells must hold face r's own
        // projections (the transform mapped the neighbour's components).
        for r in 0..6 {
            let f = &part.geom.faces[r];
            let gu = g[0] * f.u[0] as f64 + g[1] * f.u[1] as f64 + g[2] * f.u[2] as f64;
            let gv = g[0] * f.v[0] as f64 + g[1] * f.v[1] as f64 + g[2] * f.v[2] as f64;
            for t in 0..6 {
                for (i, j) in [(-1i64, t), (6, t), (t, -1), (t, 6)] {
                    let uu = u[r].get(i, j, 0);
                    let vv = v[r].get(i, j, 0);
                    // One of the two components may pick up the neighbour
                    // face's normal contribution we drop; require that the
                    // in-plane parts match up to that projection error.
                    let du = (uu - gu).abs();
                    let dv = (vv - gv).abs();
                    assert!(
                        du <= 4.0 && dv <= 4.0,
                        "rank {r} halo ({i},{j}): u {uu} vs {gu}, v {vv} vs {gv}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "halo width")]
    fn oversized_halo_is_rejected() {
        let part = Partition::new(4, 2);
        let _ = HaloUpdater::new(part, 3, CornerPolicy::Leave);
    }

    /// Run one scalar exchange and return (measured, analytic) stats.
    fn measure(tile_n: usize, rt: usize, width: usize, nk: usize) -> (ExchangeStats, ExchangeStats) {
        let part = Partition::new(tile_n, rt);
        let up = HaloUpdater::new(part.clone(), width, CornerPolicy::Leave);
        let mut arrays = rank_arrays(&part, nk, width);
        let measured = up.exchange_scalar(&mut arrays);
        (measured, up.exact_stats(nk))
    }

    #[test]
    fn measured_stats_match_analytic_model_c8() {
        // c8 single-rank-per-tile and 2x2-per-tile decompositions.
        for (rt, width, nk) in [(1, 2, 4), (2, 3, 4), (2, 1, 6)] {
            let (measured, exact) = measure(8, rt, width, nk);
            assert_eq!(measured, exact, "c8 rt={rt} w={width} nk={nk}");
        }
    }

    #[test]
    fn measured_stats_match_analytic_model_c12() {
        // c12 with 3x3 ranks per tile: interior ranks exist, so the
        // interior-rank closed form is attained exactly.
        let (measured, exact) = measure(12, 3, 2, 4);
        assert_eq!(measured, exact);
        // Four edges of width w plus four w×w corner blocks, 8 neighbours.
        let (s, w, nk) = (4, 2, 4);
        assert_eq!(measured.bytes_per_rank, (4 * s * w + 4 * w * w) * nk * 8);
        assert_eq!(measured.messages_per_rank, 8);
    }

    #[test]
    fn closed_form_relations_hold_per_decomposition() {
        let (s, w, nk) = (8u64, 2u64, 4u64);
        // rt=1: every corner block sits on a cube corner -> edge strips
        // only, 4 neighbours.
        let (m1, _) = measure(8, 1, w as usize, nk as usize);
        assert_eq!(m1.bytes_per_rank, 4 * s * w * nk * 8);
        assert_eq!(m1.messages_per_rank, 4);
        assert_eq!(m1.bytes_for(Orientation::Corner), 0);
        // rt=2: every rank touches one cube corner -> exactly one of the
        // four w*w corner blocks is dead.
        let (m2, _) = measure(8, 2, w as usize, nk as usize);
        assert_eq!(m2.bytes_per_rank, (4 * (s / 2) * w + 3 * w * w) * nk * 8);
        assert_eq!(m2.messages_per_rank, 7);
        // rt=3: the tile-interior rank has all 8 neighbours and the full
        // halo ring (the upper bound bytes_per_rank models).
        let (m3, _) = measure(12, 3, w as usize, nk as usize);
        assert_eq!(m3.bytes_per_rank, (4 * 4 * w + 4 * w * w) * nk * 8);
        assert_eq!(m3.messages_per_rank, 8);
        // Edge strips are symmetric under the four orientations; totals
        // add up.
        for m in [m1, m2, m3] {
            assert_eq!(m.bytes_for(Orientation::West), m.bytes_for(Orientation::East));
            assert_eq!(m.bytes_for(Orientation::South), m.bytes_for(Orientation::North));
            assert_eq!(m.bytes_by_orientation.iter().sum::<u64>(), m.total_bytes);
        }
    }

    #[test]
    fn orientation_classifies_halo_cells() {
        assert_eq!(Orientation::classify(-1, 3, 8), Orientation::West);
        assert_eq!(Orientation::classify(8, 0, 8), Orientation::East);
        assert_eq!(Orientation::classify(2, -2, 8), Orientation::South);
        assert_eq!(Orientation::classify(7, 9, 8), Orientation::North);
        assert_eq!(Orientation::classify(-1, 8, 8), Orientation::Corner);
        for (n, o) in Orientation::ALL.iter().enumerate() {
            assert_eq!(o.idx(), n);
        }
    }
}
