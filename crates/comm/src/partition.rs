//! Domain decomposition: the paper's "two-dimensional domain decomposition
//! in the horizontal dimensions" over the six cubed-sphere tiles.
//!
//! A [`Partition`] divides each tile into `rt x rt` equal subdomains; rank
//! ids enumerate `(tile, ry, rx)`. The smallest distributed configuration
//! is 6 ranks — one full tile each (Section IX-A) — where each rank owns
//! all tile edges and corners.

use crate::geometry::{CubeGeometry, Edge};

/// A rank identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankId(pub usize);

/// Where a rank's halo cell comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloSource {
    /// Same tile: plain copy from the neighbouring rank at the given
    /// subdomain-local cell.
    Intra { rank: RankId, i: i64, j: i64 },
    /// Across a cube edge: copy from another tile's rank with the
    /// orientation transform applied (source cell is subdomain-local).
    Inter {
        rank: RankId,
        i: i64,
        j: i64,
        /// Source tile (for vector transforms).
        from_tile: usize,
    },
    /// Cube corner: no unique source (three faces meet); filled by the
    /// corner policy instead.
    CubeCorner,
}

/// A decomposition of the cubed sphere into ranks.
#[derive(Debug, Clone)]
pub struct Partition {
    pub geom: CubeGeometry,
    /// Ranks per tile edge (total ranks = 6 * rt^2).
    pub rt: usize,
    /// Subdomain size (cells per edge) — `geom.n / rt`.
    pub sub_n: usize,
}

impl Partition {
    /// Decompose a cube of `tile_n` cells per tile edge into `rt x rt`
    /// ranks per tile.
    pub fn new(tile_n: usize, rt: usize) -> Self {
        assert!(rt >= 1 && tile_n.is_multiple_of(rt), "tile size must divide evenly");
        Partition {
            geom: CubeGeometry::new(tile_n),
            rt,
            sub_n: tile_n / rt,
        }
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        6 * self.rt * self.rt
    }

    /// Rank id for `(tile, rx, ry)`.
    pub fn rank(&self, tile: usize, rx: usize, ry: usize) -> RankId {
        debug_assert!(tile < 6 && rx < self.rt && ry < self.rt);
        RankId(tile * self.rt * self.rt + ry * self.rt + rx)
    }

    /// Decompose a rank id into `(tile, rx, ry)`.
    pub fn coords(&self, r: RankId) -> (usize, usize, usize) {
        let per_tile = self.rt * self.rt;
        let tile = r.0 / per_tile;
        let rem = r.0 % per_tile;
        (tile, rem % self.rt, rem / self.rt)
    }

    /// Whether rank `r` owns part of the given tile edge.
    fn on_tile_edge(&self, r: RankId, e: Edge) -> bool {
        let (_, rx, ry) = self.coords(r);
        match e {
            Edge::West => rx == 0,
            Edge::East => rx == self.rt - 1,
            Edge::South => ry == 0,
            Edge::North => ry == self.rt - 1,
        }
    }

    /// Whether rank `r` holds any tile edge (needs region computations).
    fn holds_any_tile_edge(&self, r: RankId) -> bool {
        Edge::ALL.iter().any(|e| self.on_tile_edge(r, *e))
    }

    /// Fraction of ranks holding at least one tile edge — drives the
    /// Fig. 11 observation that "for higher rank counts each node does
    /// not compute all specialized computations".
    pub fn edge_rank_fraction(&self) -> f64 {
        let total = self.ranks();
        let edge_ranks = (0..total)
            .filter(|r| self.holds_any_tile_edge(RankId(*r)))
            .count();
        edge_ranks as f64 / total as f64
    }

    /// Source of rank `r`'s halo cell `(i, j)` (subdomain-local, outside
    /// `[0, sub_n)` on at least one axis, within halo width on both).
    pub fn halo_source(&self, r: RankId, i: i64, j: i64) -> HaloSource {
        let s = self.sub_n as i64;
        let n = self.geom.n as i64;
        let (tile, rx, ry) = self.coords(r);
        // Tile-global coordinates of the requested cell.
        let gi = rx as i64 * s + i;
        let gj = ry as i64 * s + j;
        let out_w = gi < 0;
        let out_e = gi >= n;
        let out_s = gj < 0;
        let out_n = gj >= n;
        match (out_w || out_e, out_s || out_n) {
            (false, false) => {
                // Still on this tile: intra-tile neighbour rank.
                let nrx = (gi / s) as usize;
                let nry = (gj / s) as usize;
                HaloSource::Intra {
                    rank: self.rank(tile, nrx, nry),
                    i: gi - nrx as i64 * s,
                    j: gj - nry as i64 * s,
                }
            }
            (true, true) => HaloSource::CubeCorner,
            (true, false) => {
                let (e, d, t) = if out_w {
                    (Edge::West, -gi - 1, gj)
                } else {
                    (Edge::East, gi - n, gj)
                };
                self.inter_tile(tile, e, d, t)
            }
            (false, true) => {
                let (e, d, t) = if out_s {
                    (Edge::South, -gj - 1, gi)
                } else {
                    (Edge::North, gj - n, gi)
                };
                self.inter_tile(tile, e, d, t)
            }
        }
    }

    fn inter_tile(&self, tile: usize, e: Edge, d: i64, t: i64) -> HaloSource {
        let s = self.sub_n as i64;
        let (nf, gi, gj) = self.geom.halo_source(tile, e, d, t);
        let nrx = (gi / s) as usize;
        let nry = (gj / s) as usize;
        HaloSource::Inter {
            rank: self.rank(nf, nrx, nry),
            i: gi - nrx as i64 * s,
            j: gj - nry as i64 * s,
            from_tile: nf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_rank_partition_owns_whole_tiles() {
        let p = Partition::new(12, 1);
        assert_eq!(p.ranks(), 6);
        assert_eq!(p.sub_n, 12);
        for r in 0..6 {
            assert!(p.holds_any_tile_edge(RankId(r)));
        }
        assert_eq!(p.edge_rank_fraction(), 1.0);
    }

    #[test]
    fn rank_coords_roundtrip() {
        let p = Partition::new(12, 3);
        assert_eq!(p.ranks(), 54);
        for r in 0..p.ranks() {
            let (t, x, y) = p.coords(RankId(r));
            assert_eq!(p.rank(t, x, y), RankId(r));
        }
    }

    #[test]
    fn edge_fraction_decreases_with_rank_count() {
        let f1 = Partition::new(16, 1).edge_rank_fraction();
        let f2 = Partition::new(16, 2).edge_rank_fraction();
        let f4 = Partition::new(16, 4).edge_rank_fraction();
        assert_eq!(f1, 1.0);
        assert_eq!(f2, 1.0, "2x2: every rank touches an edge");
        assert!(f4 < 1.0, "4x4: interior ranks appear");
        assert!((f4 - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn intra_tile_halo_sources() {
        let p = Partition::new(8, 2);
        // Rank (tile 0, rx 0, ry 0): its east halo (i = 4) comes from
        // rank (0, 1, 0) cell i = 0.
        let r = p.rank(0, 0, 0);
        match p.halo_source(r, 4, 2) {
            HaloSource::Intra { rank, i, j } => {
                assert_eq!(rank, p.rank(0, 1, 0));
                assert_eq!((i, j), (0, 2));
            }
            other => panic!("expected intra, got {other:?}"),
        }
    }

    #[test]
    fn inter_tile_halo_crosses_cube_edges() {
        let p = Partition::new(8, 2);
        // Rank on tile 0 west edge: its west halo must come from another
        // tile.
        let r = p.rank(0, 0, 0);
        match p.halo_source(r, -1, 2) {
            HaloSource::Inter { from_tile, i, j, .. } => {
                assert_ne!(from_tile, 0);
                assert!((0..8).contains(&i) && (0..8).contains(&j));
            }
            other => panic!("expected inter, got {other:?}"),
        }
    }

    #[test]
    fn cube_corner_is_flagged() {
        let p = Partition::new(8, 1);
        let r = p.rank(0, 0, 0);
        assert_eq!(p.halo_source(r, -1, -1), HaloSource::CubeCorner);
        // Tile-interior corners between four ranks are NOT cube corners.
        let p2 = Partition::new(8, 2);
        let r2 = p2.rank(0, 0, 0);
        match p2.halo_source(r2, 4, 4) {
            HaloSource::Intra { rank, .. } => assert_eq!(rank, p2.rank(0, 1, 1)),
            other => panic!("expected intra diagonal, got {other:?}"),
        }
    }

    #[test]
    fn every_non_corner_halo_cell_has_a_source() {
        let p = Partition::new(8, 2);
        let s = p.sub_n as i64;
        for r in 0..p.ranks() {
            for d in 1..=3i64 {
                for t in 0..s {
                    for (i, j) in [(-d, t), (s - 1 + d, t), (t, -d), (t, s - 1 + d)] {
                        let src = p.halo_source(RankId(r), i, j);
                        match src {
                            HaloSource::Intra { i, j, .. } | HaloSource::Inter { i, j, .. } => {
                                assert!((0..s).contains(&i) && (0..s).contains(&j));
                            }
                            HaloSource::CubeCorner => {}
                        }
                    }
                }
            }
        }
    }
}
