//! Gnomonic cubed-sphere face geometry and edge connectivity.
//!
//! Halo updates on the cubed sphere are "slightly more complex [...] as
//! data must be transformed according to the orientation of the
//! coordinate system of the adjoining faces of the cube" (Section IV-C).
//! Instead of hand-writing the 12 edge orientation rules (and getting one
//! wrong), each face carries an explicit 3-D frame on the unit-cube
//! lattice; shared edges and their relative orientations are *derived*
//! from corner coincidence, so the connectivity table is consistent by
//! construction and property-tested for the invariants every cube must
//! satisfy (24 edge slots pairing into 12 symmetric links).

/// An integer 3-vector on the cube lattice.
pub type V3 = [i64; 3];

fn add(a: V3, b: V3) -> V3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

fn scale(a: V3, s: i64) -> V3 {
    [a[0] * s, a[1] * s, a[2] * s]
}

/// Dot product.
pub fn dot(a: V3, b: V3) -> i64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// A face of the cube: origin corner plus unit vectors for local i and j.
/// For an N-cell face, corner lattice points are `origin + u*a + v*b` for
/// `a, b ∈ [0, N]`.
#[derive(Debug, Clone, Copy)]
pub struct FaceFrame {
    pub origin: V3,
    pub u: V3,
    pub v: V3,
}

impl FaceFrame {
    /// Lattice corner at local `(a, b)`, both in `[0, N]`.
    pub fn corner(&self, a: i64, b: i64) -> V3 {
        add(self.origin, add(scale(self.u, a), scale(self.v, b)))
    }

    /// Continuous 3-D position of the cell centre `(i, j)` (lattice units).
    #[cfg(test)]
    pub(crate) fn cell_center(&self, i: f64, j: f64) -> [f64; 3] {
        [
            self.origin[0] as f64 + self.u[0] as f64 * (i + 0.5) + self.v[0] as f64 * (j + 0.5),
            self.origin[1] as f64 + self.u[1] as f64 * (i + 0.5) + self.v[1] as f64 * (j + 0.5),
            self.origin[2] as f64 + self.u[2] as f64 * (i + 0.5) + self.v[2] as f64 * (j + 0.5),
        ]
    }
}

/// The four edges of a face in local coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// `i = 0` side, parametrized by j.
    West,
    /// `i = n-1` side, parametrized by j.
    East,
    /// `j = 0` side, parametrized by i.
    South,
    /// `j = n-1` side, parametrized by i.
    North,
}

impl Edge {
    /// All edges.
    pub const ALL: [Edge; 4] = [Edge::West, Edge::East, Edge::South, Edge::North];

    /// Endpoint corners `(start, end)` of this edge in local `(a, b)`
    /// lattice coordinates for cube size n: the edge parameter runs from
    /// `start` to `end`.
    fn corners(&self, n: i64) -> ((i64, i64), (i64, i64)) {
        match self {
            Edge::West => ((0, 0), (0, n)),
            Edge::East => ((n, 0), (n, n)),
            Edge::South => ((0, 0), (n, 0)),
            Edge::North => ((0, n), (n, n)),
        }
    }

    /// Interior cell at depth `d` from this edge with edge parameter `t`.
    fn interior_cell(&self, n: i64, d: i64, t: i64) -> (i64, i64) {
        match self {
            Edge::West => (d, t),
            Edge::East => (n - 1 - d, t),
            Edge::South => (t, d),
            Edge::North => (t, n - 1 - d),
        }
    }

    /// Index 0..4.
    pub fn idx(&self) -> usize {
        match self {
            Edge::West => 0,
            Edge::East => 1,
            Edge::South => 2,
            Edge::North => 3,
        }
    }
}

/// One side of an edge link: which face/edge is on the other side and
/// whether the edge parameter runs in the opposite direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeLink {
    pub face: usize,
    pub edge: Edge,
    pub reversed: bool,
}

/// The cubed sphere: six faces with derived connectivity.
#[derive(Debug, Clone)]
pub struct CubeGeometry {
    /// Cells per face edge.
    pub n: usize,
    pub faces: [FaceFrame; 6],
    /// `links[f][e]` is the other side of face f's edge e.
    pub links: [[EdgeLink; 4]; 6],
}

impl CubeGeometry {
    /// Build the standard six-face cube of size `n`.
    pub fn new(n: usize) -> Self {
        let nn = n as i64;
        // Frames chosen so that faces 0/1/2 form the "origin corner" and
        // 3/4/5 the opposite one; orientations are deliberately varied —
        // the link derivation below does not care.
        let faces = [
            // 0: bottom (z = 0)
            FaceFrame {
                origin: [0, 0, 0],
                u: [1, 0, 0],
                v: [0, 1, 0],
            },
            // 1: front (y = 0)
            FaceFrame {
                origin: [0, 0, 0],
                u: [1, 0, 0],
                v: [0, 0, 1],
            },
            // 2: west (x = 0)
            FaceFrame {
                origin: [0, 0, 0],
                u: [0, 1, 0],
                v: [0, 0, 1],
            },
            // 3: top (z = N)
            FaceFrame {
                origin: [0, 0, nn],
                u: [1, 0, 0],
                v: [0, 1, 0],
            },
            // 4: back (y = N)
            FaceFrame {
                origin: [0, nn, 0],
                u: [1, 0, 0],
                v: [0, 0, 1],
            },
            // 5: east (x = N)
            FaceFrame {
                origin: [nn, 0, 0],
                u: [0, 1, 0],
                v: [0, 0, 1],
            },
        ];

        // Derive links by matching edge corner pairs.
        let mut links = [[EdgeLink {
            face: usize::MAX,
            edge: Edge::West,
            reversed: false,
        }; 4]; 6];
        for f in 0..6 {
            for e in Edge::ALL {
                let ((a0, b0), (a1, b1)) = e.corners(nn);
                let p0 = faces[f].corner(a0, b0);
                let p1 = faces[f].corner(a1, b1);
                let mut found = false;
                for (g, face_g) in faces.iter().enumerate() {
                    if g == f {
                        continue;
                    }
                    for e2 in Edge::ALL {
                        let ((c0, d0), (c1, d1)) = e2.corners(nn);
                        let q0 = face_g.corner(c0, d0);
                        let q1 = face_g.corner(c1, d1);
                        if p0 == q0 && p1 == q1 {
                            links[f][e.idx()] = EdgeLink {
                                face: g,
                                edge: e2,
                                reversed: false,
                            };
                            found = true;
                        } else if p0 == q1 && p1 == q0 {
                            links[f][e.idx()] = EdgeLink {
                                face: g,
                                edge: e2,
                                reversed: true,
                            };
                            found = true;
                        }
                    }
                }
                assert!(found, "face {f} edge {e:?} has no neighbor — bad frames");
            }
        }
        CubeGeometry { n, faces, links }
    }

    /// The cell on the neighbouring face that fills face `f`'s halo cell
    /// at depth `d` beyond edge `e`, parameter `t`. Returns
    /// `(neighbor face, i, j)`.
    pub fn halo_source(&self, f: usize, e: Edge, d: i64, t: i64) -> (usize, i64, i64) {
        let n = self.n as i64;
        let link = self.links[f][e.idx()];
        let t2 = if link.reversed { n - 1 - t } else { t };
        let (i, j) = link.edge.interior_cell(n, d, t2);
        (link.face, i, j)
    }

    /// The 2x2 component transform for vector quantities crossing from
    /// face `g` into face `f`'s frame: returns `m` such that
    /// `[u_f, v_f] = m * [u_g, v_g]` (projected onto the shared tangent
    /// plane; entries in {-1, 0, 1}).
    pub fn vector_transform(&self, f: usize, g: usize) -> [[i64; 2]; 2] {
        let ff = &self.faces[f];
        let gf = &self.faces[g];
        [
            [dot(gf.u, ff.u), dot(gf.v, ff.u)],
            [dot(gf.u, ff.v), dot(gf.v, ff.v)],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_edge_is_linked_and_symmetric() {
        let g = CubeGeometry::new(8);
        for f in 0..6 {
            for e in Edge::ALL {
                let link = g.links[f][e.idx()];
                assert_ne!(link.face, usize::MAX);
                assert_ne!(link.face, f, "face linked to itself");
                // Symmetry: the neighbor's slot points back.
                let back = g.links[link.face][link.edge.idx()];
                assert_eq!(back.face, f);
                assert_eq!(back.edge, e);
                assert_eq!(back.reversed, link.reversed, "reversal is symmetric");
            }
        }
    }

    #[test]
    fn links_pair_into_twelve_edges() {
        let g = CubeGeometry::new(4);
        let mut pairs = HashSet::new();
        for f in 0..6 {
            for e in Edge::ALL {
                let link = g.links[f][e.idx()];
                let a = (f, e.idx());
                let b = (link.face, link.edge.idx());
                let key = if a < b { (a, b) } else { (b, a) };
                pairs.insert(key);
            }
        }
        assert_eq!(pairs.len(), 12, "a cube has 12 edges");
    }

    #[test]
    fn halo_source_lands_on_interior_cells() {
        let g = CubeGeometry::new(6);
        let n = 6i64;
        for f in 0..6 {
            for e in Edge::ALL {
                for d in 0..3 {
                    for t in 0..n {
                        let (nf, i, j) = g.halo_source(f, e, d, t);
                        assert!(nf < 6);
                        assert!((0..n).contains(&i) && (0..n).contains(&j),
                            "source ({i},{j}) outside face for f={f} e={e:?} d={d} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn halo_source_is_geometrically_adjacent() {
        // The 3-D distance between a halo cell's source centre and the
        // edge-adjacent interior cell of the receiving face must be small
        // (≤ ~2.24 lattice units for depth 0..1 with a fold), for every
        // edge. A wrong face or a flipped parametrization yields O(n).
        let n = 8usize;
        let g = CubeGeometry::new(n);
        let nn = n as i64;
        for f in 0..6 {
            for e in Edge::ALL {
                for t in 0..nn {
                    let (sf, si, sj) = g.halo_source(f, e, 0, t);
                    let src = g.faces[sf].cell_center(si as f64, sj as f64);
                    let (ii, ij) = e.interior_cell(nn, 0, t);
                    let dst = g.faces[f].cell_center(ii as f64, ij as f64);
                    let dist2: f64 = (0..3).map(|d| (src[d] - dst[d]).powi(2)).sum();
                    assert!(
                        dist2 <= 2.6,
                        "halo source too far: f={f} e={e:?} t={t} dist2={dist2}"
                    );
                }
            }
        }
    }

    #[test]
    fn halo_sources_within_an_edge_are_contiguous() {
        // Consecutive t must map to 3-D-adjacent source cells (unit
        // distance): catches off-by-one and direction bugs.
        let n = 8usize;
        let g = CubeGeometry::new(n);
        for f in 0..6 {
            for e in Edge::ALL {
                for t in 0..(n as i64 - 1) {
                    let (sf0, i0, j0) = g.halo_source(f, e, 0, t);
                    let (sf1, i1, j1) = g.halo_source(f, e, 0, t + 1);
                    assert_eq!(sf0, sf1);
                    let p0 = g.faces[sf0].cell_center(i0 as f64, j0 as f64);
                    let p1 = g.faces[sf1].cell_center(i1 as f64, j1 as f64);
                    let dist2: f64 = (0..3).map(|d| (p0[d] - p1[d]).powi(2)).sum();
                    assert!((dist2 - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn vector_transform_is_signed_permutation_like() {
        let g = CubeGeometry::new(4);
        for f in 0..6 {
            for e in Edge::ALL {
                let link = g.links[f][e.idx()];
                let m = g.vector_transform(f, link.face);
                for row in m {
                    for v in row {
                        assert!((-1..=1).contains(&v));
                    }
                }
            }
        }
    }

    #[test]
    fn cell_centers_lie_on_face_planes() {
        let n = 4usize;
        let g = CubeGeometry::new(n);
        for f in 0..6 {
            let c = g.faces[f].cell_center(0.0, 0.0);
            // One coordinate must be exactly 0 or n (the fixed plane).
            let on_plane = c
                .iter()
                .any(|&x| x.abs() < 1e-12 || (x - n as f64).abs() < 1e-12);
            assert!(on_plane, "face {f} origin cell {c:?} not on a cube plane");
        }
    }
}
