//! Concrete array storage with parametrized layout.
//!
//! Memory allocation in the paper (Section VI-A3, Fig. 8) is "parameterized
//! by several knobs": storage order (the FORTRAN I-contiguous layout "is
//! used since it generates wide loads on the largest dimension"), halo
//! padding, and pre-padding so that the first non-halo element is aligned
//! for coalesced access. [`Layout`] captures all three as data, so layout
//! decisions are schedule decisions, not code rewrites.

/// Axis identifiers for the three spatial dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// First horizontal dimension (east-west).
    I,
    /// Second horizontal dimension (north-south).
    J,
    /// Vertical dimension (pressure levels).
    K,
}

impl Axis {
    /// All axes in (I, J, K) order.
    pub const ALL: [Axis; 3] = [Axis::I, Axis::J, Axis::K];

    /// Index of this axis into `[i, j, k]`-ordered triples.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Axis::I => 0,
            Axis::J => 1,
            Axis::K => 2,
        }
    }
}

/// Which axis is unit-stride (innermost) in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageOrder {
    /// FORTRAN layout: I is contiguous, K slowest. The paper's choice.
    IContiguous,
    /// C-like layout: K is contiguous, I slowest.
    KContiguous,
    /// J contiguous (useful for sweeps of the computational-layout space).
    JContiguous,
}

impl StorageOrder {
    /// Axes ordered from innermost (unit stride) to outermost.
    fn inner_to_outer(self) -> [Axis; 3] {
        match self {
            StorageOrder::IContiguous => [Axis::I, Axis::J, Axis::K],
            StorageOrder::KContiguous => [Axis::K, Axis::J, Axis::I],
            StorageOrder::JContiguous => [Axis::J, Axis::I, Axis::K],
        }
    }
}

/// A concrete memory layout for a 3-D field.
///
/// Logical coordinates are *domain-relative*: `(0, 0, 0)` is the first
/// compute (non-halo) point; negative indices down to `-halo` address the
/// halo. The flat offset of the first compute point is aligned to
/// `alignment` elements via pre-padding, reproducing Fig. 8.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    /// Compute-domain extent per axis (without halo), `[ni, nj, nk]`.
    pub domain: [usize; 3],
    /// Halo width per axis, `[hi, hj, hk]`.
    pub halo: [usize; 3],
    /// Element strides per axis, `[si, sj, sk]`.
    pub strides: [usize; 3],
    /// Flat element offset of logical `(0, 0, 0)`.
    pub base: usize,
    /// Total elements to allocate (including halo, padding, pre-padding).
    pub len: usize,
    /// Storage order the strides were derived from.
    pub order: StorageOrder,
    /// Alignment (in elements) of the first compute point.
    pub alignment: usize,
}

impl Layout {
    /// Build a layout for `domain` compute points with `halo` cells per
    /// side, `order` storage order, and the first compute point aligned to
    /// `alignment` elements (`1` = no alignment padding).
    pub fn new(domain: [usize; 3], halo: [usize; 3], order: StorageOrder, alignment: usize) -> Self {
        assert!(alignment >= 1, "alignment must be at least 1 element");
        let padded = [
            domain[0] + 2 * halo[0],
            domain[1] + 2 * halo[1],
            domain[2] + 2 * halo[2],
        ];
        let mut strides = [0usize; 3];
        let mut stride = 1usize;
        for ax in order.inner_to_outer() {
            strides[ax.idx()] = stride;
            stride *= padded[ax.idx()];
        }
        let total = stride;
        // Flat offset of (0,0,0) without pre-padding.
        let origin: usize = (0..3).map(|d| halo[d] * strides[d]).sum();
        // Pre-pad so that the first compute point lands on an aligned
        // element (Fig. 8: "pre-padding [...] such that the first non-halo
        // element is aligned").
        let prepad = (alignment - origin % alignment) % alignment;
        Layout {
            domain,
            halo,
            strides,
            base: origin + prepad,
            len: total + prepad,
            order,
            alignment,
        }
    }

    /// Default FV3 layout: I-contiguous, 32-element alignment.
    pub fn fv3_default(domain: [usize; 3], halo: [usize; 3]) -> Self {
        Layout::new(domain, halo, StorageOrder::IContiguous, 32)
    }

    /// A horizontal field (a grid metric, FV3core's `IJ` field): the
    /// logical extent of [`new`](Self::new), so `contains` and the
    /// logical export see every level, but one `(i, j)` plane in memory.
    /// The K stride is 0: every level reads the plane, and a write at
    /// any level writes it. Only a `constant` container may have this
    /// layout (the executor refuses any other, see DESIGN §18.3).
    pub fn horizontal(domain: [usize; 3], halo: [usize; 3], order: StorageOrder, alignment: usize) -> Self {
        let plane = Layout::new([domain[0], domain[1], 1], [halo[0], halo[1], 0], order, alignment);
        let mut strides = plane.strides;
        strides[2] = 0;
        Layout {
            domain,
            halo,
            strides,
            ..plane
        }
    }

    /// Whether every level of this layout maps onto one plane
    /// ([`horizontal`](Self::horizontal)).
    pub fn is_horizontal(&self) -> bool {
        self.strides[2] == 0 && self.domain_len() > 0
    }

    /// Flat index of logical `(i, j, k)` (may be negative into the halo).
    ///
    /// Debug builds check halo bounds; release builds rely on the executor
    /// iterating only valid extents.
    #[inline]
    pub fn offset(&self, i: i64, j: i64, k: i64) -> usize {
        debug_assert!(self.contains(i, j, k), "({i},{j},{k}) outside layout");
        let p = [i, j, k];
        let mut off = self.base as i64;
        for (x, s) in p.iter().zip(self.strides.iter()) {
            off += x * *s as i64;
        }
        off as usize
    }

    /// Whether logical `(i, j, k)` addresses an allocated element.
    #[inline]
    pub fn contains(&self, i: i64, j: i64, k: i64) -> bool {
        let p = [i, j, k];
        (0..3).all(|d| p[d] >= -(self.halo[d] as i64) && p[d] < (self.domain[d] + self.halo[d]) as i64)
    }

    /// Stride of `axis` in elements.
    #[cfg(test)]
    fn stride(&self, axis: Axis) -> usize {
        self.strides[axis.idx()]
    }

    /// The unit-stride axis.
    pub fn contiguous_axis(&self) -> Axis {
        self.order.inner_to_outer()[0]
    }

    /// Number of compute-domain elements (excluding halo).
    pub fn domain_len(&self) -> usize {
        self.domain.iter().product()
    }
}

/// A 3-D field of `f64` with an explicit [`Layout`].
#[derive(Debug, Clone, PartialEq)]
pub struct Array3 {
    data: Vec<f64>,
    layout: Layout,
}

/// The empty array (no elements, nothing allocated): what
/// `std::mem::take` leaves behind while a field is lent out.
impl Default for Array3 {
    fn default() -> Self {
        Array3::zeros(Layout::new([0; 3], [0; 3], StorageOrder::IContiguous, 1))
    }
}

/// One compute-domain row of an [`Array3`], whatever its storage order.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    data: &'a [f64],
    stride: usize,
}

impl Row<'_> {
    /// Element `i` of the row (`0 <= i < ni`).
    #[inline]
    pub fn at(&self, i: usize) -> f64 {
        self.data[i * self.stride]
    }
}

impl Array3 {
    /// Allocate a zero-filled array with the given layout.
    pub fn zeros(layout: Layout) -> Self {
        Array3 {
            data: vec![0.0; layout.len],
            layout,
        }
    }

    /// Allocate with every element (halo included) set to `value`.
    pub fn filled(layout: Layout, value: f64) -> Self {
        Array3 {
            data: vec![value; layout.len],
            layout,
        }
    }

    /// Allocate and initialize compute-domain elements from a function of
    /// the logical coordinates. Halo stays zero.
    pub fn from_fn(layout: Layout, f: impl Fn(i64, i64, i64) -> f64) -> Self {
        let mut a = Array3::zeros(layout);
        let [ni, nj, nk] = a.layout.domain;
        for k in 0..nk as i64 {
            for j in 0..nj as i64 {
                for i in 0..ni as i64 {
                    a.set(i, j, k, f(i, j, k));
                }
            }
        }
        a
    }

    /// The layout.
    #[inline]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Read logical `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: i64, j: i64, k: i64) -> f64 {
        self.data[self.layout.offset(i, j, k)]
    }

    /// Write logical `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: i64, j: i64, k: i64, v: f64) {
        let off = self.layout.offset(i, j, k);
        self.data[off] = v;
    }

    /// The compute-domain row `(0..ni, j, k)`, for loops that would
    /// otherwise resolve the layout once per element in
    /// [`get`](Self::get).
    #[inline]
    pub fn row(&self, j: i64, k: i64) -> Row<'_> {
        let stride = self.layout.strides[0];
        let start = self.layout.offset(0, j, k);
        let len = match self.layout.domain[0] {
            0 => 0,
            ni => (ni - 1) * stride + 1,
        };
        Row {
            data: &self.data[start..start + len],
            stride,
        }
    }

    /// Where the column `(i, j, 0..nk)` sits in [`raw`](Self::raw)
    /// storage: the flat index of its level 0 and the K stride.
    #[inline]
    pub fn column(&self, i: i64, j: i64) -> (usize, usize) {
        (self.layout.offset(i, j, 0), self.layout.strides[2])
    }

    /// Raw storage (including halo and padding).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy every element (halo included) from `src`, which must share the
    /// same layout.
    pub fn copy_from(&mut self, src: &Array3) {
        assert_eq!(self.layout, src.layout, "layout mismatch in copy_from");
        self.data.copy_from_slice(&src.data);
    }

    /// Maximum absolute difference over the compute domain.
    pub fn max_abs_diff(&self, other: &Array3) -> f64 {
        assert_eq!(self.layout.domain, other.layout().domain);
        let [ni, nj, nk] = self.layout.domain;
        let mut m = 0.0f64;
        for k in 0..nk as i64 {
            for j in 0..nj as i64 {
                for i in 0..ni as i64 {
                    m = m.max((self.get(i, j, k) - other.get(i, j, k)).abs());
                }
            }
        }
        m
    }

    /// Export every element (halo included) in canonical *logical* order:
    /// k outermost, then j, then i innermost, each spanning
    /// `[-halo, domain + halo)`. The result is independent of the storage
    /// order, alignment, and padding of this array's [`Layout`], so two
    /// arrays holding the same logical values export identical vectors —
    /// the property savepoint serialization relies on.
    pub fn export_logical(&self) -> Vec<f64> {
        let [ni, nj, nk] = self.layout.domain;
        let [hi, hj, hk] = self.layout.halo;
        let mut out = Vec::with_capacity((ni + 2 * hi) * (nj + 2 * hj) * (nk + 2 * hk));
        for k in -(hk as i64)..(nk + hk) as i64 {
            for j in -(hj as i64)..(nj + hj) as i64 {
                for i in -(hi as i64)..(ni + hi) as i64 {
                    out.push(self.get(i, j, k));
                }
            }
        }
        out
    }

    /// Inverse of [`Array3::export_logical`]: fill every element (halo
    /// included) from `values` in canonical logical order. `values` must
    /// have exactly one element per logical coordinate.
    pub fn import_logical(&mut self, values: &[f64]) {
        let [ni, nj, nk] = self.layout.domain;
        let [hi, hj, hk] = self.layout.halo;
        let expect = (ni + 2 * hi) * (nj + 2 * hj) * (nk + 2 * hk);
        assert_eq!(
            values.len(),
            expect,
            "import_logical: {} values for a {expect}-element logical extent",
            values.len()
        );
        let mut it = values.iter();
        for k in -(hk as i64)..(nk + hk) as i64 {
            for j in -(hj as i64)..(nj + hj) as i64 {
                for i in -(hi as i64)..(ni + hi) as i64 {
                    self.set(i, j, k, *it.next().unwrap());
                }
            }
        }
    }

    /// True when every *logical* element (halo included) is finite.
    ///
    /// Scanning `raw()` instead is layout-dependent: alignment padding
    /// and storage-order striding put physical elements in the slice
    /// that no logical coordinate maps to, so the answer would change
    /// with the array's [`Layout`] rather than its contents.
    pub fn all_finite(&self) -> bool {
        let [ni, nj, nk] = self.layout.domain;
        let [hi, hj, hk] = self.layout.halo;
        for k in -(hk as i64)..(nk + hk) as i64 {
            for j in -(hj as i64)..(nj + hj) as i64 {
                for i in -(hi as i64)..(ni + hi) as i64 {
                    if !self.get(i, j, k).is_finite() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Sum over the compute domain (for conservation checks).
    pub fn domain_sum(&self) -> f64 {
        let [ni, nj, nk] = self.layout.domain;
        let mut s = 0.0f64;
        for k in 0..nk as i64 {
            for j in 0..nj as i64 {
                for i in 0..ni as i64 {
                    s += self.get(i, j, k);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i_contiguous_has_unit_i_stride() {
        let l = Layout::new([8, 6, 4], [3, 3, 0], StorageOrder::IContiguous, 1);
        assert_eq!(l.stride(Axis::I), 1);
        assert_eq!(l.stride(Axis::J), 8 + 6);
        assert_eq!(l.stride(Axis::K), (8 + 6) * (6 + 6));
        assert_eq!(l.contiguous_axis(), Axis::I);
    }

    #[test]
    fn k_contiguous_has_unit_k_stride() {
        let l = Layout::new([8, 6, 4], [1, 1, 0], StorageOrder::KContiguous, 1);
        assert_eq!(l.stride(Axis::K), 1);
        assert_eq!(l.contiguous_axis(), Axis::K);
    }

    #[test]
    fn alignment_prepads_first_compute_point() {
        for align in [1usize, 8, 32, 64] {
            let l = Layout::new([19, 7, 5], [3, 3, 1], StorageOrder::IContiguous, align);
            assert_eq!(l.base % align, 0, "align {align}");
            assert!(l.len >= l.base);
        }
    }

    #[test]
    fn offsets_are_unique_within_allocation() {
        // The layout must be a bijection from logical coords to flat
        // offsets (no aliasing), for every storage order.
        for order in [
            StorageOrder::IContiguous,
            StorageOrder::KContiguous,
            StorageOrder::JContiguous,
        ] {
            let l = Layout::new([5, 4, 3], [2, 1, 0], order, 16);
            let mut seen = std::collections::HashSet::new();
            for k in 0..3i64 {
                for j in -1..5i64 {
                    for i in -2..7i64 {
                        let off = l.offset(i, j, k);
                        assert!(off < l.len);
                        assert!(seen.insert(off), "aliasing at ({i},{j},{k})");
                    }
                }
            }
        }
    }

    #[test]
    fn all_finite_ignores_physical_padding() {
        // Regression: finiteness checks must scan logical coordinates,
        // not `raw()`. With alignment padding, physical slots exist that
        // no logical coordinate maps to; poisoning every such slot with
        // NaN must not change the answer for any storage order.
        for order in [
            StorageOrder::IContiguous,
            StorageOrder::KContiguous,
            StorageOrder::JContiguous,
        ] {
            let l = Layout::new([5, 4, 3], [2, 1, 0], order, 32);
            let mut a = Array3::filled(l.clone(), 1.0);
            let logical: std::collections::HashSet<usize> = {
                let mut s = std::collections::HashSet::new();
                for k in 0..3i64 {
                    for j in -1..5i64 {
                        for i in -2..7i64 {
                            s.insert(l.offset(i, j, k));
                        }
                    }
                }
                s
            };
            assert!(
                logical.len() < a.raw().len(),
                "layout must actually have padding for this test to bite"
            );
            for (off, v) in a.raw_mut().iter_mut().enumerate() {
                if !logical.contains(&off) {
                    *v = f64::NAN;
                }
            }
            assert!(a.all_finite(), "{order:?}: padding NaNs leaked");
            a.set(2, 2, 1, f64::INFINITY);
            assert!(!a.all_finite(), "{order:?}: real non-finite missed");
        }
    }

    #[test]
    fn halo_is_addressable() {
        let l = Layout::fv3_default([12, 12, 8], [3, 3, 0]);
        assert!(l.contains(-3, -3, 0));
        assert!(l.contains(14, 14, 7));
        assert!(!l.contains(-4, 0, 0));
        assert!(!l.contains(0, 0, 8));
    }

    #[test]
    fn array_roundtrip_and_sum() {
        let l = Layout::fv3_default([4, 3, 2], [1, 1, 0]);
        let mut a = Array3::zeros(l);
        a.set(0, 0, 0, 2.5);
        a.set(3, 2, 1, -1.5);
        a.set(-1, -1, 0, 99.0); // halo; not in domain_sum
        assert_eq!(a.get(0, 0, 0), 2.5);
        assert_eq!(a.get(3, 2, 1), -1.5);
        assert_eq!(a.domain_sum(), 1.0);
    }

    #[test]
    fn from_fn_fills_domain() {
        let l = Layout::fv3_default([3, 3, 3], [1, 1, 1]);
        let a = Array3::from_fn(l, |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(a.get(2, 1, 0), 12.0);
        assert_eq!(a.get(0, 0, 2), 200.0);
        assert_eq!(a.get(-1, 0, 0), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_differences() {
        let l = Layout::fv3_default([4, 4, 4], [0, 0, 0]);
        let a = Array3::from_fn(l.clone(), |i, _, _| i as f64);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set(2, 3, 1, 100.0);
        assert!((a.max_abs_diff(&b) - 98.0).abs() < 1e-12);
    }

    #[test]
    fn export_import_roundtrips_across_storage_orders() {
        // Logical export must not depend on the memory layout, and
        // import must restore every element (halo included) bitwise.
        let f = |i: i64, j: i64, k: i64| 0.1 + i as f64 * 1.25 - j as f64 * 0.75 + k as f64;
        let fill = |a: &mut Array3| {
            let [ni, nj, nk] = a.layout().domain;
            let [hi, hj, hk] = a.layout().halo;
            for k in -(hk as i64)..(nk + hk) as i64 {
                for j in -(hj as i64)..(nj + hj) as i64 {
                    for i in -(hi as i64)..(ni + hi) as i64 {
                        a.set(i, j, k, f(i, j, k));
                    }
                }
            }
        };
        let li = Layout::new([5, 4, 3], [2, 1, 0], StorageOrder::IContiguous, 32);
        let lk = Layout::new([5, 4, 3], [2, 1, 0], StorageOrder::KContiguous, 1);
        let mut a = Array3::zeros(li.clone());
        let mut b = Array3::zeros(lk);
        fill(&mut a);
        fill(&mut b);
        let ea = a.export_logical();
        assert_eq!(ea.len(), (5 + 4) * (4 + 2) * 3);
        assert_eq!(ea, b.export_logical(), "export is layout-independent");

        let mut c = Array3::zeros(li);
        c.import_logical(&ea);
        for k in 0..3i64 {
            for j in -1..5i64 {
                for i in -2..7i64 {
                    assert_eq!(c.get(i, j, k).to_bits(), f(i, j, k).to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "import_logical")]
    fn import_rejects_wrong_length() {
        let mut a = Array3::zeros(Layout::fv3_default([4, 4, 2], [1, 1, 0]));
        a.import_logical(&[0.0; 3]);
    }

    #[test]
    fn layouts_with_same_domain_different_order_hold_same_data() {
        let li = Layout::new([6, 5, 4], [2, 2, 1], StorageOrder::IContiguous, 32);
        let lk = Layout::new([6, 5, 4], [2, 2, 1], StorageOrder::KContiguous, 32);
        let f = |i: i64, j: i64, k: i64| (3 * i - 7 * j + k) as f64;
        let a = Array3::from_fn(li, f);
        let b = Array3::from_fn(lk, f);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }
}
