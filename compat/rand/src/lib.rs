//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the narrow API subset it actually uses:
//! [`SeedableRng::seed_from_u64`], [`rngs::SmallRng`], and
//! [`Rng::gen_range`] over integer and float ranges. The generator is a
//! SplitMix64 — deterministic, seedable, and statistically fine for
//! randomized testing (the only use in this workspace). It does NOT
//! produce the same streams as the real `rand` crate; tests must treat
//! values as arbitrary, never as fixed expectations.

use std::ops::{Range, RangeInclusive};

/// Types that can be drawn uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Raw 64-bit generator interface.
pub trait RngCore {
    /// Next raw 64 bits.
    fn next_u64(&mut self) -> u64;
}

/// User-facing random-value methods (subset of rand 0.8's `Rng`).
pub trait Rng: RngCore {
    /// Uniform draw from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Uniform draw of the output type's full "unit" domain: `f64` in
    /// `[0, 1)`, `bool` fair coin.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Bernoulli draw with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types with a canonical "standard" distribution for [`Rng::gen`].
pub trait Standard {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Seedable construction (subset of rand's `SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

#[inline]
fn unit_f64(bits: u64) -> f64 {
    // 53 high-quality mantissa bits -> [0, 1).
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Types drawable uniformly from a range. The single blanket impl of
/// [`SampleRange`] over this trait (mirroring real rand) is what lets
/// `rng.gen_range(200.0..800.0)` infer `f64` via literal fallback.
pub trait SampleUniform: Sized + PartialOrd {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "gen_range: empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + (unit_f64(rng.next_u64()) as $t) * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                lo + (unit_f64(rng.next_u64()) as $t) * (hi - lo)
            }
        }
    )*};
}

float_uniform!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, seedable generator (SplitMix64 core).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        state: u64,
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(state: u64) -> Self {
            SmallRng { state }
        }
    }

    /// Alias used by code written against `StdRng`.
    pub type StdRng = SmallRng;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::SmallRng;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&x));
            let n: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&n));
            let u: usize = rng.gen_range(1..=4);
            assert!((1..=4).contains(&u));
        }
    }

    #[test]
    fn unit_draws_cover_the_interval() {
        let mut rng = SmallRng::seed_from_u64(11);
        let draws: Vec<f64> = (0..2000).map(|_| rng.gen::<f64>()).collect();
        assert!(draws.iter().all(|x| (0.0..1.0).contains(x)));
        assert!(draws.iter().any(|&x| x < 0.1));
        assert!(draws.iter().any(|&x| x > 0.9));
    }
}
