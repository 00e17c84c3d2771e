//! Estimators, as pure functions over samples.
//!
//! Host interference on a shared VM is one-sided (it only ever adds time)
//! and arrives in regimes lasting tens of seconds, so a plain median moves
//! by tens of percent between identical runs while the quietest window of
//! a run does not. The gated timing estimator is therefore the
//! *best-block median* ([`bbm`]); plain percentiles are reported beside it,
//! ungated.

/// Median of `v` (mean of the two middle values for an even count).
/// Sorts in place; `v` must be non-empty and finite.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Best-block median and its noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bbm {
    /// Minimum over blocks of the block median.
    pub value: f64,
    /// `(median of block medians − value) / value`: how far a typical
    /// window of this run sat above its quietest one.
    pub noise: f64,
    /// Whole blocks used.
    pub blocks: usize,
}

/// Median of each whole block of `block` consecutive samples, in order.
/// A ragged last block is dropped.
pub fn block_medians(samples: &[f64], block: usize) -> Vec<f64> {
    assert!(block > 0, "block size must be positive");
    samples
        .chunks_exact(block)
        .map(|c| median(&mut c.to_vec()))
        .collect()
}

/// Best-block median: the minimum of [`block_medians`]. `None` when there
/// is no whole block.
pub fn bbm(samples: &[f64], block: usize) -> Option<Bbm> {
    let mut medians = block_medians(samples, block);
    if medians.is_empty() {
        return None;
    }
    let blocks = medians.len();
    let mid = median(&mut medians);
    let value = medians[0];
    Some(Bbm {
        value,
        noise: (mid - value) / value,
        blocks,
    })
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the value at rank `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Tail percentiles a run may report, highest first.
pub const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest of [`TAILS`] with at least ten samples beyond it among
/// `n`; `None` when even p75 has fewer (n < 40).
pub fn resolvable_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Plain nearest-rank percentile of unsorted samples; 0 for none.
pub fn pct(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn bbm_is_min_of_block_medians_with_noise_floor() {
        // Blocks of 3: medians 2, 5, 3 -> value 2, median-of-medians 3.
        let s = [1.0, 2.0, 9.0, 5.0, 5.0, 7.0, 3.0, 8.0, 1.0];
        let b = bbm(&s, 3).unwrap();
        assert_eq!(
            b,
            Bbm {
                value: 2.0,
                noise: 0.5,
                blocks: 3
            }
        );
    }

    #[test]
    fn bbm_drops_ragged_last_block() {
        // The trailing 0.1 would win if the partial block counted.
        let s = [4.0, 4.0, 6.0, 6.0, 0.1];
        let b = bbm(&s, 2).unwrap();
        assert_eq!((b.value, b.blocks), (4.0, 2));
        assert_eq!(b.noise, 0.25);
        assert!(bbm(&s[..1], 2).is_none());
    }

    #[test]
    fn bbm_keeps_in_program_bimodality_visible() {
        // A slow mode inside every block moves the block median, so a
        // min-of-samples would hide what BBM still shows.
        let s = [1.0, 3.0, 3.0, 1.0, 3.0, 3.0];
        assert_eq!(bbm(&s, 3).unwrap().value, 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(resolvable_tail(39), None);
        assert_eq!(resolvable_tail(40), Some(75.0));
        assert_eq!(resolvable_tail(99), Some(75.0));
        assert_eq!(resolvable_tail(100), Some(90.0));
        assert_eq!(resolvable_tail(199), Some(90.0));
        assert_eq!(resolvable_tail(200), Some(95.0));
        assert_eq!(resolvable_tail(1000), Some(99.0));
        assert_eq!(resolvable_tail(10_000), Some(99.9));
    }
}
