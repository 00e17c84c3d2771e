//! Substep timing accounting for the parallel rank schedule.
//!
//! A rank-team worker posts every send of its ranks, then, rank by rank,
//! waits for (and unpacks) the rank's inbound halos and runs its substep
//! graph. [`OverlapStats`] sums those phases across ranks and substeps;
//! the driver exposes them per step. A wait that is long next to the run
//! is latency the team's order did not hide.

use std::time::Duration;

/// Aggregated rank-team timings for one or more parallel steps.
///
/// All fields are *sums across ranks* (rank-seconds): with `R` ranks on
/// real threads, one wall-clock second of fully-busy execution adds `R`
/// seconds here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// Time spent packing + posting sends.
    pub pack_seconds: f64,
    /// Compute run ahead of the halo wait. Every rank receives before it
    /// computes, so nothing records any: 0 unless set by hand. Kept with
    /// [`efficiency`](Self::efficiency) for the benchmark rows that read
    /// them.
    pub interior_seconds: f64,
    /// Time spent receiving, unpacking and folding the halos.
    pub halo_wait_seconds: f64,
    /// Time spent running the substep graph.
    pub run_seconds: f64,
    /// Number of substeps aggregated (sum over ranks).
    pub substeps: u64,
}

impl OverlapStats {
    /// Record one rank's substep from raw durations.
    pub fn record_substep(&mut self, pack: Duration, halo_wait: Duration, run: Duration) {
        self.pack_seconds += pack.as_secs_f64();
        self.halo_wait_seconds += halo_wait.as_secs_f64();
        self.run_seconds += run.as_secs_f64();
        self.substeps += 1;
    }

    /// Fraction of the halo latency hidden behind interior compute:
    /// `interior / (interior + halo_wait)`, 0.0 when no time was recorded
    /// at all — and for every recorded substep, which runs no interior.
    pub fn efficiency(&self) -> f64 {
        let denom = self.interior_seconds + self.halo_wait_seconds;
        if denom <= 0.0 {
            0.0
        } else {
            self.interior_seconds / denom
        }
    }

    /// Total accounted rank-seconds.
    #[cfg(test)]
    fn total_seconds(&self) -> f64 {
        self.pack_seconds + self.interior_seconds + self.halo_wait_seconds + self.run_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_hidden_fraction() {
        let s = OverlapStats {
            interior_seconds: 0.030,
            halo_wait_seconds: 0.010,
            ..OverlapStats::default()
        };
        assert!((s.efficiency() - 0.75).abs() < 1e-12);
        // A recorded substep runs no interior: nothing is hidden.
        let mut r = OverlapStats::default();
        r.record_substep(
            Duration::from_millis(1),
            Duration::from_millis(10),
            Duration::from_millis(5),
        );
        assert_eq!((r.interior_seconds, r.efficiency(), r.substeps), (0.0, 0.0, 1));
    }

    #[test]
    fn empty_stats_report_zero_not_nan() {
        let s = OverlapStats::default();
        assert_eq!(s.efficiency(), 0.0);
        assert_eq!(s.total_seconds(), 0.0);
    }

    /// The driver merges its ranks' substeps into one sum, one
    /// `record_substep` each.
    #[test]
    fn merge_accumulates_rank_seconds() {
        let mut a = OverlapStats::default();
        a.record_substep(
            Duration::ZERO,
            Duration::from_millis(10),
            Duration::from_millis(20),
        );
        a.record_substep(
            Duration::from_millis(5),
            Duration::from_millis(10),
            Duration::from_millis(30),
        );
        assert_eq!(a.substeps, 2);
        assert!((a.total_seconds() - 0.075).abs() < 1e-12);
        assert!((a.run_seconds - 0.050).abs() < 1e-12);
    }
}
