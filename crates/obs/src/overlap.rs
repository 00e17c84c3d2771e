//! Compute/communication overlap accounting for the parallel rank
//! schedule.
//!
//! When the driver runs ranks on real threads it splits each acoustic
//! substep into *interior* compute (independent of the halo) and *rind*
//! compute (waits for the exchange). The interesting number is how much
//! of the halo latency the interior work hides: a rank that spends
//! 900 µs computing its interior and then only 50 µs blocked in
//! `recv` has overlapped most of an exchange that costs the sequential
//! schedule its full wire time. [`OverlapStats`] aggregates those
//! timings across ranks and substeps; the driver exposes them per step.

use std::time::Duration;

/// Aggregated overlap timings for one or more parallel steps.
///
/// All fields are *sums across ranks* (rank-seconds): with `R` ranks on
/// real threads, one wall-clock second of fully-busy execution adds `R`
/// seconds here. Ratios of these sums are therefore fleet-wide averages
/// weighted by actual time, which is what the efficiency metric wants.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// Time spent packing + posting sends (before interior compute).
    pub pack_seconds: f64,
    /// Time spent in interior compute while the exchange was in flight.
    pub interior_seconds: f64,
    /// Time spent blocked in `recv` *after* interior compute finished —
    /// the unhidden remainder of the halo latency.
    pub halo_wait_seconds: f64,
    /// Time spent unpacking, folding corners, and running rind compute.
    pub rind_seconds: f64,
    /// Number of substeps aggregated (sum over ranks).
    pub substeps: u64,
    /// Substeps whose split had a nonempty interior program.
    pub substeps_with_interior: u64,
}

impl OverlapStats {
    /// Fold another sample (e.g. one rank's substep) into this one.
    pub fn merge(&mut self, other: &OverlapStats) {
        self.pack_seconds += other.pack_seconds;
        self.interior_seconds += other.interior_seconds;
        self.halo_wait_seconds += other.halo_wait_seconds;
        self.rind_seconds += other.rind_seconds;
        self.substeps += other.substeps;
        self.substeps_with_interior += other.substeps_with_interior;
    }

    /// Record one rank's substep from raw durations.
    pub fn record_substep(
        &mut self,
        pack: Duration,
        interior: Duration,
        halo_wait: Duration,
        rind: Duration,
        had_interior: bool,
    ) {
        self.pack_seconds += pack.as_secs_f64();
        self.interior_seconds += interior.as_secs_f64();
        self.halo_wait_seconds += halo_wait.as_secs_f64();
        self.rind_seconds += rind.as_secs_f64();
        self.substeps += 1;
        if had_interior {
            self.substeps_with_interior += 1;
        }
    }

    /// Fraction of the halo latency hidden behind interior compute:
    /// `interior / (interior + halo_wait)`. 1.0 means the exchange was
    /// fully drained by the time the interior finished; 0.0 means no
    /// compute ran ahead of the wait (the sequential schedule's shape).
    /// Returns 0.0 when no time was recorded at all.
    pub fn efficiency(&self) -> f64 {
        let denom = self.interior_seconds + self.halo_wait_seconds;
        if denom <= 0.0 {
            0.0
        } else {
            self.interior_seconds / denom
        }
    }

    /// Total accounted rank-seconds.
    pub fn total_seconds(&self) -> f64 {
        self.pack_seconds + self.interior_seconds + self.halo_wait_seconds + self.rind_seconds
    }

    /// Publish into `m`: `overlap_interior_seconds`,
    /// `overlap_halo_wait_seconds`, `overlap_efficiency`.
    pub fn publish(&self, m: &crate::MetricsRegistry) {
        m.gauge_set("overlap_interior_seconds", &[], self.interior_seconds);
        m.gauge_set("overlap_halo_wait_seconds", &[], self.halo_wait_seconds);
        m.gauge_set("overlap_efficiency", &[], self.efficiency());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_is_hidden_fraction() {
        let mut s = OverlapStats::default();
        s.record_substep(
            Duration::from_millis(1),
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(5),
            true,
        );
        assert!((s.efficiency() - 0.75).abs() < 1e-12);
        assert_eq!(s.substeps, 1);
        assert_eq!(s.substeps_with_interior, 1);
    }

    #[test]
    fn empty_stats_report_zero_not_nan() {
        let s = OverlapStats::default();
        assert_eq!(s.efficiency(), 0.0);
        assert_eq!(s.total_seconds(), 0.0);
    }

    #[test]
    fn merge_accumulates_rank_seconds() {
        let mut a = OverlapStats::default();
        a.record_substep(
            Duration::ZERO,
            Duration::from_millis(10),
            Duration::from_millis(10),
            Duration::ZERO,
            true,
        );
        let mut b = OverlapStats::default();
        b.record_substep(
            Duration::ZERO,
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::ZERO,
            false,
        );
        a.merge(&b);
        assert_eq!(a.substeps, 2);
        assert_eq!(a.substeps_with_interior, 1);
        assert!((a.efficiency() - 40.0 / 60.0).abs() < 1e-12);
    }
}
