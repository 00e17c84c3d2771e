//! Alpha-beta interconnect model for halo exchanges.
//!
//! The weak-scaling study (Fig. 11) holds the per-rank domain fixed, so the
//! per-rank halo volume — and with it the communication time — stays nearly
//! constant with node count ("nearly perfect weak scaling (as per-node
//! communication remains similar)"). The model is the classic
//! `t = alpha * messages + bytes / bandwidth`, with an optional overlap
//! factor because FV3 issues nonblocking exchanges that partially hide
//! behind compute.

use crate::spec::NetworkSpec;

/// Cost model for point-to-point halo exchanges.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    spec: NetworkSpec,
    /// Fraction of communication hidden behind computation, in `[0, 1)`.
    /// FV3's acoustic loop posts nonblocking exchanges early (Section II).
    pub overlap: f64,
}

impl NetworkModel {
    /// Build a model with the given overlap fraction.
    pub fn new(spec: NetworkSpec, overlap: f64) -> Self {
        assert!((0.0..1.0).contains(&overlap), "overlap must be in [0,1)");
        NetworkModel { spec, overlap }
    }

    /// The underlying interconnect spec.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Wire time for one rank sending `messages` messages totalling
    /// `bytes` bytes, before overlap.
    fn wire_time(&self, messages: u64, bytes: u64) -> f64 {
        self.spec.latency * messages as f64 + bytes as f64 / self.spec.bandwidth
    }

    /// Exposed (non-overlapped) communication time.
    pub fn exposed_time(&self, messages: u64, bytes: u64) -> f64 {
        self.wire_time(messages, bytes) * (1.0 - self.overlap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;

    #[test]
    fn wire_time_has_latency_and_bandwidth_terms() {
        let m = NetworkModel::new(NetworkSpec::aries(), 0.0);
        let lat_only = m.wire_time(10, 0);
        assert!((lat_only - 10.0 * m.spec().latency).abs() < 1e-15);
        let bw_only = m.wire_time(0, 1_000_000_000);
        assert!((bw_only - 1e9 / m.spec().bandwidth).abs() < 1e-12);
    }

    #[test]
    fn overlap_reduces_exposed_time() {
        let none = NetworkModel::new(NetworkSpec::aries(), 0.0);
        let half = NetworkModel::new(NetworkSpec::aries(), 0.5);
        let t0 = none.exposed_time(4, 1 << 20);
        let t1 = half.exposed_time(4, 1 << 20);
        assert!((t1 - t0 / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn full_overlap_is_rejected() {
        let _ = NetworkModel::new(NetworkSpec::aries(), 1.0);
    }

    #[test]
    fn weak_scaling_is_flat_in_node_count() {
        // Fixed per-rank halo: the model cost must not depend on how many
        // ranks exist, only on the per-rank message pattern.
        let m = NetworkModel::new(NetworkSpec::aries(), 0.3);
        let per_rank = m.exposed_time(8, 192 * 3 * 80 * 8 * 4);
        // Identical at "54 nodes" and "2400 nodes" by construction.
        assert!(per_rank > 0.0);
    }
}
