//! Labeled metrics: counters, gauges, and histograms with per-timestep
//! JSONL emission.
//!
//! A [`MetricsRegistry`] is a cheap-to-clone shared handle; label sets
//! are ordinary `("key", "value")` slices so call sites stay terse:
//!
//! ```
//! let m = obs::MetricsRegistry::new();
//! m.counter_add("halo_bytes", &[("orientation", "east")], 8192);
//! m.gauge_high_water("store_bytes", &[], 1.5e6);
//! m.observe("kernel_wall_us", &[("module", "c_sw")], 12.5);
//! let line_count = obs::emit_jsonl(&m, 0).lines().count();
//! assert_eq!(line_count, 3);
//! ```
//!
//! [`emit_jsonl`] renders one JSON object per metric (deterministic
//! order), stamped with the timestep — append it to `RUN_metrics.jsonl`
//! each step and every metric becomes a time series. Library code (the
//! halo updater, the driver) records into the registry its run carries
//! (`machine::RunContext::metrics`) and skips the work when there is none.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// Metric identity: name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    l.sort();
    (name.to_string(), l)
}

/// Aggregated distribution of observed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramData {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistogramData {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of observed values (0 when empty).
    fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, HistogramData>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Thread-safe metrics registry (shared handle; clones alias).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to a monotonically increasing counter.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        *lock(&self.inner).counters.entry(key(name, labels)).or_insert(0) += v;
    }

    /// Current counter value (0 if never touched).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        lock(&self.inner)
            .counters
            .get(&key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        lock(&self.inner).gauges.insert(key(name, labels), v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value — the
    /// high-water-mark pattern (allocation peaks, max wind, …).
    pub fn gauge_high_water(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let mut r = lock(&self.inner);
        let e = r.gauges.entry(key(name, labels)).or_insert(f64::NEG_INFINITY);
        if v > *e {
            *e = v;
        }
    }

    /// Current gauge value, if set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        lock(&self.inner).gauges.get(&key(name, labels)).copied()
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        lock(&self.inner)
            .histograms
            .entry(key(name, labels))
            .or_default()
            .observe(v);
    }

    /// Aggregated histogram data, if any observation was made.
    #[cfg(test)]
    fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<HistogramData> {
        lock(&self.inner).histograms.get(&key(name, labels)).copied()
    }

    /// Drop every recorded metric.
    pub fn clear(&self) {
        let mut r = lock(&self.inner);
        r.counters.clear();
        r.gauges.clear();
        r.histograms.clear();
    }
}

fn write_labels(out: &mut String, labels: &[(String, String)]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json::string(k), json::string(v));
    }
    out.push('}');
}

/// Render every metric in `registry` as one JSONL block stamped with
/// `step`: one line per series, deterministic (sorted) order, schema
/// `{"step","kind","name","labels","value"}` where histogram values are
/// `{"count","sum","min","max","mean"}` objects.
pub fn emit_jsonl(registry: &MetricsRegistry, step: u64) -> String {
    let r = lock(&registry.inner);
    let mut out = String::new();
    let mut line = |kind: &str, (name, labels): &Key, value: String| {
        let mut l = String::new();
        let _ = write!(
            l,
            "{{\"step\":{step},\"kind\":\"{kind}\",\"name\":{},\"labels\":",
            json::string(name)
        );
        write_labels(&mut l, labels);
        let _ = write!(l, ",\"value\":{value}}}");
        out.push_str(&l);
        out.push('\n');
    };
    for (k, v) in &r.counters {
        line("counter", k, format!("{v}"));
    }
    for (k, v) in &r.gauges {
        line("gauge", k, format!("{v}"));
    }
    for (k, h) in &r.histograms {
        line(
            "histogram",
            k,
            format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean()
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let m = MetricsRegistry::new();
        m.counter_add("halo_bytes", &[("orientation", "east")], 10);
        m.counter_add("halo_bytes", &[("orientation", "east")], 5);
        m.counter_add("halo_bytes", &[("orientation", "west")], 3);
        assert_eq!(m.counter_value("halo_bytes", &[("orientation", "east")]), 15);
        assert_eq!(m.counter_value("halo_bytes", &[("orientation", "west")]), 3);
        assert_eq!(m.counter_value("halo_bytes", &[("orientation", "north")]), 0);
        // Label order must not matter.
        m.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(m.counter_value("x", &[("b", "2"), ("a", "1")]), 1);
    }

    #[test]
    fn gauge_high_water_only_rises() {
        let m = MetricsRegistry::new();
        m.gauge_high_water("alloc", &[], 10.0);
        m.gauge_high_water("alloc", &[], 5.0);
        assert_eq!(m.gauge_value("alloc", &[]), Some(10.0));
        m.gauge_high_water("alloc", &[], 12.0);
        assert_eq!(m.gauge_value("alloc", &[]), Some(12.0));
        m.gauge_set("alloc", &[], 1.0);
        assert_eq!(m.gauge_value("alloc", &[]), Some(1.0));
    }

    #[test]
    fn histograms_aggregate_observations() {
        let m = MetricsRegistry::new();
        for v in [1.0, 3.0, 2.0] {
            m.observe("wall_us", &[("module", "c_sw")], v);
        }
        let h = m.histogram("wall_us", &[("module", "c_sw")]).unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 6.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean(), 2.0);
    }

    #[test]
    fn emit_jsonl_is_parseable_and_stamped() {
        let m = MetricsRegistry::new();
        m.counter_add("msgs", &[("rank", "0")], 7);
        m.gauge_set("cfl", &[], 0.25);
        m.observe("iters", &[], 100.0);
        let text = emit_jsonl(&m, 42);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            let v = json::parse(l).expect("line parses");
            assert_eq!(v.get("step").unwrap().as_u64(), Some(42));
            assert!(v.get("kind").is_some() && v.get("name").is_some());
        }
        let counter = json::parse(lines[0]).unwrap();
        assert_eq!(counter.get("kind").unwrap().as_str(), Some("counter"));
        assert_eq!(
            counter.get("labels").unwrap().get("rank").unwrap().as_str(),
            Some("0")
        );
        assert_eq!(counter.get("value").unwrap().as_u64(), Some(7));
        let hist = json::parse(lines[2]).unwrap();
        assert_eq!(
            hist.get("value").unwrap().get("mean").unwrap().as_f64(),
            Some(100.0)
        );
    }

    #[test]
    fn emit_jsonl_order_is_insertion_independent() {
        // Serve runs interleave metric registration across slot threads,
        // so the exported stream must not depend on which thread touched
        // a series first. Build the same registry contents in shuffled
        // orders and require byte-identical emission.
        let series: Vec<(&str, Vec<(&str, &str)>, u64)> = vec![
            ("requests_completed", vec![], 4),
            ("kernel_cache_hits", vec![("request", "r2")], 7),
            ("kernel_cache_hits", vec![("request", "r10")], 3),
            ("kernel_cache_hits", vec![], 10),
            ("halo_bytes", vec![("orientation", "east")], 64),
            ("halo_bytes", vec![("orientation", "west")], 32),
        ];
        let orders: Vec<Vec<usize>> = vec![
            (0..series.len()).collect(),
            (0..series.len()).rev().collect(),
            vec![3, 0, 5, 1, 4, 2],
        ];
        let mut outputs = Vec::new();
        for order in orders {
            let m = MetricsRegistry::new();
            for &i in &order {
                let (name, labels, v) = &series[i];
                m.counter_add(name, labels, *v);
                // Gauges and histograms ride along, same shuffled order
                // (one series each per i, so values are order-free too).
                let idx = format!("{i}");
                m.gauge_set(name, &[("series", &idx)], *v as f64);
                m.observe(name, &[("series", &idx)], *v as f64);
            }
            outputs.push(emit_jsonl(&m, 1));
        }
        assert_eq!(outputs[0], outputs[1], "reversed insertion changed emission order");
        assert_eq!(outputs[0], outputs[2], "shuffled insertion changed emission order");
        // And label order within one call site must not matter either.
        let a = MetricsRegistry::new();
        a.counter_add("x", &[("a", "1"), ("b", "2")], 1);
        let b = MetricsRegistry::new();
        b.counter_add("x", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(emit_jsonl(&a, 0), emit_jsonl(&b, 0));
    }

    #[test]
    fn registry_handles_share_state_across_threads() {
        let m = MetricsRegistry::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mm = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    mm.counter_add("n", &[], 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter_value("n", &[]), 400);
    }
}
