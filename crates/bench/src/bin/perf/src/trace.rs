//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside, around calls into each layer's public
//! functions; nothing inside the program under test is instrumented. The
//! recorder deliberately does not build on `obs::Tracer` or
//! `dataflow::Profiler`, which the roadmap intends to rewrite. Spans stay
//! in memory and are written as a chrome trace when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one (`None`: a root).
    pub parent: Option<usize>,
    /// Engine request id, for spans that belong to one request.
    pub request: Option<u64>,
}

/// In-memory span store. When disabled every call is a no-op, so the
/// untraced run executes the same code path minus the bookkeeping.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span named `name`, child of the innermost open span.
    /// `None` (and nothing recorded) when the recorder is disabled.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            request: None,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close the span [`open`](Self::open) returned; spans close in
    /// reverse order of opening.
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Run `f` inside a span. `on` switches single spans off (the
    /// interleaved untraced arm of a traced run).
    pub fn span<T>(&mut self, on: bool, name: &str, f: impl FnOnce() -> T) -> T {
        let id = if on { self.open(name) } else { None };
        let out = f();
        self.close(id);
        out
    }

    /// Record a span whose bounds were measured elsewhere (a request's
    /// queue wait as reported by the engine, a step reported by a
    /// telemetry event). Returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: end_us.max(start_us),
            parent: parent.or(self.stack.last().copied()),
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once (interval
/// union) and a child is clipped to its parent, so for every span
/// `covered + self == duration` exactly and self time is never negative.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us) - covered
        })
        .collect()
}

/// Total self time per span name, insertion-ordered.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64, usize)> {
    let mut out: Vec<(String, f64, usize)> = Vec::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += self_us;
                row.2 += 1;
            }
            None => out.push((s.name.clone(), self_us, 1)),
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

/// Chrome-trace ("Trace Event Format") JSON: one complete (`"X"`) event
/// per span. `args` carries the span id, its parent id (−1 for a root),
/// the request id where there is one, and `unattributed_us` — the span's
/// self time, i.e. the part of it no child span claims.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let selfs = self_times_us(spans);
    let mut o = String::from("{\"traceEvents\":[\n");
    for (id, (s, self_us)) in spans.iter().zip(selfs).enumerate() {
        if id > 0 {
            o.push_str(",\n");
        }
        let _ = write!(
            o,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"unattributed_us\":{:.3}",
            json_escape(&s.name),
            s.request.map_or(0, |r| r % 64 + 1),
            s.start_us,
            s.end_us - s.start_us,
            id,
            s.parent.map_or(-1, |p| p as i64),
            self_us,
        );
        if let Some(r) = s.request {
            let _ = write!(o, ",\"request\":{r}");
        }
        o.push_str("}}");
    }
    o.push_str("\n]}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, a: f64, b: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us: a,
            end_us: b,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("parent", 0.0, 100.0, None),
            sp("a", 10.0, 30.0, Some(0)),
            sp("b", 50.0, 60.0, Some(0)),
            sp("leaf", 12.0, 20.0, Some(1)),
        ];
        assert_eq!(self_times_us(&spans), vec![70.0, 12.0, 10.0, 8.0]);
    }

    #[test]
    fn overlapping_siblings_count_their_union() {
        // Two rank threads busy over [10,40] and [30,70]: the parent is
        // covered for 60, not 70.
        let spans = vec![
            sp("step", 0.0, 100.0, None),
            sp("rank0", 10.0, 40.0, Some(0)),
            sp("rank1", 30.0, 70.0, Some(0)),
            sp("rank2", 35.0, 38.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 40.0);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        // A child placed from an external clock may stick out; only the
        // part inside the parent is attributed, so self time stays >= 0.
        let spans = vec![
            sp("run", 10.0, 20.0, None),
            sp("early", 5.0, 12.0, Some(0)),
            sp("late", 18.0, 30.0, Some(0)),
            sp("outside", 40.0, 50.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 6.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.open("outer");
        assert_eq!(r.span(true, "inner", || 7), 7);
        assert_eq!(r.span(false, "skipped", || 8), 8);
        r.close(outer);
        let names: Vec<_> = r
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0))]);
        assert!(r.spans()[0].end_us >= r.spans()[1].end_us);

        let mut off = Recorder::new(false);
        off.span(true, "x", || ());
        assert_eq!(off.add("y", 0.0, 1.0, None, None), None);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_children_plus_unattributed_equal_duration() {
        let spans = vec![
            sp("request", 0.0, 50.0, None),
            sp("queue", 0.0, 10.0, Some(0)),
            sp("run \"r1\"", 10.0, 45.0, Some(0)),
        ];
        let t = to_chrome_trace(&spans);
        assert!(t.contains("\"name\":\"request\",\"ph\":\"X\""));
        assert!(t.contains("\"parent\":-1,\"unattributed_us\":5.000"));
        assert!(t.contains("run \\\"r1\\\""));
        assert_eq!(t.matches("\"ph\":\"X\"").count(), 3);
    }
}
