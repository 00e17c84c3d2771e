//! Hierarchical span tracing: RAII guards over a thread-safe registry.
//!
//! A [`Tracer`] collects closed spans as [`TraceEvent`]s — the one span
//! record of the workspace. Whole-run spans (timesteps, acoustic
//! substeps, dycore modules, halo exchanges) and the executor's
//! kernel-level spans (`dataflow::Executor::run_profiled`) are recorded
//! by the same tracer on the same clock and per-thread stack, so they
//! nest by construction and serialize through one chrome-trace codec
//! ([`Tracer::to_chrome_trace`] / [`parse_chrome_trace`]) that opens in
//! Perfetto as run → module → kernel. Spans open with [`Tracer::span`]
//! and close when the returned [`SpanGuard`] drops (including on panic
//! unwind), so attribution survives early returns and `?`.
//!
//! Library code never looks a tracer up: it records into the one its
//! run carries (`machine::RunContext::span`), and gets a
//! [`SpanGuard::noop`] — one branch — from a run that carries none.

use crate::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// One closed span, chrome-trace style (`ph: "X"` complete events).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span label (kernel name, callback name, `"timestep3"`, …).
    pub name: String,
    /// Event category: `"run"`, `"step"`, `"module"`, `"kernel"`,
    /// `"copy"`, `"halo"`, `"callback"`, …
    pub cat: String,
    /// Chrome-trace thread id: small, stable per recording thread.
    pub tid: u64,
    /// Start time in microseconds since the tracer's epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Points executed (kernel events) or items moved; 0 when unknown.
    pub points: u64,
    /// Bytes moved (modeled for kernels, actual for halos); 0 when unknown.
    pub bytes: u64,
    /// Modeled floating-point operations; 0 when unknown.
    pub flops: u64,
}

/// An open (not yet closed) span on some thread's stack.
#[derive(Debug)]
struct Open {
    id: u64,
    name: String,
    start_us: f64,
}

#[derive(Debug, Default)]
struct ThreadTable {
    /// Open-span stack per thread (outermost first).
    stacks: HashMap<ThreadId, Vec<Open>>,
    /// Stable small integer ids for chrome-trace `tid` fields.
    tids: HashMap<ThreadId, u64>,
    next_tid: u64,
}

impl ThreadTable {
    fn tid(&mut self, t: ThreadId) -> u64 {
        if let Some(&id) = self.tids.get(&t) {
            return id;
        }
        let id = self.next_tid;
        self.next_tid += 1;
        self.tids.insert(t, id);
        id
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    /// Closed spans, in close order.
    finished: Mutex<Vec<TraceEvent>>,
    threads: Mutex<ThreadTable>,
}

/// Lock a mutex, surviving poisoning (a panicking *user* scope must not
/// take the whole registry down — panic-safety is a tested property).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread-safe hierarchical span recorder. Cheap to clone (shared
/// handle); clones observe the same registry, so one tracer can be
/// handed to worker threads and every span lands in one place.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose time epoch is now.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                finished: Mutex::new(Vec::new()),
                threads: Mutex::new(ThreadTable::default()),
            }),
        }
    }

    /// Microseconds since the tracer's epoch.
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; it closes (and is recorded) when the guard drops.
    /// `cat` is the chrome-trace category (`"step"`, `"module"`,
    /// `"halo"`, …); `name` the human-readable label.
    pub fn span(&self, cat: &str, name: &str) -> SpanGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current().id();
        let start_us = self.now_us();
        {
            let mut tt = lock(&self.inner.threads);
            tt.tid(thread); // allocate a stable tid on first touch
            tt.stacks.entry(thread).or_default().push(Open {
                id,
                name: name.to_string(),
                start_us,
            });
        }
        SpanGuard {
            tracer: Some(self.clone()),
            id,
            thread,
            cat: cat.to_string(),
            points: 0,
            bytes: 0,
            flops: 0,
        }
    }

    /// Close the span behind `guard`: remove it from its thread's stack
    /// (wherever it sits, so misordered drops cannot corrupt the stack)
    /// and record the completed event.
    fn end(&self, guard: &mut SpanGuard) {
        let end_us = self.now_us();
        let (open, tid) = {
            let mut tt = lock(&self.inner.threads);
            let tid = tt.tid(guard.thread);
            let stack = tt.stacks.entry(guard.thread).or_default();
            match stack.iter().position(|o| o.id == guard.id) {
                Some(pos) => (stack.remove(pos), tid),
                None => return, // already closed (double drop cannot happen, but stay safe)
            }
        };
        let event = TraceEvent {
            name: open.name,
            cat: std::mem::take(&mut guard.cat),
            tid,
            ts_us: open.start_us,
            dur_us: (end_us - open.start_us).max(0.0),
            points: guard.points,
            bytes: guard.bytes,
            flops: guard.flops,
        };
        lock(&self.inner.finished).push(event);
    }

    /// Names of the current thread's open spans, outermost first — the
    /// "where were we" stack the blowup detector attaches to reports.
    pub fn current_stack(&self) -> Vec<String> {
        let thread = std::thread::current().id();
        let tt = lock(&self.inner.threads);
        tt.stacks
            .get(&thread)
            .map(|s| s.iter().map(|o| o.name.clone()).collect())
            .unwrap_or_default()
    }

    /// All closed spans, in close order.
    pub fn finished(&self) -> Vec<TraceEvent> {
        lock(&self.inner.finished).clone()
    }

    /// Number of closed spans.
    pub fn len(&self) -> usize {
        lock(&self.inner.finished).len()
    }

    /// True when no span has closed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize all closed spans as chrome-trace JSON ("Trace Event
    /// Format" `ph: "X"` complete events, loadable in `about://tracing` /
    /// Perfetto), sorted per thread by start time with longer (enclosing)
    /// spans first so viewers nest them naturally. Floats print
    /// shortest-round-trip, so [`parse_chrome_trace`] reads back the
    /// identical values.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = self.finished();
        events.sort_by(|a, b| {
            a.tid
                .cmp(&b.tid)
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"points\":{},\"bytes\":{},\"flops\":{}}}}}",
                json::string(&e.name),
                json::string(&e.cat),
                e.tid,
                e.ts_us,
                e.dur_us,
                e.points,
                e.bytes,
                e.flops
            );
        }
        out.push_str("]}");
        out
    }
}

/// Parse chrome-trace JSON written by [`Tracer::to_chrome_trace`] back into
/// events (in file order). Traces written before flop attribution
/// existed lack `args.flops`; it loads as 0 so old artifacts stay readable.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let root = json::parse(text)?;
    let items = root
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    items
        .iter()
        .map(|item| {
            let num = |k: &str| {
                item.get(k)
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("event missing numeric '{k}'"))
            };
            let text = |k: &str| {
                item.get(k)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("event missing string '{k}'"))
            };
            let args = item.get("args").ok_or("event missing args")?;
            let arg = |k: &str| {
                args.get(k)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("args missing '{k}'"))
            };
            Ok(TraceEvent {
                name: text("name")?,
                cat: text("cat")?,
                tid: num("tid")? as u64,
                ts_us: num("ts")?,
                dur_us: num("dur")?,
                points: arg("points")?,
                bytes: arg("bytes")?,
                flops: arg("flops").unwrap_or(0),
            })
        })
        .collect()
}

/// RAII handle for one open span; the span closes when this drops —
/// including during panic unwinding, so traces stay well-formed across
/// failures. [`SpanGuard::set_bytes`] / [`set_points`](SpanGuard::set_points)
/// / [`set_flops`](SpanGuard::set_flops) tag the span with payload sizes
/// known only at completion (e.g. halo bytes from `ExchangeStats`, a
/// kernel's executed points).
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    tracer: Option<Tracer>,
    id: u64,
    thread: ThreadId,
    cat: String,
    points: u64,
    bytes: u64,
    flops: u64,
}

impl SpanGuard {
    /// A guard that records nothing (no tracer installed).
    pub fn noop() -> Self {
        SpanGuard {
            tracer: None,
            id: 0,
            thread: std::thread::current().id(),
            cat: String::new(),
            points: 0,
            bytes: 0,
            flops: 0,
        }
    }

    /// True when this guard records into a tracer.
    pub fn is_active(&self) -> bool {
        self.tracer.is_some()
    }

    /// Tag the span with a byte volume (recorded at close).
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Tag the span with a point/item count (recorded at close).
    pub fn set_points(&mut self, points: u64) {
        self.points = points;
    }

    /// Tag the span with a modeled flop count (recorded at close).
    pub fn set_flops(&mut self, flops: u64) {
        self.flops = flops;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = self.tracer.take() {
            t.end(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_drop_order() {
        let t = Tracer::new();
        {
            let _run = t.span("run", "run");
            {
                let _step = t.span("step", "t0");
                assert_eq!(t.current_stack(), vec!["run", "t0"]);
            }
            assert_eq!(t.current_stack(), vec!["run"]);
        }
        let ev = t.finished();
        assert_eq!(ev.len(), 2);
        // Inner closes first; outer encloses it in time.
        assert_eq!(ev[0].name, "t0");
        assert_eq!(ev[1].name, "run");
        assert!(ev[1].ts_us <= ev[0].ts_us);
        assert!(ev[1].ts_us + ev[1].dur_us >= ev[0].ts_us + ev[0].dur_us);
    }

    #[test]
    fn misordered_drop_records_both_spans() {
        let t = Tracer::new();
        let outer = t.span("a", "outer");
        let inner = t.span("a", "inner");
        // Drop the *outer* guard first — the registry must not corrupt.
        drop(outer);
        assert_eq!(t.current_stack(), vec!["inner"]);
        drop(inner);
        assert!(t.current_stack().is_empty());
        let names: Vec<_> = t.finished().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn span_closes_on_panic_unwind() {
        let t = Tracer::new();
        let t2 = t.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = t2.span("step", "doomed");
            panic!("boom");
        });
        assert!(result.is_err());
        let ev = t.finished();
        assert_eq!(ev.len(), 1, "span must close on unwind");
        assert_eq!(ev[0].name, "doomed");
        assert!(t.current_stack().is_empty(), "stack must unwind too");
    }

    #[test]
    fn cross_thread_spans_merge_into_one_registry() {
        let t = Tracer::new();
        let mut handles = Vec::new();
        for w in 0..4 {
            let tt = t.clone();
            handles.push(std::thread::spawn(move || {
                let _g = tt.span("worker", &format!("w{w}"));
                // Stacks are per-thread: only this worker's span is open
                // on this thread.
                assert_eq!(tt.current_stack(), vec![format!("w{w}")]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut names: Vec<_> = t.finished().into_iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names, vec!["w0", "w1", "w2", "w3"]);
        // Distinct threads got distinct chrome tids.
        let mut tids: Vec<u64> = t.finished().iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "one tid per worker thread");
    }

    /// The one codec: every field of every event survives
    /// `to_chrome_trace` → `parse_chrome_trace`, across threads, through
    /// the escapes JSON requires, and for legacy traces without `flops`.
    #[test]
    fn chrome_trace_codec_round_trips() {
        let t = Tracer::new();
        {
            let _run = t.span("run", "the \"run\"\\1");
            let mut kernel = t.span("kernel", "line\nbreak\ttab\u{1}ctl é");
            kernel.set_points(7);
            kernel.set_bytes(4096);
            kernel.set_flops(21);
        }
        let worker = t.clone();
        std::thread::spawn(move || drop(worker.span("rank", "worker")))
            .join()
            .unwrap();

        let text = t.to_chrome_trace();
        let parsed = parse_chrome_trace(&text).expect("parses");
        // Serialization orders by (tid, start, longest first); finished()
        // is close-ordered. Same multiset, bit-identical fields.
        let mut want = t.finished();
        want.sort_by(|a, b| {
            a.tid
                .cmp(&b.tid)
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        assert_eq!(parsed, want);
        let kernel = parsed.iter().find(|e| e.cat == "kernel").unwrap();
        assert_eq!((kernel.points, kernel.bytes, kernel.flops), (7, 4096, 21));
        let run = parsed.iter().find(|e| e.cat == "run").unwrap();
        let rank = parsed.iter().find(|e| e.cat == "rank").unwrap();
        assert_eq!(run.tid, kernel.tid);
        assert_ne!(run.tid, rank.tid, "one tid per recording thread");
        // Control characters never reach the file raw.
        assert!(text.contains("\\u0001") && !text.contains('\u{1}'));

        let legacy = parse_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"\\u0041\",\"cat\":\"kernel\",\"ph\":\"X\",\
             \"pid\":0,\"tid\":3,\"ts\":0.5,\"dur\":1,\"args\":{\"points\":2,\"bytes\":16}}]}",
        )
        .expect("legacy trace loads");
        assert_eq!(legacy[0].name, "A");
        assert_eq!((legacy[0].tid, legacy[0].bytes, legacy[0].flops), (3, 16, 0));
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
