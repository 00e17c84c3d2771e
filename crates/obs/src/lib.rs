//! The observability spine: one span recorder, one trace record, one
//! JSON codec, plus metrics and the live event stream.
//!
//! A leaf crate (std only) that every other crate may depend on, so each
//! layer — executor kernels (`dataflow::Executor::run_profiled`), dycore
//! modules, halo exchanges, timesteps, served requests — reports into the
//! same measurement view, the structure the paper's optimization loop
//! (Fig. 7) navigates when deciding where to look next. Domain-specific
//! observers build on it from above (model health lives in
//! `fv3::health`).
//!
//! * [`tracing`] — the hierarchical span recorder ([`SpanGuard`] RAII
//!   over a thread-safe [`Tracer`]), the span record ([`TraceEvent`])
//!   and its chrome-trace codec, so one file opens in Perfetto showing
//!   run → module → kernel.
//! * [`metrics`] — labeled counters / gauges / histograms with
//!   per-timestep JSONL emission ([`emit_jsonl`]).
//! * [`stream`] — the live telemetry plane: a bounded, drop-oldest
//!   broadcast [`EventBus`] carrying typed [`RunEvent`]s (per-step
//!   completion, health verdicts, supervisor retries, engine ticks) so a
//!   subscriber can tail a run *while it executes* instead of reading
//!   reports at the end. Zero-cost when no sink is installed.
//! * [`json`] — the one JSON codec: string escaper and reader.
//!
//! Nothing here is process-global: a run's tracer, registry and sink
//! travel in its `machine::RunContext`, so library crates instrument
//! unconditionally, at one branch per site when the run carries none, and
//! two runs in one process never see each other's spans or counters.

pub mod json;
pub mod metrics;
pub mod overlap;
pub mod stream;
pub mod tracing;

pub use metrics::{emit_jsonl, HistogramData, MetricsRegistry};
pub use overlap::OverlapStats;
pub use stream::{Event, EventBus, EventSink, EventStream, RunEvent, StreamProgress};
pub use tracing::{SpanGuard, TraceEvent, Tracer};
