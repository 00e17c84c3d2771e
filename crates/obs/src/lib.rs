//! The observability spine: one span recorder, one trace record, one
//! JSON codec, the rank team's phase timings and the live event stream.
//!
//! A leaf crate (std only) that every other crate may depend on, so each
//! layer — executor kernels (`dataflow::Executor::run_in`), dycore
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
//! * [`overlap`] — the rank team's pack / wait / run sums
//!   ([`OverlapStats`]), read through the driver.
//! * [`stream`] — the live telemetry plane: a bounded, drop-oldest
//!   broadcast [`EventBus`] carrying typed [`RunEvent`]s (per-step
//!   completion, health verdicts, supervisor retries, engine ticks) so a
//!   subscriber can tail a run *while it executes* instead of reading
//!   reports at the end. Zero-cost when no sink is installed.
//! * [`json`] — the one JSON codec: string escaper and reader.
//!
//! Nothing here is process-global: a run's tracer and sink travel in its
//! `machine::RunContext`, so library crates instrument unconditionally,
//! at one branch per site when the run carries none, and two runs in one
//! process never see each other's spans or events. Counts are not kept
//! here: each has one typed home beside what it counts — a dycore's
//! accessors, a supervised run's `RunReport`, the engine's `EngineStats`
//! and a served request's `ForecastReport`.

pub mod json;
pub mod overlap;
pub mod stream;
pub mod tracing;

pub use overlap::OverlapStats;
pub use stream::{Event, EventBus, EventSink, EventStream, RunEvent, StreamProgress};
pub use tracing::{SpanGuard, TraceEvent, Tracer};

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, surviving poisoning: a panicking *user* scope must not
/// take the recorder or the bus down (panic-safety is a tested property).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
