//! Run-scoped state: everything a run reads that is not model data.
//!
//! Two values, both created at a front door (a bin's `main`,
//! `ForecastEngine::start` / `submit`, a test) and handed down — nothing
//! below reads a process global or the environment:
//!
//! * [`RunConfig`] — the four `FV3_*` variables, parsed once by
//!   [`RunConfig::from_env`], the only function in the library crates
//!   that reads the environment. Constructors that take no configuration
//!   (`DistributedDycore::new`, `ForecastEngine::start`)
//!   call it once and keep the answer.
//! * [`RunContext`] — what one run carries while it executes: request
//!   id, cancel token, event sink, fault plan, tracer.
//!   The default is inert throughout (every field is `None` inside), so
//!   cloning it is free and each instrumentation point is one branch. It
//!   is installed with `DistributedDycore::set_run`, which hands it to
//!   the rank team each substep; the supervisor reads the
//!   dycore's; executors take it per call (`Executor::run_in`), because
//!   they are shared between runs.

use crate::cancel::CancelToken;
use crate::faults::Faults;
use obs::{EventSink, SpanGuard, Tracer};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// The typed form of the `FV3_*` environment: one field per variable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// `FV3_WORKERS`, a positive integer: the rank-team width. Above 1,
    /// an instance starts on a team of that width; unset or 1, on the
    /// team of one (`None`: a team set to the host's width is the core
    /// count wide).
    pub workers: Option<usize>,
    /// `FV3_TUNE`: `1` / `true` / `on` run whole-program tuning at
    /// substep-compile time.
    pub tune: bool,
    /// `FV3_FAULT_PLAN`, unparsed (grammar in `resilience::fault`).
    pub fault_plan: Option<String>,
    /// `FV3_CHECKPOINT_DIR`: where supervised runs persist checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
}

impl RunConfig {
    /// Parse the environment. Unset, blank and malformed values fall back
    /// to the defaults (`FV3_WORKERS=0` included).
    pub fn from_env() -> Self {
        let var = |name: &str| {
            let v = std::env::var(name).ok()?;
            let v = v.trim();
            (!v.is_empty()).then(|| v.to_string())
        };
        let lower = |name: &str| var(name).map(|v| v.to_ascii_lowercase());
        RunConfig {
            workers: var("FV3_WORKERS")
                .and_then(|v| v.parse().ok())
                .filter(|n| *n >= 1),
            tune: matches!(lower("FV3_TUNE").as_deref(), Some("1" | "true" | "on")),
            fault_plan: var("FV3_FAULT_PLAN"),
            checkpoint_dir: var("FV3_CHECKPOINT_DIR").map(PathBuf::from),
        }
    }

    /// The rank-team width for this host: [`workers`](Self::workers),
    /// else the available parallelism.
    pub fn host_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// What one run carries while it executes. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// The serving engine's request id (`"rN"`), when the run is a served
    /// request.
    pub request: Option<Arc<str>>,
    /// Polled between steps, retries and acoustic substeps.
    pub cancel: CancelToken,
    /// Live telemetry: per-step completions, health verdicts, retries.
    pub sink: EventSink,
    /// The fault plan armed for this run, if any.
    pub faults: Faults,
    /// Span recorder for `request` / `driver_step` / `acoustic` / `rank` /
    /// `halo` / `kernel` spans.
    pub tracer: Option<Tracer>,
}

impl RunContext {
    /// Open a span on the run's tracer; a no-op guard without one. A
    /// name that has to be formatted (`format_args!("rank{r}")`) is built
    /// only when there is a tracer to record it.
    pub fn span(&self, cat: &str, name: impl fmt::Display) -> SpanGuard {
        match &self.tracer {
            Some(t) => t.span(cat, &name.to_string()),
            None => SpanGuard::noop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_is_inert_throughout() {
        let ctx = RunContext::default();
        assert!(ctx.cancel.is_inert() && !ctx.sink.is_active() && !ctx.faults.is_armed());
        assert!(!ctx.span("step", "x").is_active());
        assert!(!ctx.span("rank", format_args!("rank{}", 3)).is_active());
    }

    #[test]
    fn spans_land_on_the_contexts_own_tracer() {
        let (a, b) = (Tracer::new(), Tracer::new());
        let ctx_a = RunContext {
            tracer: Some(a.clone()),
            ..RunContext::default()
        };
        let ctx_b = RunContext {
            tracer: Some(b.clone()),
            ..RunContext::default()
        };
        drop(ctx_a.span("step", "only-a"));
        drop(ctx_b.clone().span("rank", format_args!("rank{}", 1)));
        assert_eq!(a.finished()[0].name, "only-a");
        assert_eq!(b.finished()[0].name, "rank1");
        assert_eq!((a.len(), b.len()), (1, 1));
    }

    #[test]
    fn default_config_is_the_unset_environment() {
        let c = RunConfig::default();
        assert!(!c.tune && c.workers.is_none());
        assert!(c.fault_plan.is_none() && c.checkpoint_dir.is_none());
        assert!(c.host_workers() >= 1);
        let pinned = RunConfig {
            workers: Some(3),
            ..c
        };
        assert_eq!(pinned.host_workers(), 3);
    }
}
