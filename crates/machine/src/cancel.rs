//! Cooperative cancellation: the control-plane primitive threaded from a
//! serving engine through the supervisor into the dycore step loop.
//!
//! A [`CancelToken`] is a cheap shared flag plus an optional hard
//! deadline. Producers that may run for a long time hold a clone and
//! poll [`fired`](CancelToken::fired) at their natural consistency
//! boundaries (the driver polls between acoustic substeps, the
//! supervisor between steps and before every retry); controllers call
//! [`cancel`](CancelToken::cancel) — or simply let the deadline pass —
//! to stop the work at the *next* such boundary. Nothing is ever
//! interrupted mid-kernel, so cancellation can never poison a worker
//! pool or tear a state mid-write.
//!
//! The default token is **inert**: no allocation, and `fired()` is a
//! single `Option` check — the same zero-cost-when-off discipline as
//! [`obs`]'s event sinks, so un-cancellable runs (every test and bench
//! that predates the serving layer) pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a token fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called (a client or operator asked).
    Requested,
    /// The token's deadline passed before the work finished.
    Deadline,
}

impl CancelCause {
    /// Stable label for events and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            CancelCause::Requested => "requested",
            CancelCause::Deadline => "deadline",
        }
    }

    /// Parse a [`label`](Self::label) back (the JSONL codec's inverse).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "requested" => Some(CancelCause::Requested),
            "deadline" => Some(CancelCause::Deadline),
            _ => None,
        }
    }
}

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared cancellation flag with an optional deadline. Clones share
/// state; the default token is inert and can never fire.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("CancelToken(inert)"),
            Some(i) => f
                .debug_struct("CancelToken")
                .field("cancelled", &i.cancelled.load(Ordering::Relaxed))
                .field("deadline", &i.deadline.map(|d| d - Instant::now()))
                .finish(),
        }
    }
}

impl CancelToken {
    /// An armed token with no deadline; fires only on [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An armed token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::build(Some(deadline))
    }

    /// An armed token whose deadline is `budget` from now.
    pub fn with_budget(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    fn build(deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
            })),
        }
    }

    /// True for the default token (can never fire).
    #[cfg(test)]
    pub(crate) fn is_inert(&self) -> bool {
        self.inner.is_none()
    }

    /// Request cancellation. Idempotent; a no-op on an inert token.
    pub fn cancel(&self) {
        if let Some(i) = &self.inner {
            i.cancelled.store(true, Ordering::Release);
        }
    }

    /// True once the token fired — cancelled explicitly or past its
    /// deadline. This is the poll producers place at their boundaries.
    pub fn fired(&self) -> bool {
        match &self.inner {
            None => false,
            Some(i) => {
                i.cancelled.load(Ordering::Acquire)
                    || i.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Why the token fired (`None`: not fired). An explicit cancel wins
    /// over a simultaneous deadline expiry.
    pub fn cause(&self) -> Option<CancelCause> {
        let i = self.inner.as_ref()?;
        if i.cancelled.load(Ordering::Acquire) {
            Some(CancelCause::Requested)
        } else if i.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(CancelCause::Deadline)
        } else {
            None
        }
    }

    /// The absolute deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Time left before the deadline (`None`: no deadline;
    /// `Some(Duration::ZERO)`: already past). Retry loops consult this
    /// before spending their budget on another attempt.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::default();
        assert!(t.is_inert());
        assert!(!t.fired());
        t.cancel();
        assert!(!t.fired());
        assert_eq!(t.cause(), None);
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_fires_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.fired() && !c.fired());
        c.cancel();
        assert!(t.fired() && c.fired());
        assert_eq!(t.cause(), Some(CancelCause::Requested));
    }

    #[test]
    fn deadline_fires_without_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.fired());
        assert_eq!(t.cause(), Some(CancelCause::Deadline));
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_reports_budget() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!t.fired());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
        t.cancel();
        // Explicit cancel wins over the (unexpired) deadline.
        assert_eq!(t.cause(), Some(CancelCause::Requested));
    }

    #[test]
    fn cause_labels_round_trip() {
        for c in [CancelCause::Requested, CancelCause::Deadline] {
            assert_eq!(CancelCause::parse(c.label()), Some(c));
        }
        assert_eq!(CancelCause::parse("nope"), None);
    }
}
