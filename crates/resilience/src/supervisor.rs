//! The supervision loop: `run()` wraps `DistributedDycore::step()` with
//! health sampling, periodic checkpoints, and bounded
//! rollback-and-retry.
//!
//! Recovery ladder, per failed step:
//!
//! 1. roll back to the last checkpoint (in-memory always; the same state
//!    that [`SupervisorPolicy::checkpoint_dir`] persists to disk);
//! 2. after [`SupervisorPolicy::backoff_after`] plain retries, also back
//!    off the numerics — `dt` is halved and the acoustic substep count
//!    doubled (the private constants `DT_BACKOFF` and `SPLIT_FACTOR`),
//!    the standard CFL-blowup remedy;
//! 3. past [`max_retries`](SupervisorPolicy::max_retries), give up with
//!    a [`SupervisedError`] carrying the last [`BlowupReport`] (field,
//!    cell, span stack) and the full recovery-event history.
//!
//! Kernel panics are caught at the step boundary (`catch_unwind`), after
//! the rank team has joined, so a panicked kernel costs one rollback,
//! not the job.

use fv3::health::{BlowupReport, HealthMonitor};
use fv3core::checkpoint::{step_path, Checkpoint};
use fv3core::DistributedDycore;
use machine::cancel::CancelCause;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// What the supervisor does between and after steps.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Persist checkpoints here (`None`: in-memory rollback basis only).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in steps; 0 disables checkpointing entirely —
    /// failures then exhaust the run immediately (no rollback basis).
    pub checkpoint_every: u64,
    /// Retry budget per failing step before giving up.
    pub max_retries: u32,
    /// Plain retries (pure rollback) before the numerics back off.
    pub backoff_after: u32,
}

/// `dt` multiplier applied when backing off (0.5 halves the step).
const DT_BACKOFF: f64 = 0.5;
/// Acoustic-substep multiplier applied when backing off.
const SPLIT_FACTOR: u32 = 2;

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            checkpoint_dir: None,
            checkpoint_every: 1,
            max_retries: 3,
            backoff_after: 1,
        }
    }
}

/// Why a step was retried (or the run abandoned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A prognostic went non-finite.
    Blowup,
    /// A health threshold was crossed (CFL, wind, pressure, drift).
    Violation,
    /// `step()` panicked (a rank's panic, propagated by its team).
    Panic,
}

impl FailureKind {
    /// Stable label for events and JSONL.
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Blowup => "blowup",
            FailureKind::Violation => "violation",
            FailureKind::Panic => "panic",
        }
    }
}

/// How one guarded step attempt ended.
enum StepAttempt {
    /// Stepped and passed health checks.
    Completed,
    /// The cancel token fired mid-step; the dycore bailed at a substep
    /// boundary (its states are mid-step — not sampled, not trusted).
    Cancelled,
    /// Panicked, blew up, or violated a health threshold.
    Failed(FailureKind, String, Option<BlowupReport>),
}

/// One recovery action the supervisor took.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Step that failed (post-increment index of the failed step).
    pub step: u64,
    pub kind: FailureKind,
    /// Human-readable cause (blowup report, violation list, panic text).
    pub detail: String,
    /// Retry ordinal for this failure (1-based).
    pub retry: u32,
    /// Step the state was rolled back to.
    pub rolled_back_to: u64,
    /// Whether this retry also backed off `dt` / substeps.
    pub backed_off: bool,
}

/// Outcome of a completed supervised run.
#[derive(Debug)]
pub struct RunReport {
    /// Steps completed. Equals the requested budget unless the run was
    /// cancelled ([`cancelled`](Self::cancelled) is then `Some` and this
    /// counts the steps that finished before the token fired).
    pub steps: u64,
    /// `Some` when the run stopped early because its cancel token
    /// fired — by explicit request or deadline expiry — rather than
    /// completing its budget. The rest of the report is the partial
    /// history up to the cancellation point. The dycore's states may be
    /// mid-step when the token fired inside a step: discard or restore
    /// the instance, never trust or park it.
    pub cancelled: Option<CancelCause>,
    /// Total retries across the run.
    pub retries: u32,
    /// Rollbacks performed.
    pub restores: u64,
    /// Rank states actually rewritten across all rollbacks. The restore
    /// is rank-aware ([`DistributedDycore::restore`]): ranks untouched
    /// since the rollback basis (e.g. a rank whose starved substep never
    /// completed) keep their state, so one rank's failure does not
    /// rewrite its neighbours' completed epochs.
    pub ranks_restored: u64,
    /// Checkpoints written to disk.
    pub checkpoint_writes: u64,
    /// Bytes written to disk across all checkpoints.
    pub checkpoint_bytes: u64,
    /// Faults that fired in this run: the growth of the injection log of
    /// the run's own [`machine::Faults`] handle, never a neighbour's. The
    /// log itself ([`machine::Faults::log`]) names each site.
    pub faults_injected: u64,
    /// Every recovery action, in order.
    pub events: Vec<RecoveryEvent>,
    /// Per-step health samples (one per rank per step).
    pub monitor: HealthMonitor,
}

impl RunReport {
    /// True when the run needed no recovery at all.
    pub fn clean(&self) -> bool {
        self.retries == 0 && self.events.is_empty()
    }

    /// True when the run completed its full budget (was not cancelled).
    pub fn completed(&self) -> bool {
        self.cancelled.is_none()
    }
}

/// A supervised run that exhausted its retry budget (or had no rollback
/// basis).
#[derive(Debug)]
pub struct SupervisedError {
    /// Step that could not be completed.
    pub step: u64,
    pub kind: FailureKind,
    /// Cause of the final failure.
    pub detail: String,
    /// Blowup location and span stack, when the failure was numerical.
    pub blowup: Option<BlowupReport>,
    /// Recovery history up to the failure.
    pub events: Vec<RecoveryEvent>,
    /// Faults that fired in this run before it gave up (counted like
    /// [`RunReport::faults_injected`]).
    pub faults_injected: u64,
}

impl fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {} failed ({}) after {} recovery attempt(s): {}",
            self.step,
            self.kind.label(),
            self.events.len(),
            self.detail
        )?;
        if let Some(b) = &self.blowup {
            write!(f, " [{b}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for SupervisedError {}

/// Wraps a dycore with the recovery policy. Owns the health monitor; the
/// recovery counts are the [`RunReport`]'s. The run's context is the
/// dycore's ([`DistributedDycore::set_run`]):
///
/// * its cancel token is polled before every step attempt and before
///   every rollback-retry (the dycore polls the same token between
///   acoustic substeps), so a fired token stops the run at the next
///   boundary with `RunReport::cancelled = Some(cause)` and a recovery
///   cycle never blows through a deadline the run already missed;
/// * its event sink streams `HealthSample` (one aggregate verdict per
///   step), `SupervisorRetry` and `CheckpointWritten` events as they
///   happen;
/// * its fault plan's log is where `faults_injected` is counted.
///
/// Under the default (inert) context a supervised run is bit-identical
/// to an unsupervised loop.
pub struct Supervisor {
    pub policy: SupervisorPolicy,
    monitor: HealthMonitor,
}

/// Checkpoints one supervised run mirrored to disk.
#[derive(Default)]
struct DiskTally {
    writes: u64,
    bytes: u64,
}

impl Supervisor {
    /// A supervisor with the given policy and the standard FV3 health
    /// thresholds.
    pub fn new(policy: SupervisorPolicy) -> Self {
        Supervisor {
            policy,
            monitor: HealthMonitor::new(),
        }
    }

    /// Advance `d` by `steps` supervised steps. On success the report
    /// carries the full health and recovery history; on failure the
    /// error carries the last blowup report and every recovery event.
    pub fn run(
        &mut self,
        d: &mut DistributedDycore,
        steps: u64,
    ) -> Result<RunReport, Box<SupervisedError>> {
        self.run_from(d, steps, None)
    }

    /// [`run`](Self::run) from a rollback basis the caller already holds:
    /// `basis` must be `d` as it stands — its step, its states bit for
    /// bit, and `d`'s own [`mutation_basis`] so the rollback stays
    /// rank-aware (the serving engine passes the template it has just
    /// rewound the instance through). The run then opens without a
    /// capture; it still makes one when mirroring to a
    /// [`checkpoint_dir`](SupervisorPolicy::checkpoint_dir).
    ///
    /// [`mutation_basis`]: DistributedDycore::mutation_basis
    pub fn run_from(
        &mut self,
        d: &mut DistributedDycore,
        steps: u64,
        basis: Option<Checkpoint>,
    ) -> Result<RunReport, Box<SupervisedError>> {
        // One clone per supervised run (free for the inert context), so
        // the loop below can borrow `d` mutably.
        let run = d.run_context().clone();
        let start = d.step_index();
        let goal = start + steps;
        let faults_before = run.faults.log().len();
        let injected = || (run.faults.log().len() - faults_before) as u64;
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut retries_total = 0u32;
        let mut retries_this_step = 0u32;
        let mut restores = 0u64;
        let mut ranks_restored = 0u64;
        let mut written = DiskTally::default();
        let checkpointing = self.policy.checkpoint_every > 0;
        let mirrored = self.policy.checkpoint_dir.is_some();
        // The in-memory rollback basis; refreshed on the checkpoint
        // cadence. Disk persistence mirrors it when a dir is configured.
        let mut basis = basis.filter(|_| checkpointing && !mirrored);
        if let Some(ck) = &basis {
            assert_eq!(ck.step, start, "the given basis is not where the run starts");
            let (step, bytes) = (start, 0);
            run.sink.emit(obs::RunEvent::CheckpointWritten { step, bytes });
        } else if checkpointing {
            let ck = self
                .refresh_basis(d, &run.sink, &mut written)
                .map_err(|e| self.io_error(d.step_index(), e, &events, injected()))?;
            basis = Some(ck);
        }
        // Set when the token fires; the loop then stops at the current
        // boundary and the report carries the partial history.
        let mut cancelled: Option<CancelCause> = None;

        while d.step_index() < goal {
            // Cancellation point 1: between steps, before committing to
            // another attempt.
            if let Some(cause) = run.cancel.cause() {
                cancelled = Some(cause);
                break;
            }
            // The step being attempted (step() increments only on
            // success; a panic or cancellation leaves the counter
            // unchanged).
            let attempting = d.step_index() + 1;
            match self.try_step(d, &run.sink) {
                StepAttempt::Cancelled => {
                    // Cancellation point 2: the token fired mid-step and
                    // the dycore bailed at an acoustic-substep boundary.
                    // Its states are mid-step garbage; the report says so
                    // (`cancelled` is Some) and the caller must discard
                    // or restore the instance.
                    cancelled = Some(run.cancel.cause().unwrap_or(CancelCause::Requested));
                    break;
                }
                StepAttempt::Completed => {
                    retries_this_step = 0;
                    // Nothing can roll back to the state after the last
                    // step: only a mirrored run still captures it, for
                    // the file.
                    if checkpointing
                        && (d.step_index() - start).is_multiple_of(self.policy.checkpoint_every)
                        && (d.step_index() < goal || mirrored)
                    {
                        let ck = self
                            .refresh_basis(d, &run.sink, &mut written)
                            .map_err(|e| self.io_error(d.step_index(), e, &events, injected()))?;
                        basis = Some(ck);
                    }
                }
                StepAttempt::Failed(kind, detail, blowup) => {
                    let failed_step = attempting;
                    // Cancellation point 3: before spending budget on a
                    // rollback-retry. A recovery cycle must not blow
                    // through a deadline the run already missed, and an
                    // explicit cancel should not be answered with more
                    // retries. One last rollback (when a basis exists)
                    // evicts the failed attempt from the step counter so
                    // the partial report only counts trustworthy steps —
                    // blowups are detected post-increment.
                    if let Some(cause) = run.cancel.cause() {
                        if let Some(ck) = &basis {
                            restores += 1;
                            ranks_restored += d.restore(ck) as u64;
                        }
                        cancelled = Some(cause);
                        break;
                    }
                    let Some(ck) = &basis else {
                        return Err(Box::new(SupervisedError {
                            step: failed_step,
                            kind,
                            detail: format!("{detail} (checkpointing disabled: no rollback basis)"),
                            blowup,
                            events,
                            faults_injected: injected(),
                        }));
                    };
                    if retries_this_step >= self.policy.max_retries {
                        return Err(Box::new(SupervisedError {
                            step: failed_step,
                            kind,
                            detail,
                            blowup,
                            events,
                            faults_injected: injected(),
                        }));
                    }
                    retries_this_step += 1;
                    retries_total += 1;
                    let backed_off = retries_this_step > self.policy.backoff_after;
                    restores += 1;
                    ranks_restored += d.restore(ck) as u64;
                    if backed_off {
                        d.config.dycore.dt *= DT_BACKOFF;
                        d.config.dycore.n_split = d.config.dycore.n_split.saturating_mul(SPLIT_FACTOR);
                    }
                    run.sink.emit(obs::RunEvent::SupervisorRetry {
                        step: failed_step,
                        kind: kind.label().to_string(),
                        retry: retries_this_step,
                        backed_off,
                        rolled_back_to: ck.step,
                    });
                    events.push(RecoveryEvent {
                        step: failed_step,
                        kind,
                        detail,
                        retry: retries_this_step,
                        rolled_back_to: ck.step,
                        backed_off,
                    });
                }
            }
        }

        Ok(RunReport {
            steps: d.step_index() - start,
            cancelled,
            retries: retries_total,
            restores,
            ranks_restored,
            checkpoint_writes: written.writes,
            checkpoint_bytes: written.bytes,
            faults_injected: injected(),
            events,
            monitor: std::mem::take(&mut self.monitor),
        })
    }

    /// Refresh the rollback basis: capture `d`, mirror the capture to disk
    /// when a directory is configured, account for it and announce it.
    fn refresh_basis(
        &self,
        d: &DistributedDycore,
        sink: &obs::EventSink,
        written: &mut DiskTally,
    ) -> std::io::Result<Checkpoint> {
        let ck = Checkpoint::capture(d);
        let mut bytes = 0;
        if let Some(dir) = &self.policy.checkpoint_dir {
            bytes = ck.write_atomic(&step_path(dir, ck.step))?;
            written.writes += 1;
            written.bytes += bytes;
        }
        sink.emit(obs::RunEvent::CheckpointWritten {
            step: ck.step,
            bytes,
        });
        Ok(ck)
    }

    /// One guarded step: catch panics, then sample health. Returns how
    /// the attempt ended.
    fn try_step(&mut self, d: &mut DistributedDycore, sink: &obs::EventSink) -> StepAttempt {
        let stepped = catch_unwind(AssertUnwindSafe(|| d.step()));
        if let Err(payload) = stepped {
            // `&*payload`: deref the box so the downcast sees the payload
            // itself, not `Box<dyn Any>` (which would never match).
            return StepAttempt::Failed(FailureKind::Panic, panic_text(&*payload), None);
        }
        if d.step_interrupted() {
            // The token fired inside the step; the dycore bailed at an
            // acoustic-substep boundary without advancing its counter.
            // Skip health sampling: the states are mid-step and would
            // misreport as a blowup or violation.
            return StepAttempt::Cancelled;
        }
        let healthy = {
            let _health = d.run_context().span("health", "sample_health");
            d.sample_health(&mut self.monitor, d.step_index())
        };
        // Stream the per-step verdict (worst wind/CFL over ranks) while
        // the run executes; read-only aggregation, copies only.
        if sink.is_active() {
            let ranks = d.partition.ranks();
            let n = self.monitor.samples().len();
            let tail = &self.monitor.samples()[n.saturating_sub(ranks)..];
            let max_wind = tail.iter().map(|s| s.max_wind).fold(0.0, f64::max);
            let cfl = tail.iter().map(|s| s.cfl).fold(0.0, f64::max);
            sink.health_sample(d.step_index(), healthy, max_wind, cfl);
        }
        if healthy {
            return StepAttempt::Completed;
        }
        // The last ranks() samples belong to this step; find the worst.
        let ranks = d.partition.ranks();
        let n = self.monitor.samples().len();
        let step_samples = &self.monitor.samples()[n.saturating_sub(ranks)..];
        let blowup = step_samples.iter().find_map(|s| s.blowup.clone());
        let detail = step_samples
            .iter()
            .flat_map(|s| s.violations.iter().cloned())
            .chain(blowup.iter().map(|b| b.to_string()))
            .collect::<Vec<_>>()
            .join("; ");
        let kind = if blowup.is_some() {
            FailureKind::Blowup
        } else {
            FailureKind::Violation
        };
        StepAttempt::Failed(kind, detail, blowup)
    }

    fn io_error(
        &self,
        step: u64,
        e: std::io::Error,
        events: &[RecoveryEvent],
        faults_injected: u64,
    ) -> Box<SupervisedError> {
        Box::new(SupervisedError {
            step,
            kind: FailureKind::Violation,
            detail: format!("checkpoint write failed: {e}"),
            blowup: None,
            events: events.to_vec(),
            faults_injected,
        })
    }
}

/// A panic payload's message (`panic!` with a literal or a format).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_are_conservative() {
        let p = SupervisorPolicy::default();
        assert_eq!(p.checkpoint_every, 1);
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.backoff_after, 1);
        assert!(p.checkpoint_dir.is_none());
    }

    #[test]
    fn failure_kind_labels_are_distinct() {
        let labels: Vec<_> = [
            FailureKind::Blowup,
            FailureKind::Violation,
            FailureKind::Panic,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let mut d = labels.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), labels.len());
    }
}
