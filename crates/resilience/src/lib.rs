//! Supervised runs: fault-plan parsing, checkpoint cadence, and
//! rollback-on-blowup recovery (ISSUE 5).
//!
//! The layers below provide the mechanisms — `machine::faults` is the
//! run-scoped injection plan, `fv3core::checkpoint` the
//! crash-consistent `FV3CKPT1` restart basis, `comm::halo` the halo
//! fault sites (a late sender, a lost or corrupted message),
//! `dataflow::exec` the kernel-panic site. This crate is the policy on
//! top:
//!
//! * [`FaultPlan`] parses the `FV3_FAULT_PLAN` grammar into
//!   [`machine::faults::FaultSpec`]s with validated site names, armed
//!   as a [`machine::Faults`] handle for one run's context;
//! * [`Supervisor`] wraps [`fv3core::DistributedDycore::step`] with
//!   health sampling, periodic checkpoints, and a bounded
//!   rollback-and-retry loop (halved `dt`, doubled acoustic substeps)
//!   that turns a mid-run NaN or kernel panic into a recovered forecast
//!   instead of a dead job — or, past the retry budget, into a
//!   [`SupervisedError`] carrying the [`fv3::health::BlowupReport`] and span
//!   stack a post-mortem needs.
//!
//! A run's counts — retries, restores, ranks restored, checkpoints
//! written, faults fired — are fields of its [`RunReport`], the one place
//! they are kept; which site each fault fired at is in the run's
//! [`machine::Faults::log`].
//!
//! With no plan armed and checkpointing off, a supervised run is
//! bit-identical to calling `step()` in a loop (asserted by
//! `tests/integration_resilience.rs`).

pub mod fault;
pub mod supervisor;

pub use fault::FaultPlan;
pub use machine::cancel::{CancelCause, CancelToken};
pub use supervisor::{
    FailureKind, RecoveryEvent, RunReport, SupervisedError, Supervisor, SupervisorPolicy,
};

/// Every fault site compiled into the production crates, by layer.
pub fn known_sites() -> Vec<&'static str> {
    let mut sites = vec![machine::faults::SITE_WORKER_PANIC];
    sites.extend(comm::halo::FAULT_SITES);
    sites.extend(fv3core::driver::FAULT_SITES);
    sites
}

#[cfg(test)]
mod tests {
    #[test]
    fn site_registry_is_complete_and_unique() {
        let sites = super::known_sites();
        assert_eq!(sites.len(), 5);
        let mut dedup = sites.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sites.len(), "duplicate site names");
        for s in sites {
            let (layer, name) = s.split_once('.').expect("layer.name convention");
            assert!(!layer.is_empty() && !name.is_empty());
        }
    }
}
