//! Deterministic fault injection: a [`Faults`] handle carries an armed
//! plan to the named *sites* compiled into the production crates
//! (`machine::pool`, `comm::halo`, `fv3core::driver`).
//!
//! * **Run-scoped.** A plan is a value, not process state: a site fires
//!   only through the handle its caller holds (its [`crate::RunContext`],
//!   or the pool region a run submits), so a fault fires inside the run
//!   that armed it and nowhere else. Concurrent runs and concurrent tests
//!   need no lock between them.
//! * **Zero cost when inert.** The default handle is `None` inside: every
//!   site is one predictable branch — no lock, no allocation.
//! * **Deterministic.** A plan carries a seed; any site that needs to
//!   pick "a random victim" (which halo patch to corrupt, which message
//!   to drop) derives the index from the seed and a site salt via
//!   [`Faults::det_index`], so a given plan injects the exact same
//!   faults on every run.
//!
//! The type lives in `machine` because it is the bottom of the crate
//! stack: `comm`, `dataflow`, and `fv3core` can all reach it without
//! dependency cycles. Higher-level concerns — parsing the `FV3_FAULT_PLAN`
//! grammar, validating site names, rollback policy — live in
//! `crates/resilience`.

use std::sync::{Arc, Mutex, MutexGuard};

/// Fault sites owned by [`crate::pool`].
pub const SITE_WORKER_PANIC: &str = "pool.worker_panic";
/// See [`SITE_WORKER_PANIC`].
pub const SITE_WORKER_DEATH: &str = "pool.worker_death";

/// What an armed fault does when its site fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Overwrite the target value(s) with NaN.
    PoisonNan,
    /// Multiply the target value by a factor (silent data corruption).
    CorruptFactor(f64),
    /// Drop a whole halo message (the receiving rank finds it lost and
    /// fails).
    DropMessage,
    /// Sleep this many milliseconds inside the exchange (stall).
    StallMs(u64),
    /// Panic the worker thread mid-kernel (caught by the pool, propagated
    /// to the submitter).
    PanicWorker,
    /// Terminate the worker thread entirely (the team shrinks; the pool
    /// must rebuild on the next region instead of hanging).
    KillWorker,
}

/// One armed fault: a site name, trigger conditions, and an action.
///
/// `None` conditions match anything; `once` (the default) retires the
/// spec after its first injection so a rolled-back-and-retried step does
/// not re-poison itself forever.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Site name, e.g. `"halo.corrupt"`.
    pub site: String,
    /// Fire only at this driver step.
    pub step: Option<u64>,
    /// Fire only in this module/substep label (e.g. `"k0.s1"`).
    pub module: Option<String>,
    /// Fire only on the Nth call of this site (0-based, counted while
    /// armed).
    pub at_call: Option<u64>,
    /// Target field name (poison faults).
    pub field: Option<String>,
    /// Target rank (poison / drop faults).
    pub rank: Option<usize>,
    /// What to do.
    pub action: FaultAction,
    /// Retire after the first injection.
    pub once: bool,
}

impl FaultSpec {
    /// A spec firing on the first matching call, once.
    pub fn new(site: &str, action: FaultAction) -> Self {
        FaultSpec {
            site: site.to_string(),
            step: None,
            module: None,
            at_call: None,
            field: None,
            rank: None,
            action,
            once: true,
        }
    }

    /// Restrict to a driver step.
    #[cfg(test)]
    fn at_step(mut self, step: u64) -> Self {
        self.step = Some(step);
        self
    }

    /// Restrict to a module label.
    #[cfg(test)]
    fn in_module(mut self, module: &str) -> Self {
        self.module = Some(module.to_string());
        self
    }

    /// Restrict to the Nth call of the site.
    pub fn at_call(mut self, call: u64) -> Self {
        self.at_call = Some(call);
        self
    }

    /// Fire every time the conditions match, not just once.
    pub fn repeatable(mut self) -> Self {
        self.once = false;
        self
    }
}

/// Context a site passes to [`Faults::fire`]; sites that do not know the driver
/// step or module pass `FireCtx::default()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FireCtx<'a> {
    pub step: Option<u64>,
    pub module: Option<&'a str>,
}

/// One injection that actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionEvent {
    pub site: String,
    pub action: FaultAction,
    /// Driver step at injection time, when the site knew it.
    pub step: Option<u64>,
    /// Module label at injection time, when the site knew it.
    pub module: Option<String>,
    /// 0-based call index of the site at injection time.
    pub call: u64,
}

struct Plan {
    seed: u64,
    /// `(spec, fired)` pairs.
    specs: Vec<(FaultSpec, bool)>,
    /// Per-site call counters (advance on every `fire`).
    calls: Vec<(String, u64)>,
    /// `(scope, event)`: every injection, tagged with the scope of the
    /// handle it fired through.
    log: Vec<(u64, InjectionEvent)>,
    /// Scopes handed out so far ([`Faults::scoped`]).
    scopes: u64,
}

/// A handle on an armed fault plan, or nothing. Clones share the plan
/// *and* the scope; the default handle is inert and can never fire.
#[derive(Clone, Default)]
pub struct Faults {
    plan: Option<Arc<Mutex<Plan>>>,
    /// Which slice of the plan's injection log is this handle's own.
    scope: u64,
}

impl std::fmt::Debug for Faults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.plan {
            None => f.write_str("Faults(inert)"),
            Some(_) => write!(f, "Faults(armed, scope {})", self.scope),
        }
    }
}

fn lock(plan: &Mutex<Plan>) -> MutexGuard<'_, Plan> {
    // Fault tests panic on purpose; a poisoned plan lock is expected.
    plan.lock().unwrap_or_else(|e| e.into_inner())
}

impl Faults {
    /// The handle that never fires: one `Option` check per site.
    pub const fn inert() -> Self {
        Faults {
            plan: None,
            scope: 0,
        }
    }

    /// Arm a plan. It stays armed for as long as a handle to it lives;
    /// `once` specs retire after their first injection.
    #[must_use = "a plan fires only through the handle returned here"]
    pub fn arm(seed: u64, specs: Vec<FaultSpec>) -> Self {
        Faults {
            plan: Some(Arc::new(Mutex::new(Plan {
                seed,
                specs: specs.into_iter().map(|s| (s, false)).collect(),
                calls: Vec::new(),
                log: Vec::new(),
                scopes: 0,
            }))),
            scope: 0,
        }
    }

    /// A handle on the same plan — same specs, same once-retirement, same
    /// call counters — whose [`log`](Self::log) holds only what fires
    /// through it. A serving engine hands one to each request, so a
    /// tenant's injection count is its own and never a neighbour's.
    pub fn scoped(&self) -> Self {
        let scope = self.plan.as_ref().map_or(0, |p| {
            let mut p = lock(p);
            p.scopes += 1;
            p.scopes
        });
        Faults {
            plan: self.plan.clone(),
            scope,
        }
    }

    /// Fast path: is a plan armed behind this handle?
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.plan.is_some()
    }

    /// Fire a site: returns the matching spec (marking it fired) or
    /// `None`. On an inert handle this is a single branch.
    #[inline]
    pub fn fire(&self, site: &str, ctx: FireCtx<'_>) -> Option<FaultSpec> {
        match &self.plan {
            None => None,
            Some(plan) => fire_slow(&mut lock(plan), self.scope, site, ctx),
        }
    }

    /// How many injections `site` performed through this handle's scope.
    pub fn fired_count(&self, site: &str) -> u64 {
        self.log().iter().filter(|e| e.site == site).count() as u64
    }

    /// Every injection performed through this handle's scope, in order.
    pub fn log(&self) -> Vec<InjectionEvent> {
        self.plan.as_ref().map_or_else(Vec::new, |p| {
            let p = lock(p);
            let own = p.log.iter().filter(|(scope, _)| *scope == self.scope);
            own.map(|(_, e)| e.clone()).collect()
        })
    }

    /// Deterministic victim index in `0..len` derived from the plan's
    /// seed, a site-specific salt, and nothing else. Returns 0 on an
    /// inert handle or when `len == 0`.
    pub fn det_index(&self, salt: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let seed = self.plan.as_ref().map_or(0, |p| lock(p).seed);
        // splitmix64 — cheap, well-mixed, reproducible.
        let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % len as u64) as usize
    }
}

fn fire_slow(plan: &mut Plan, scope: u64, site: &str, ctx: FireCtx<'_>) -> Option<FaultSpec> {
    let call = {
        match plan.calls.iter_mut().find(|(s, _)| s == site) {
            Some((_, c)) => {
                let v = *c;
                *c += 1;
                v
            }
            None => {
                plan.calls.push((site.to_string(), 1));
                0
            }
        }
    };
    let hit = plan.specs.iter_mut().find(|(spec, fired)| {
        spec.site == site
            && !(spec.once && *fired)
            && spec.step.is_none_or(|s| ctx.step == Some(s))
            && spec
                .module
                .as_deref()
                .is_none_or(|m| ctx.module == Some(m))
            && spec.at_call.is_none_or(|c| c == call)
    })?;
    hit.1 = true;
    let spec = hit.0.clone();
    plan.log.push((
        scope,
        InjectionEvent {
            site: site.to_string(),
            action: spec.action.clone(),
            step: ctx.step,
            module: ctx.module.map(str::to_string),
            call,
        },
    ));
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_handle_fires_nothing() {
        let f = Faults::inert();
        assert!(!f.is_armed());
        assert!(f.fire("nope", FireCtx::default()).is_none());
        assert!(f.log().is_empty());
        assert!(!f.scoped().is_armed());
    }

    #[test]
    fn matching_and_once_semantics() {
        let f = Faults::arm(
            7,
            vec![
                FaultSpec::new("a.site", FaultAction::PoisonNan).at_step(2),
                FaultSpec::new("b.site", FaultAction::StallMs(5)).repeatable(),
            ],
        );
        // Wrong step: no fire.
        assert!(f
            .fire(
                "a.site",
                FireCtx {
                    step: Some(1),
                    module: None
                }
            )
            .is_none());
        // Right step: fires exactly once.
        let ctx = FireCtx {
            step: Some(2),
            module: None,
        };
        assert!(f.fire("a.site", ctx).is_some());
        assert!(f.fire("a.site", ctx).is_none(), "once-spec must retire");
        // Repeatable spec fires every call.
        assert!(f.fire("b.site", FireCtx::default()).is_some());
        assert!(f.fire("b.site", FireCtx::default()).is_some());
        assert_eq!(f.fired_count("a.site"), 1);
        assert_eq!(f.fired_count("b.site"), 2);
        let log = f.log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].site, "a.site");
        assert_eq!(log[0].step, Some(2));
    }

    #[test]
    fn at_call_counts_per_site() {
        let f = Faults::arm(
            0,
            vec![FaultSpec::new("c.site", FaultAction::DropMessage).at_call(2)],
        );
        assert!(f.fire("c.site", FireCtx::default()).is_none()); // call 0
        assert!(f.fire("c.site", FireCtx::default()).is_none()); // call 1
        assert!(f.fire("c.site", FireCtx::default()).is_some()); // call 2
        assert!(f.fire("c.site", FireCtx::default()).is_none());
    }

    #[test]
    fn module_matching() {
        let f = Faults::arm(
            0,
            vec![FaultSpec::new("m.site", FaultAction::PoisonNan).in_module("k0.s1")],
        );
        assert!(f
            .fire(
                "m.site",
                FireCtx {
                    step: None,
                    module: Some("k0.s0")
                }
            )
            .is_none());
        assert!(f
            .fire(
                "m.site",
                FireCtx {
                    step: None,
                    module: Some("k0.s1")
                }
            )
            .is_some());
    }

    #[test]
    fn det_index_is_stable_and_in_range() {
        let f = Faults::arm(42, vec![]);
        let a = f.det_index(1, 100);
        let b = f.det_index(1, 100);
        assert_eq!(a, b);
        assert!(a < 100);
        assert_eq!(f.det_index(1, 0), 0);
        // Different salts decorrelate.
        assert_ne!(f.det_index(1, 1 << 30), f.det_index(2, 1 << 30));
    }

    #[test]
    fn two_plans_never_see_each_other() {
        let a = Faults::arm(0, vec![FaultSpec::new("d.site", FaultAction::PoisonNan)]);
        let b = Faults::arm(0, vec![]);
        assert!(b.fire("d.site", FireCtx::default()).is_none());
        assert!(a.fire("d.site", FireCtx::default()).is_some());
        assert_eq!((a.fired_count("d.site"), b.fired_count("d.site")), (1, 0));
    }

    /// Scopes of one plan share its specs (a once-spec fires in exactly
    /// one of them) but each logs only its own injections.
    #[test]
    fn scopes_share_specs_and_split_the_log() {
        let plan = Faults::arm(0, vec![FaultSpec::new("e.site", FaultAction::PoisonNan)]);
        let (x, y) = (plan.scoped(), plan.scoped());
        assert!(x.clone().fire("e.site", FireCtx::default()).is_some());
        assert!(y.fire("e.site", FireCtx::default()).is_none(), "retired for every scope");
        assert_eq!(x.log().len(), 1, "clones share a scope");
        assert!(y.log().is_empty() && plan.log().is_empty());
    }
}
