//! The `FV3_FAULT_PLAN` grammar: a deterministic, seeded fault plan
//! parsed from one line of text (`machine::RunConfig::fault_plan`, when
//! it comes from the environment).
//!
//! ```text
//! FV3_FAULT_PLAN = entry (';' entry)*
//! entry          = "seed=" u64
//!                | kind [ '@' key '=' value (',' key '=' value)* ]
//! kind           = "nan" | "corrupt" | "drop" | "stall" | "panic"
//! key            = "step" | "module" | "call" | "field" | "rank"
//!                | "factor" | "ms" | "repeat"
//! ```
//!
//! Examples:
//!
//! * `seed=7;nan@step=3,field=pt` — poison `pt` after the first halo
//!   exchange of step 3;
//! * `panic@call=2` — panic the third kernel launch (on the thread that
//!   runs it, at every rank-team width);
//! * `corrupt@factor=1000` — silently scale one halo value by 1000×;
//! * `stall@ms=200;stall@ms=200` — make one rank post 200 ms late in two
//!   exchanges; its neighbours' receives wait for it, and nothing fails.
//!
//! Every entry is `once` unless `repeat=1`, so a rolled-back retry does
//! not re-poison itself. The default seed is 0; the seed feeds
//! [`machine::Faults::det_index`] victim selection only.

use machine::faults::{self, FaultAction, FaultSpec, Faults};

/// A parsed, validated fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for deterministic victim selection.
    pub seed: u64,
    /// The armed specs, in plan order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty (but armable) plan.
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            specs: Vec::new(),
        }
    }

    /// Parse the grammar above; every error names the offending entry.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|e| format!("bad seed '{seed}': {e}"))?;
                continue;
            }
            plan.specs.push(parse_entry(entry)?);
        }
        Ok(plan)
    }

    /// Arm the plan: the handle to put in the [`machine::RunContext`] of
    /// the run (or, [`scoped`](Faults::scoped), runs) it should fire in.
    #[must_use = "a plan fires only through the handle returned here"]
    pub fn arm(&self) -> Faults {
        Faults::arm(self.seed, self.specs.clone())
    }
}

fn parse_entry(entry: &str) -> Result<FaultSpec, String> {
    let (kind, opts) = match entry.split_once('@') {
        Some((k, o)) => (k.trim(), o),
        None => (entry, ""),
    };
    let (site, mut action) = match kind {
        "nan" => (fv3core::driver::SITE_POISON, FaultAction::PoisonNan),
        "corrupt" => (comm::halo::SITE_HALO_CORRUPT, FaultAction::PoisonNan),
        "drop" => (comm::halo::SITE_HALO_DROP, FaultAction::DropMessage),
        "stall" => (comm::halo::SITE_HALO_STALL, FaultAction::StallMs(100)),
        "panic" => (faults::SITE_WORKER_PANIC, FaultAction::PanicWorker),
        other => {
            return Err(format!(
                "unknown fault kind '{other}' (nan|corrupt|drop|stall|panic)"
            ))
        }
    };
    let mut spec = FaultSpec::new(site, FaultAction::PoisonNan);
    for kv in opts.split(',') {
        let kv = kv.trim();
        if kv.is_empty() {
            continue;
        }
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("'{entry}': option '{kv}' is not key=value"))?;
        let int = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|e| format!("'{entry}': bad {what} '{value}': {e}"))
        };
        match key.trim() {
            "step" => spec.step = Some(int("step")?),
            "module" => spec.module = Some(value.to_string()),
            "call" => spec.at_call = Some(int("call")?),
            "field" => spec.field = Some(value.to_string()),
            "rank" => spec.rank = Some(int("rank")? as usize),
            "factor" => {
                let f: f64 = value
                    .parse()
                    .map_err(|e| format!("'{entry}': bad factor '{value}': {e}"))?;
                action = FaultAction::CorruptFactor(f);
            }
            "ms" => action = FaultAction::StallMs(int("ms")?),
            "repeat" => spec.once = int("repeat")? == 0,
            other => return Err(format!("'{entry}': unknown option '{other}'")),
        }
    }
    spec.action = action;
    debug_assert!(
        crate::known_sites().contains(&spec.site.as_str()),
        "kind table references unknown site {}",
        spec.site
    );
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_examples() {
        let p = FaultPlan::parse("seed=7;nan@step=3,field=pt").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.specs.len(), 1);
        let s = &p.specs[0];
        assert_eq!(s.site, fv3core::driver::SITE_POISON);
        assert_eq!(s.step, Some(3));
        assert_eq!(s.field.as_deref(), Some("pt"));
        assert_eq!(s.action, FaultAction::PoisonNan);
        assert!(s.once);

        let p = FaultPlan::parse("panic@call=2").unwrap();
        assert_eq!(p.specs[0].site, faults::SITE_WORKER_PANIC);
        assert_eq!(p.specs[0].action, FaultAction::PanicWorker);
        assert_eq!(p.specs[0].at_call, Some(2));

        let p = FaultPlan::parse("corrupt@factor=1000").unwrap();
        assert_eq!(p.specs[0].action, FaultAction::CorruptFactor(1000.0));

        let p = FaultPlan::parse("stall@ms=200;stall@ms=200").unwrap();
        assert_eq!(p.specs.len(), 2);
        assert_eq!(p.specs[0].action, FaultAction::StallMs(200));
        assert!(p.specs.iter().all(|s| s.site == comm::halo::SITE_HALO_STALL));

        let p = FaultPlan::parse("drop@repeat=1,rank=0").unwrap();
        assert_eq!(p.specs[0].action, FaultAction::DropMessage);
        assert_eq!(p.specs[0].rank, Some(0));
        assert!(!p.specs[0].once);
    }

    #[test]
    fn default_stall_and_drop_actions() {
        let p = FaultPlan::parse("stall;drop").unwrap();
        assert_eq!(p.specs[0].action, FaultAction::StallMs(100));
        assert_eq!(p.specs[1].action, FaultAction::DropMessage);
    }

    #[test]
    fn rejects_malformed_plans_descriptively() {
        for (text, needle) in [
            ("explode", "unknown fault kind"),
            ("nan@when=3", "unknown option"),
            ("nan@step=soon", "bad step"),
            ("seed=banana", "bad seed"),
            ("nan@step", "not key=value"),
            ("corrupt@factor=big", "bad factor"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn empty_and_whitespace_plans_are_empty() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::empty());
        assert_eq!(FaultPlan::parse(" ; ;").unwrap(), FaultPlan::empty());
    }
}
