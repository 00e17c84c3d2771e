//! One pinned chaos seed: the terminal-exactly-once guarantee under a
//! seeded mix of cancellation, deadlines, quotas, overload shedding,
//! and an injected fault, all at once, on real slots. The admission rules
//! alone are enumerated in `src/admission.rs`; this is the threaded check
//! that the shell keeps them with runs, faults and the stream in play.
//!
//! The seed must show:
//!
//! * every admitted request reaches exactly ONE of the five terminals
//!   (completed / failed / cancelled / evicted / shed) within a hard
//!   deadline — no deadlock, no lost request, no double deposit;
//! * the event stream closes every admitted lifecycle with exactly one
//!   terminal event, and the sized buffer drops nothing;
//! * requests that complete are 0-ULP bit-identical to a solo
//!   fresh-process run — admission chaos next door never perturbs a
//!   surviving tenant;
//! * the engine itself survives: slots all release, tenant occupancy
//!   drains to zero, and a follow-up probe completes bit-identically on
//!   the still-shared compile bundle (no warm-pool contamination from
//!   cancelled or failed tenants).
//!
//! The fault plan belongs to the engine (`EngineConfig::faults`), so
//! nothing here is process-global.

use dataflow::graph::ExpansionAttrs;
use engine::{
    EngineConfig, ForecastEngine, ForecastRequest, ForecastResult, Priority, RequestId,
    SubmitOptions,
};
use fv3::state::DycoreState;
use fv3core::DistributedDycore;
use resilience::{FaultPlan, SupervisorPolicy};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;

/// Hitting this means a hang, not a slow machine.
const DEADLINE: Duration = Duration::from_secs(120);

/// Chaos requests all share one budget so one solo reference covers
/// every completion.
const CHAOS_STEPS: u64 = 2;

/// Solo fresh-process references, computed once.
fn references() -> &'static (Vec<DycoreState>, Vec<DycoreState>) {
    static REFS: OnceLock<(Vec<DycoreState>, Vec<DycoreState>)> = OnceLock::new();
    REFS.get_or_init(|| {
        let solo = |steps: u64| {
            let req = ForecastRequest::c8l6(steps);
            let mut d = DistributedDycore::new(req.config, &ExpansionAttrs::tuned());
            for _ in 0..steps {
                d.step();
            }
            d.states.clone()
        };
        (solo(1), solo(CHAOS_STEPS))
    })
}

fn assert_bit_identical(got: &[DycoreState], want: &[DycoreState], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: rank count");
    for (r, (sa, sb)) in got.iter().zip(want).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            let (va, vb) = (fa.export_logical(), fb.export_logical());
            for (n, (x, y)) in va.iter().zip(&vb).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label}: rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}

/// Deterministic per-seed xorshift, so every pinned seed replays its
/// exact admission mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0 | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// One chaos interleaving. Odd seeds also arm a once-firing NaN fault
/// (`nan@step=1` never touches the 1-step warmup or probe), run under a
/// zero-retry policy so the poisoned tenant fails attributably.
fn chaos_case(seed: u64) {
    let (ref1, ref2) = references();
    let label = format!("seed={seed:#x}");
    let mut rng = Rng(seed);

    let fault_armed = seed % 2 == 1;
    let faults = fault_armed.then(|| {
        FaultPlan::parse(&format!("seed={};nan@step=1,field=pt", seed % 97))
            .expect("chaos plan parses")
    });

    let slots = 1 + (seed % 3) as usize;
    let engine = ForecastEngine::start(EngineConfig {
        slots,
        queue_cap: 4,
        tenant_cap: Some(2),
        streaming: true,
        stream_buffer: 16 * 1024,
        policy: SupervisorPolicy {
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        faults,
        ..EngineConfig::default()
    });
    let warm = engine.submit(ForecastRequest::c8l6(1).with_label("warmup"));
    engine
        .wait_timeout(warm, DEADLINE)
        .unwrap_or_else(|| panic!("{label}: warmup hung"))
        .result
        .expect("warmup completes (the fault site is step 1)");

    // Subscribe after the warmup: the drained stream carries exactly
    // the chaos batch plus the probe.
    let stream = engine.subscribe_all().expect("streaming engine has a bus");

    // The seeded admission mix: 8 offers across all three lanes, some
    // with deadlines that cannot be met, some against a capped tenant.
    let mut admitted: Vec<RequestId> = Vec::new();
    let mut refused = 0u64;
    for i in 0..8 {
        let mut opts = SubmitOptions::default().priority(match rng.next() % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Batch,
        });
        if rng.chance(25) {
            opts = opts.deadline(Duration::from_millis(5));
        }
        if rng.chance(40) {
            opts = opts.tenant("t0");
        }
        let req = ForecastRequest::c8l6(CHAOS_STEPS).with_label(&format!("chaos-{i}"));
        match engine.try_submit_with(req, opts) {
            Ok(id) => admitted.push(id),
            Err(_) => refused += 1,
        }
    }
    // Cancel a seeded subset mid-flight: some victims are still queued,
    // some are running, some already terminal (cancel returns false).
    for id in &admitted {
        if rng.chance(33) {
            engine.cancel(*id);
        }
    }

    // Terminal exactly once: every admitted id yields an outcome within
    // the deadline, and completions are bit-identical to the solo run.
    let mut tally: HashMap<&'static str, u64> = HashMap::new();
    for id in &admitted {
        let out = engine
            .wait_timeout(*id, DEADLINE)
            .unwrap_or_else(|| panic!("{label}: request {id} hung or was lost"));
        assert_eq!(out.id, *id, "{label}: outcome routed to the wrong waiter");
        *tally.entry(out.result.terminal()).or_default() += 1;
        if let ForecastResult::Completed(rep) = &out.result {
            assert_eq!(rep.steps, CHAOS_STEPS, "{label}: {id} ran a wrong budget");
            assert_bit_identical(&rep.states, ref2, &format!("{label}: {}", out.label));
        }
    }
    eprintln!(
        "{label}: slots={slots} fault={fault_armed} admitted={} refused={refused} tally={tally:?}",
        admitted.len()
    );
    let take = |k| tally.get(k).copied().unwrap_or(0);
    let terminals =
        take("completed") + take("failed") + take("cancelled") + take("evicted") + take("shed");
    assert_eq!(
        terminals,
        admitted.len() as u64,
        "{label}: every admitted request reaches exactly one terminal ({tally:?})"
    );
    assert!(
        take("failed") <= fault_armed as u64,
        "{label}: only the armed fault may fail a request ({tally:?})"
    );

    // The engine survives its own admission chaos: occupancy drains and
    // a probe completes bit-identically with zero recompiles — no
    // cancelled or failed tenant contaminated the warm pool or cache.
    let probe = engine.submit(ForecastRequest::c8l6(1).with_label("probe"));
    let rep = engine
        .wait_timeout(probe, DEADLINE)
        .unwrap_or_else(|| panic!("{label}: probe hung"))
        .result
        .expect("probe completes after the chaos");
    assert_bit_identical(&rep.states, ref1, &format!("{label}: probe"));
    assert_eq!(rep.cache_misses, 0, "{label}: probe recompiled a warm case");

    // Every admitted request has been taken: a slot leaves the running
    // set under the same lock that deposits its outcome.
    let st = engine.status();
    assert_eq!((st.slots_busy, st.queued.len()), (0, 0), "{label}: a slot never released");
    assert!(st.tenants.is_empty(), "{label}: leaked tenant occupancy");

    // The stream closed every admitted lifecycle with exactly one
    // terminal event, and the sized buffer dropped nothing.
    let mut closures: HashMap<String, u64> = HashMap::new();
    for ev in stream.drain() {
        if ev.body.kind().starts_with("request_")
            && !matches!(ev.body.kind(), "request_queued" | "request_started")
        {
            *closures.entry(ev.request.expect("terminal events carry an id")).or_default() += 1;
        }
    }
    for id in &admitted {
        assert_eq!(
            closures.get(&id.to_string()).copied().unwrap_or(0),
            1,
            "{label}: request {id} needs exactly one terminal event"
        );
    }
    assert_eq!(engine.status().events_dropped, 0, "{label}: sized buffer dropped events");

    // Two sources count admissions and terminals — the stats, from the
    // admission machine's tally, and the unlabeled `requests_<terminal>`
    // counters the shell adds to — and they agree.
    let (m, s) = (engine.metrics(), engine.stats());
    for (name, n) in [
        ("submitted", s.submitted),
        ("completed", s.completed),
        ("failed", s.failed),
        ("cancelled", s.cancelled),
        ("evicted", s.evicted),
        ("shed", s.shed),
    ] {
        let counted = m.counter_value(&format!("requests_{name}"), &[]);
        assert_eq!(counted, n, "{label}: requests_{name} counter vs stats");
    }

    let stats = engine.shutdown();
    assert_eq!(
        stats.submitted,
        admitted.len() as u64 + 2,
        "{label}: submitted counts warmup + admitted + probe"
    );
    assert_eq!(stats.rejected, refused, "{label}: refusals accounted");
    assert_eq!(stats.completed, take("completed") + 2, "{label}: completions");
    assert_eq!(stats.failed, take("failed"), "{label}: failures");
    assert_eq!(stats.cancelled, take("cancelled"), "{label}: cancellations");
    assert_eq!(stats.evicted, take("evicted"), "{label}: evictions");
    assert_eq!(stats.shed, take("shed"), "{label}: sheds");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.failed + stats.cancelled + stats.evicted + stats.shed,
        "{label}: the five terminals conserve every submission"
    );
}

/// Fault armed, wide mix: every lane and both refusal types.
#[test]
fn pinned_chaos_fault_wide_mix() {
    chaos_case(0x5EED);
}
