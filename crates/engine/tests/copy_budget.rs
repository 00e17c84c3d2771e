//! A count, not a clock: how many whole rank states one served request
//! duplicates. `state_copies` is bumped where a state is copied —
//! `Checkpoint::capture` and `DistributedDycore::restore` — and reported
//! per request in its `ForecastReport`. A warm request pays the rewind from the case's template
//! and one capture per step it could still roll back to; the template is
//! its step-0 basis, nothing is captured after the last step, and the
//! report takes the states it returns. (At this PR's parent the same
//! requests read 4 × and 5 × ranks.)

use engine::{EngineConfig, ForecastEngine, ForecastRequest};

#[test]
fn a_warm_request_copies_its_state_once_per_rollback_point() {
    let engine = ForecastEngine::start(EngineConfig {
        slots: 1,
        ..EngineConfig::default()
    });
    let copies_of = |steps: u64| {
        let id = engine.submit(ForecastRequest::c8l6(steps));
        let rep = engine.wait(id).result.expect("clean request");
        let ranks = rep.states.len() as u64;
        (rep.warm_start, rep.state_copies, ranks)
    };
    // Cold: the one capture is the case's template.
    assert_eq!(copies_of(1), (false, 6, 6));
    // Warm: the rewind; plus the capture after step 1 of 2.
    assert_eq!(copies_of(1), (true, 6, 6));
    assert_eq!(copies_of(2), (true, 2 * 6, 6));
    assert_eq!(copies_of(3), (true, 3 * 6, 6));
    engine.shutdown();
}
