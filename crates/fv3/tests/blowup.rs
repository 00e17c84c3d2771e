//! Blowup-detector regression test: the monitor holds a handle on the
//! run's tracer, so the report captures the live span stack.
//!
//! Scenario: a baroclinic c8L6 run is healthy for two steps; then one
//! interior cell of `delp` is poisoned mid-run and the next health
//! sample must name the right field, the right logical coordinates, the
//! right timestep, and the spans that were open when the monitor looked.

use comm::CubeGeometry;
use fv3::dyn_core::{baseline_step, BaselineScratch, DycoreConfig};
use fv3::grid::Grid;
use fv3::health::{health_input, HealthMonitor};
use fv3::init::{init_baroclinic, BaroclinicConfig};
use fv3::state::DycoreState;

#[test]
fn poisoned_delp_is_reported_with_field_coords_and_span() {
    let (n, nk) = (8, 6);
    let geom = CubeGeometry::new(n);
    let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, fv3::state::HALO, nk);
    let mut state = DycoreState::zeros(n, nk);
    init_baroclinic(&mut state, &grid, &BaroclinicConfig::default());
    let config = DycoreConfig {
        n_split: 2,
        k_split: 1,
        dt: 5.0,
        dddmp: 0.02,
        nord4_damp: None,
    };
    let mut scratch = BaselineScratch::for_state(&state);

    let tracer = obs::Tracer::new();
    let mut monitor = HealthMonitor::new().with_tracer(&tracer);

    // Two healthy steps.
    for step in 0..2u64 {
        baseline_step(&mut state, &grid, &mut scratch, &config, &mut |_| {});
        let s = monitor.sample(&health_input(&state, &grid, step, config.dt));
        assert!(s.is_healthy(), "step {step} violations: {:?}", s.violations);
    }

    // Poison one interior cell of delp mid-run and sample inside an
    // enclosing span, as a crashing module would be.
    state.delp.set(3, 4, 2, f64::NAN);
    let report = {
        let _step_span = tracer.span("step", "timestep2");
        let _module_span = tracer.span("module", "d_sw");
        let s = monitor.sample(&health_input(&state, &grid, 2, config.dt));
        assert!(!s.is_healthy());
        s.blowup.clone().expect("blowup detected")
    };

    assert_eq!(report.field, "delp");
    assert_eq!((report.i, report.j, report.k), (3, 4, 2));
    assert_eq!(report.step, 2);
    assert!(report.value.is_nan());
    assert_eq!(
        report.span_stack,
        vec!["timestep2".to_string(), "d_sw".to_string()]
    );
    let rendered = format!("{report}");
    assert!(rendered.contains("'delp'"), "{rendered}");
    assert!(rendered.contains("(3, 4, 2)"), "{rendered}");
    assert!(rendered.contains("timestep2 > d_sw"), "{rendered}");

    // The JSONL stream carries the same report on the last line only.
    let jsonl = monitor.to_jsonl();
    assert_eq!(jsonl.lines().count(), 3);
    assert!(!jsonl.lines().next().unwrap().contains("blowup"));
    let last = jsonl.lines().last().unwrap();
    assert!(last.contains("\"blowup\"") && last.contains("\"delp\""));
    assert_eq!(monitor.total_violations() > 0, !monitor.all_healthy());
}
