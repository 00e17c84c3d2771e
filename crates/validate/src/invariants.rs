//! Physical invariant checks: air-mass and tracer-mass conservation and
//! an energy-drift bound across acoustic substeps.
//!
//! On a single open-boundary subdomain, mass is *not* globally conserved
//! — every substep imports and exports mass through the lateral
//! boundaries. What the flux-form scheme guarantees instead is exact
//! bookkeeping: the change of `Σ delp·area` over a substep equals the
//! area-weighted divergence of the interface mass fluxes the substep
//! used, to rounding. [`ConservationLedger`] rides along a recorded
//! baseline step (it is a [`StateRecorder`]), accumulates the
//! flux-implied mass change from the captured `xfx`/`yfx` (air) and
//! `fx`/`fy` (tracer) savepoints, and [`check_invariants`] compares it
//! with the measured change — the *flux-corrected drift*, which must sit
//! at rounding level (≤ 1e-12 relative) no matter how hard the winds
//! blow through the boundary. The vertical remap must conserve both
//! column air mass and tracer mass outright, so the same ledger spans
//! full steps including remap.

use dataflow::Array3;
use fv3::grid::Grid;
use fv3::init::constants::{GRAV, RDGAS};
use fv3::recorder::StateRecorder;
use fv3::state::DycoreState;

/// Specific heat of dry air at constant pressure [J/(kg K)]
/// (`cp = R / kappa` with kappa = 2/7).
pub const CP_AIR: f64 = RDGAS * 3.5;

/// Total-energy proxy for drift monitoring: column-integrated enthalpy
/// plus kinetic energy, `Σ (delp/g)·area·(cp·pt + (u² + v² + w²)/2)`.
/// `pt` is potential temperature, so this is not the exact moist-energy
/// budget of the full model — it is a stable scalar whose relative drift
/// bounds how fast the integration is heating or cooling itself.
fn total_energy(state: &DycoreState, grid: &Grid) -> f64 {
    let mut e = 0.0;
    for k in 0..state.nk as i64 {
        for j in 0..state.n as i64 {
            for i in 0..state.n as i64 {
                let m = state.delp.get(i, j, k) / GRAV * grid.area.get(i, j, 0);
                let ke = 0.5
                    * (state.u.get(i, j, k).powi(2)
                        + state.v.get(i, j, k).powi(2)
                        + state.w.get(i, j, k).powi(2));
                e += m * (CP_AIR * state.pt.get(i, j, k) + ke);
            }
        }
    }
    e
}

/// Area-weighted flux divergence `Σ area·rarea·(xf_i − xf_{i+1} + yf_j −
/// yf_{j+1})` — exactly the total the transport update adds to
/// `Σ delp·area` (or `Σ q·delp·area` for scalar fluxes), term by term.
fn flux_implied_change(grid: &Grid, xf: &Array3, yf: &Array3) -> f64 {
    let [ni, nj, nk] = xf.layout().domain;
    let mut s = 0.0;
    for k in 0..nk as i64 {
        for j in 0..nj as i64 {
            for i in 0..ni as i64 {
                let div = xf.get(i, j, k) - xf.get(i + 1, j, k) + yf.get(i, j, k)
                    - yf.get(i, j + 1, k);
                s += grid.area.get(i, j, 0) * (grid.rarea.get(i, j, 0) * div);
            }
        }
    }
    s
}

/// A [`StateRecorder`] that accumulates flux-implied mass changes from
/// the savepoints of a recorded baseline step.
pub struct ConservationLedger<'g> {
    grid: &'g Grid,
    /// Flux-implied change of `Σ delp·area` (from `xfx`/`yfx`).
    pub air_flux_change: f64,
    /// Flux-implied change of `Σ q·delp·area` (from `fx`/`fy`).
    pub tracer_flux_change: f64,
    /// Acoustic substeps seen (one `c_sw` savepoint each).
    pub substeps: usize,
}

impl<'g> ConservationLedger<'g> {
    pub fn new(grid: &'g Grid) -> Self {
        ConservationLedger {
            grid,
            air_flux_change: 0.0,
            tracer_flux_change: 0.0,
            substeps: 0,
        }
    }
}

impl StateRecorder for ConservationLedger<'_> {
    fn record(&mut self, label: &str, fields: &[(&str, &Array3)]) {
        let get = |name: &str| fields.iter().find(|(n, _)| *n == name).map(|(_, a)| *a);
        if label.ends_with(".c_sw") {
            self.substeps += 1;
            let (xfx, yfx) = (
                get("xfx").expect("c_sw savepoint has xfx"),
                get("yfx").expect("c_sw savepoint has yfx"),
            );
            self.air_flux_change += flux_implied_change(self.grid, xfx, yfx);
        } else if label.ends_with(".transport") {
            let (fx, fy) = (
                get("fx").expect("transport savepoint has fx"),
                get("fy").expect("transport savepoint has fy"),
            );
            self.tracer_flux_change += flux_implied_change(self.grid, fx, fy);
        }
    }
}

/// Result of an invariant check between two states.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// `|ΔM_measured − ΔM_flux| / M_0` for air mass.
    pub air_rel_drift: f64,
    /// Same for tracer mass.
    pub tracer_rel_drift: f64,
    /// `|E_1/E_0 − 1|` for the total-energy proxy.
    pub energy_rel_drift: f64,
    /// Substeps the ledger integrated over.
    pub substeps: usize,
}

impl InvariantReport {
    /// Panic with a descriptive message if any drift exceeds its bound.
    pub fn assert_within(&self, air: f64, tracer: f64, energy: f64) {
        assert!(
            self.air_rel_drift <= air,
            "air-mass flux-corrected drift {:.3e} exceeds {air:.1e} over {} substeps",
            self.air_rel_drift,
            self.substeps
        );
        assert!(
            self.tracer_rel_drift <= tracer,
            "tracer-mass flux-corrected drift {:.3e} exceeds {tracer:.1e} over {} substeps",
            self.tracer_rel_drift,
            self.substeps
        );
        assert!(
            self.energy_rel_drift <= energy,
            "energy drift {:.3e} exceeds {energy:.1e} over {} substeps",
            self.energy_rel_drift,
            self.substeps
        );
    }
}

/// Evaluate the conservation invariants between `before` and `after`,
/// given the ledger that rode along the integration.
///
/// Valid for configurations without extra tracer damping
/// (`nord4_damp: None`) — hyperdiffusion deliberately destroys tracer
/// variance and its fluxes are not captured.
pub fn check_invariants(
    before: &DycoreState,
    after: &DycoreState,
    grid: &Grid,
    ledger: &ConservationLedger<'_>,
) -> InvariantReport {
    let m0 = before.air_mass(&grid.area);
    let m1 = after.air_mass(&grid.area);
    let t0 = before.tracer_mass(&grid.area);
    let t1 = after.tracer_mass(&grid.area);
    let e0 = total_energy(before, grid);
    let e1 = total_energy(after, grid);
    InvariantReport {
        air_rel_drift: (m1 - m0 - ledger.air_flux_change).abs() / m0.abs(),
        tracer_rel_drift: (t1 - t0 - ledger.tracer_flux_change).abs() / t0.abs(),
        energy_rel_drift: (e1 / e0 - 1.0).abs(),
        substeps: ledger.substeps,
    }
}

/// Check every prognostic for non-finite values; names the first
/// offender and its logical index.
pub fn check_finite(state: &DycoreState) -> Result<(), String> {
    for (name, f) in state.fields() {
        for k in 0..state.nk as i64 {
            for j in 0..state.n as i64 {
                for i in 0..state.n as i64 {
                    let v = f.get(i, j, k);
                    if !v.is_finite() {
                        return Err(format!("field '{name}' is {v} at ({i}, {j}, {k})"));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{seed_case, seed_config};
    use fv3::dyn_core::{baseline_step_recorded, BaselineScratch};

    #[test]
    fn air_mass_flux_corrected_drift_is_rounding_level_over_5_substeps() {
        // The ISSUE acceptance bar: ≤ 1e-12 relative flux-corrected
        // drift over 5 acoustic substeps on the seed grid.
        let (mut state, grid) = seed_case();
        let before = state.clone();
        let config = fv3::dyn_core::DycoreConfig {
            n_split: 5,
            k_split: 1,
            ..seed_config()
        };
        let mut scratch = BaselineScratch::for_state(&state);
        let mut ledger = ConservationLedger::new(&grid);
        baseline_step_recorded(&mut state, &grid, &mut scratch, &config, &mut |_| {}, &mut ledger);
        assert_eq!(ledger.substeps, 5);
        let report = check_invariants(&before, &state, &grid, &ledger);
        report.assert_within(1e-12, 1e-12, 2e-2);
        // The raw (uncorrected) drift is much larger — the boundaries
        // really do exchange mass, so the correction is load-bearing.
        let raw = (state.air_mass(&grid.area) / before.air_mass(&grid.area) - 1.0).abs();
        assert!(
            raw > report.air_rel_drift * 10.0,
            "raw drift {raw:.3e} vs corrected {:.3e}",
            report.air_rel_drift
        );
    }

    #[test]
    fn invariants_hold_across_multiple_full_steps_with_remap() {
        let (mut state, grid) = seed_case();
        let before = state.clone();
        let config = seed_config();
        let mut scratch = BaselineScratch::for_state(&state);
        let mut ledger = ConservationLedger::new(&grid);
        for _ in 0..3 {
            baseline_step_recorded(
                &mut state,
                &grid,
                &mut scratch,
                &config,
                &mut |_| {},
                &mut ledger,
            );
        }
        let report = check_invariants(&before, &state, &grid, &ledger);
        report.assert_within(1e-12, 1e-12, 2e-2);
    }

    #[test]
    fn obs_health_diagnostics_match_invariants_bitwise() {
        // The flight recorder's drift baseline must be the *same number*
        // as the validation invariants, or the two subsystems would
        // disagree about whether a run is conserving.
        let (state, grid) = seed_case();
        let mut mon = fv3::health::HealthMonitor::new();
        let s = mon.sample(&fv3::health::health_input(&state, &grid, 0, 5.0));
        assert_eq!(s.energy, total_energy(&state, &grid));
        assert_eq!(s.air_mass, state.air_mass(&grid.area));
        assert_eq!(fv3::health::CP_AIR, CP_AIR);
    }

    #[test]
    fn check_finite_names_the_offender() {
        let (mut state, _grid) = seed_case();
        assert!(check_finite(&state).is_ok());
        state.w.set(3, 2, 1, f64::INFINITY);
        let msg = check_finite(&state).unwrap_err();
        assert!(msg.contains("'w'") && msg.contains("(3, 2, 1)"), "{msg}");
    }

    #[test]
    fn energy_proxy_is_positive_and_dominated_by_enthalpy() {
        let (state, grid) = seed_case();
        let e = total_energy(&state, &grid);
        assert!(e > 0.0);
        // Enthalpy alone is within 1% of the total at init (winds are
        // tens of m/s; cp·T is ~3e5 J/kg).
        let mut h = 0.0;
        for k in 0..state.nk as i64 {
            for j in 0..state.n as i64 {
                for i in 0..state.n as i64 {
                    h += state.delp.get(i, j, k) / GRAV
                        * grid.area.get(i, j, 0)
                        * CP_AIR
                        * state.pt.get(i, j, k);
                }
            }
        }
        assert!((e - h) / e < 0.01);
    }
}
