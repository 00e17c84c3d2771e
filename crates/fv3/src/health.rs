//! Model-health monitoring: is the simulation still physically sane?
//!
//! The FORTRAN FV3 answers this with `range_check` and the
//! `fv_diagnostics` prints that operators eyeball in job logs. Here the
//! same signals are computed programmatically once per timestep by a
//! [`HealthMonitor`]:
//!
//! * **CFL estimate** — `dt · max(|u|·rdx + |v|·rdy)`; above ~1 the
//!   acoustic loop is unstable for the explicit scheme.
//! * **max wind** — `max √(u²+v²+w²)`; jet maxima beyond ~350 m/s mean
//!   the dynamics have left the physical regime.
//! * **surface pressure bounds** — per-column `ptop + Σ_k delp` must
//!   stay within broad Earth-like bounds.
//! * **mass / energy drift** — relative drift of `Σ delp·area` and the
//!   total-energy proxy against the first sample (the finite-volume
//!   scheme conserves both up to damping).
//! * **blowup detector** — first non-finite value anywhere in the
//!   prognostics, reported with field name, logical `(i, j, k)`,
//!   timestep, and the innermost-to-outermost span stack captured from
//!   an attached [`Tracer`] — "delp went NaN at (3, 4, 2) inside
//!   k0.s1.d_sw" instead of a bare panic three modules later.
//!
//! The monitor samples raw [`Array3`] references plus the physical
//! constants via [`HealthInput`]; [`health_input`] packages a
//! [`DycoreState`] + [`Grid`] into one. Usage per timestep:
//!
//! ```ignore
//! let mut monitor = fv3::health::HealthMonitor::new();
//! monitor.sample(&fv3::health::health_input(&state, &grid, step, config.dt));
//! ```
//!
//! The sums are cross-checked against `validate::invariants`.

use crate::grid::Grid;
use crate::init::constants::{GRAV, PTOP, RDGAS};
use crate::state::DycoreState;
use dataflow::storage::Array3;
use obs::json;
use obs::tracing::Tracer;
use std::fmt;
use std::fmt::Write as _;

/// Specific heat of dry air at constant pressure, matching
/// `validate::invariants::CP_AIR` (`RDGAS * 3.5`).
pub const CP_AIR: f64 = RDGAS * 3.5;

/// Bounds beyond which a sample is flagged as a violation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthThresholds {
    /// Max permitted wind speed magnitude \[m/s\].
    pub max_wind: f64,
    /// Max permitted advective CFL number.
    pub max_cfl: f64,
    /// Surface-pressure lower bound \[Pa\].
    pub ps_min: f64,
    /// Surface-pressure upper bound \[Pa\].
    pub ps_max: f64,
    /// Max relative air-mass drift vs the first sample.
    pub max_mass_drift: f64,
    /// Max relative total-energy drift vs the first sample.
    pub max_energy_drift: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        // Generous envelopes: real atmospheres sit well inside (jet
        // maxima ~100 m/s, ps 50-108 kPa); a blowing-up integration
        // blasts through them within a few steps.
        HealthThresholds {
            max_wind: 350.0,
            max_cfl: 1.0,
            ps_min: 30_000.0,
            ps_max: 120_000.0,
            max_mass_drift: 0.05,
            max_energy_drift: 0.05,
        }
    }
}

/// One timestep's worth of model state handed to the monitor.
///
/// Metric fields (`area`, `rdx`, `rdy`) are read at `k = 0` (horizontal:
/// every level reads one plane, [`crate::grid::Grid`]). `fields` is the full
/// prognostic list scanned by the blowup detector; the named references
/// are the subset the physics diagnostics need.
pub struct HealthInput<'a> {
    /// Timestep index.
    pub step: u64,
    /// Acoustic timestep \[s\] (for the CFL estimate).
    pub dt: f64,
    /// Model-top pressure \[Pa\].
    pub ptop: f64,
    /// Specific heat at constant pressure \[J/(kg·K)\].
    pub cp: f64,
    /// Gravity \[m/s²\].
    pub grav: f64,
    /// Every prognostic, scanned for non-finite values.
    pub fields: Vec<(&'a str, &'a Array3)>,
    pub delp: &'a Array3,
    pub pt: &'a Array3,
    pub u: &'a Array3,
    pub v: &'a Array3,
    pub w: &'a Array3,
    pub q: &'a Array3,
    pub area: &'a Array3,
    pub rdx: &'a Array3,
    pub rdy: &'a Array3,
}

/// Package one timestep of dycore state for [`HealthMonitor::sample`].
///
/// `dt` is the acoustic timestep (`config.dt`), the step the CFL
/// estimate must be measured against.
pub fn health_input<'a>(
    state: &'a DycoreState,
    grid: &'a Grid,
    step: u64,
    dt: f64,
) -> HealthInput<'a> {
    HealthInput {
        step,
        dt,
        ptop: PTOP,
        cp: CP_AIR,
        grav: GRAV,
        fields: state.fields().to_vec(),
        delp: &state.delp,
        pt: &state.pt,
        u: &state.u,
        v: &state.v,
        w: &state.w,
        q: &state.q,
        area: &grid.area,
        rdx: &grid.rdx,
        rdy: &grid.rdy,
    }
}

/// Where (and what) the first non-finite value was.
#[derive(Debug, Clone, PartialEq)]
pub struct BlowupReport {
    /// Prognostic field name.
    pub field: String,
    /// Logical coordinates of the poisoned cell.
    pub i: i64,
    pub j: i64,
    pub k: i64,
    /// The offending value (NaN or ±inf).
    pub value: f64,
    /// Timestep at which it was detected.
    pub step: u64,
    /// Enclosing spans, outermost first, at detection time.
    pub span_stack: Vec<String>,
}

impl fmt::Display for BlowupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-finite {} in '{}' at ({}, {}, {}) on step {}",
            self.value, self.field, self.i, self.j, self.k, self.step
        )?;
        if !self.span_stack.is_empty() {
            write!(f, " inside {}", self.span_stack.join(" > "))?;
        }
        Ok(())
    }
}

/// Diagnostics for one timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSample {
    pub step: u64,
    /// `max √(u²+v²+w²)` over the compute domain \[m/s\].
    pub max_wind: f64,
    /// `dt · max(|u|·rdx + |v|·rdy)` over the compute domain.
    pub cfl: f64,
    /// Min / max per-column surface pressure `ptop + Σ_k delp` \[Pa\].
    pub ps_min: f64,
    pub ps_max: f64,
    /// `Σ delp·area` (column k-outer sum, matching the validate crate).
    pub air_mass: f64,
    /// `Σ q·delp·area`.
    pub tracer_mass: f64,
    /// `Σ delp/g·area·(cp·pt + ½(u²+v²+w²))`.
    pub energy: f64,
    /// Relative drift vs the monitor's first sample (0 on the first).
    pub mass_drift: f64,
    pub energy_drift: f64,
    /// First non-finite value, if any prognostic blew up.
    pub blowup: Option<BlowupReport>,
    /// Human-readable description of every threshold violation.
    pub violations: Vec<String>,
}

impl HealthSample {
    /// True when nothing blew up and no threshold was crossed.
    pub fn is_healthy(&self) -> bool {
        self.blowup.is_none() && self.violations.is_empty()
    }

    /// One JSON object (no trailing newline) for `RUN_health.jsonl`.
    ///
    /// Non-finite diagnostics (a blown-up run) are emitted as quoted
    /// strings (`"inf"`, `"NaN"`) so every line stays valid JSON.
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                format!("\"{v}\"")
            }
        };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"step\":{},\"max_wind\":{},\"cfl\":{},\"ps_min\":{},\"ps_max\":{},\
             \"air_mass\":{},\"tracer_mass\":{},\"energy\":{},\"mass_drift\":{},\
             \"energy_drift\":{},\"healthy\":{}",
            self.step,
            num(self.max_wind),
            num(self.cfl),
            num(self.ps_min),
            num(self.ps_max),
            num(self.air_mass),
            num(self.tracer_mass),
            num(self.energy),
            num(self.mass_drift),
            num(self.energy_drift),
            self.is_healthy()
        );
        s.push_str(",\"violations\":[");
        for (n, v) in self.violations.iter().enumerate() {
            if n > 0 {
                s.push(',');
            }
            s.push_str(&json::string(v));
        }
        s.push(']');
        if let Some(b) = &self.blowup {
            let _ = write!(
                s,
                ",\"blowup\":{{\"field\":{},\"i\":{},\"j\":{},\"k\":{},\"value\":{},\
                 \"span_stack\":[",
                json::string(&b.field),
                b.i,
                b.j,
                b.k,
                json::string(&format!("{}", b.value))
            );
            for (n, sp) in b.span_stack.iter().enumerate() {
                if n > 0 {
                    s.push(',');
                }
                s.push_str(&json::string(sp));
            }
            s.push_str("]}");
        }
        s.push('}');
        s
    }
}

/// Scan `fields` (logical compute domain, canonical field order then
/// k-outer / j / i) for the first non-finite value.
fn check_fields(
    fields: &[(&str, &Array3)],
    step: u64,
    span_stack: &[String],
) -> Option<BlowupReport> {
    for (name, a) in fields {
        let [ni, nj, nk] = a.layout().domain;
        for k in 0..nk as i64 {
            for j in 0..nj as i64 {
                let row = a.row(j, k);
                for i in 0..ni {
                    let v = row.at(i);
                    if !v.is_finite() {
                        return Some(BlowupReport {
                            field: name.to_string(),
                            i: i as i64,
                            j,
                            k,
                            value: v,
                            step,
                            span_stack: span_stack.to_vec(),
                        });
                    }
                }
            }
        }
    }
    None
}

/// Accumulates [`HealthSample`]s across a run, drifts measured against
/// the first sample.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    thresholds: HealthThresholds,
    tracer: Option<Tracer>,
    /// `(air_mass, energy)` of the first sample.
    baseline: Option<(f64, f64)>,
    samples: Vec<HealthSample>,
}

impl HealthMonitor {
    /// Monitor with the default thresholds (tuned for Earth-like cases;
    /// see [`HealthThresholds::default`]) and no tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a tracer so blowup reports carry the live span stack.
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Compute one sample from `input`, record and return it.
    pub fn sample(&mut self, input: &HealthInput<'_>) -> &HealthSample {
        let t = &self.thresholds;
        let [ni, nj, nk] = input.delp.layout().domain;

        let mut max_wind = 0.0f64;
        let mut max_courant = 0.0f64;
        let mut air_mass = 0.0f64;
        let mut tracer_mass = 0.0f64;
        let mut energy = 0.0f64;
        // k-outer / j / i summation order matches DycoreState::air_mass
        // and validate::invariants::total_energy bit-for-bit; rows only
        // take the layout arithmetic out of the innermost loop.
        for k in 0..nk as i64 {
            for j in 0..nj as i64 {
                let (us, vs, ws) = (input.u.row(j, k), input.v.row(j, k), input.w.row(j, k));
                let (delps, pts, qs) = (input.delp.row(j, k), input.pt.row(j, k), input.q.row(j, k));
                let (areas, rdxs, rdys) = (input.area.row(j, 0), input.rdx.row(j, 0), input.rdy.row(j, 0));
                for i in 0..ni {
                    let (u, v, w) = (us.at(i), vs.at(i), ws.at(i));
                    let delp = delps.at(i);
                    let area = areas.at(i);
                    max_wind = max_wind.max((u * u + v * v + w * w).sqrt());
                    max_courant = max_courant.max(u.abs() * rdxs.at(i) + v.abs() * rdys.at(i));
                    air_mass += delp * area;
                    tracer_mass += qs.at(i) * delp * area;
                    energy += delp / input.grav
                        * area
                        * (input.cp * pts.at(i) + 0.5 * (u * u + v * v + w * w));
                }
            }
        }
        let cfl = input.dt * max_courant;

        // Per column `ptop + delp[0] + delp[1] + ...`, a row of columns
        // at a time.
        let mut ps_min = f64::INFINITY;
        let mut ps_max = f64::NEG_INFINITY;
        let mut ps_row = vec![0.0f64; ni];
        for j in 0..nj as i64 {
            ps_row.fill(input.ptop);
            for k in 0..nk as i64 {
                let delps = input.delp.row(j, k);
                for (i, ps) in ps_row.iter_mut().enumerate() {
                    *ps += delps.at(i);
                }
            }
            for &ps in &ps_row {
                ps_min = ps_min.min(ps);
                ps_max = ps_max.max(ps);
            }
        }

        let (mass0, energy0) = *self.baseline.get_or_insert((air_mass, energy));
        let rel = |now: f64, base: f64| {
            if base.abs() > 0.0 {
                ((now - base) / base).abs()
            } else {
                0.0
            }
        };
        let mass_drift = rel(air_mass, mass0);
        let energy_drift = rel(energy, energy0);

        let span_stack = self
            .tracer
            .as_ref()
            .map(|tr| tr.current_stack())
            .unwrap_or_default();
        let blowup = check_fields(&input.fields, input.step, &span_stack);

        let mut violations = Vec::new();
        // A healthy sample formats nothing.
        let mut check = |bad: bool, msg: &dyn Fn() -> String| {
            if bad {
                violations.push(msg());
            }
        };
        check(
            !max_wind.is_finite() || max_wind > t.max_wind,
            &|| format!("max wind {max_wind:.3} m/s exceeds {}", t.max_wind),
        );
        check(
            !cfl.is_finite() || cfl > t.max_cfl,
            &|| format!("CFL {cfl:.4} exceeds {}", t.max_cfl),
        );
        check(
            !ps_min.is_finite() || ps_min < t.ps_min,
            &|| format!("surface pressure min {ps_min:.1} Pa below {}", t.ps_min),
        );
        check(
            !ps_max.is_finite() || ps_max > t.ps_max,
            &|| format!("surface pressure max {ps_max:.1} Pa above {}", t.ps_max),
        );
        check(
            !mass_drift.is_finite() || mass_drift > t.max_mass_drift,
            &|| format!("air-mass drift {mass_drift:.2e} exceeds {}", t.max_mass_drift),
        );
        check(
            !energy_drift.is_finite() || energy_drift > t.max_energy_drift,
            &|| format!(
                "total-energy drift {energy_drift:.2e} exceeds {}",
                t.max_energy_drift
            ),
        );
        if let Some(b) = &blowup {
            violations.push(format!("blowup: {b}"));
        }

        self.samples.push(HealthSample {
            step: input.step,
            max_wind,
            cfl,
            ps_min,
            ps_max,
            air_mass,
            tracer_mass,
            energy,
            mass_drift,
            energy_drift,
            blowup,
            violations,
        });
        self.samples.last().expect("just pushed")
    }

    /// Every sample recorded so far.
    pub fn samples(&self) -> &[HealthSample] {
        &self.samples
    }

    /// Total violation count across all samples.
    pub fn total_violations(&self) -> usize {
        self.samples.iter().map(|s| s.violations.len()).sum()
    }

    /// True when every sample is healthy.
    pub fn all_healthy(&self) -> bool {
        self.samples.iter().all(|s| s.is_healthy())
    }

    /// One line per sample, for `RUN_health.jsonl`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{init_baroclinic, BaroclinicConfig};
    use comm::CubeGeometry;
    use dataflow::storage::{Layout, StorageOrder};

    const N: usize = 4;
    const NK: usize = 3;

    fn arr(v: f64) -> Array3 {
        let layout = Layout::new([N, N, NK], [1, 1, 0], StorageOrder::IContiguous, 1);
        Array3::filled(layout, v)
    }

    struct Case {
        delp: Array3,
        pt: Array3,
        u: Array3,
        v: Array3,
        w: Array3,
        q: Array3,
        area: Array3,
        rdx: Array3,
        rdy: Array3,
    }

    fn healthy_case() -> Case {
        Case {
            // 101325 = 300 (ptop) + 3 levels of delp.
            delp: arr((101_325.0 - 300.0) / NK as f64),
            pt: arr(288.0),
            u: arr(10.0),
            v: arr(-5.0),
            w: arr(0.1),
            q: arr(1e-3),
            area: arr(1.0e8),
            rdx: arr(1.0e-4),
            rdy: arr(1.0e-4),
        }
    }

    fn input(c: &Case, step: u64) -> HealthInput<'_> {
        HealthInput {
            step,
            dt: 5.0,
            ptop: 300.0,
            cp: 287.05 * 3.5,
            grav: 9.80665,
            fields: vec![("delp", &c.delp), ("pt", &c.pt), ("u", &c.u), ("v", &c.v)],
            delp: &c.delp,
            pt: &c.pt,
            u: &c.u,
            v: &c.v,
            w: &c.w,
            q: &c.q,
            area: &c.area,
            rdx: &c.rdx,
            rdy: &c.rdy,
        }
    }

    #[test]
    fn healthy_case_passes_all_checks() {
        let c = healthy_case();
        let mut mon = HealthMonitor::new();
        let s = mon.sample(&input(&c, 0)).clone();
        assert!(s.is_healthy(), "violations: {:?}", s.violations);
        let wind: f64 = (10.0f64 * 10.0 + 5.0 * 5.0 + 0.1 * 0.1).sqrt();
        assert!((s.max_wind - wind).abs() < 1e-12);
        // cfl = dt * (|u| + |v|) * 1e-4 = 5 * 15 * 1e-4.
        assert!((s.cfl - 7.5e-3).abs() < 1e-12);
        assert!((s.ps_min - 101_325.0).abs() < 1e-6);
        assert!((s.ps_max - 101_325.0).abs() < 1e-6);
        assert_eq!(s.mass_drift, 0.0);
        assert!(mon.all_healthy());
        assert_eq!(mon.total_violations(), 0);
    }

    #[test]
    fn wind_and_cfl_violations_are_reported() {
        let mut c = healthy_case();
        // cfl = 5 * (2500 + 5) * 1e-4 = 1.25 > 1; wind 2500 > 350.
        c.u = arr(2500.0);
        let mut mon = HealthMonitor::new();
        let s = mon.sample(&input(&c, 0));
        assert!(!s.is_healthy());
        assert!(s.violations.iter().any(|v| v.contains("max wind")));
        assert!(s.violations.iter().any(|v| v.contains("CFL")));
    }

    #[test]
    fn pressure_bounds_are_enforced() {
        let mut c = healthy_case();
        c.delp = arr(1.0e5); // ps = 300 + 3e5 >> 120 kPa
        let mut mon = HealthMonitor::new();
        let s = mon.sample(&input(&c, 0));
        assert!(s
            .violations
            .iter()
            .any(|v| v.contains("surface pressure max")));
    }

    #[test]
    fn drift_is_measured_against_first_sample() {
        let c = healthy_case();
        let mut mon = HealthMonitor::new();
        mon.sample(&input(&c, 0));
        let mut c2 = healthy_case();
        c2.delp = arr((101_325.0 - 300.0) / NK as f64 * 1.1); // +10% mass
        let s = mon.sample(&input(&c2, 1)).clone();
        assert!((s.mass_drift - 0.1).abs() < 1e-9);
        assert!(s.violations.iter().any(|v| v.contains("air-mass drift")));
        assert!(!mon.all_healthy());
    }

    #[test]
    fn blowup_reports_field_and_coordinates() {
        let mut c = healthy_case();
        c.pt.set(2, 1, 0, f64::NAN);
        let tracer = Tracer::new();
        let _outer = tracer.span("step", "timestep0");
        let _inner = tracer.span("module", "d_sw");
        let mut mon = HealthMonitor::new().with_tracer(&tracer);
        let s = mon.sample(&input(&c, 7)).clone();
        let b = s.blowup.expect("blowup detected");
        assert_eq!(b.field, "pt");
        assert_eq!((b.i, b.j, b.k), (2, 1, 0));
        assert_eq!(b.step, 7);
        assert!(b.value.is_nan());
        assert_eq!(b.span_stack, vec!["timestep0".to_string(), "d_sw".to_string()]);
        let text = format!("{b}");
        assert!(text.contains("'pt'") && text.contains("(2, 1, 0)"));
        assert!(text.contains("timestep0 > d_sw"));
        assert!(s.violations.iter().any(|v| v.contains("blowup")));
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_blowup() {
        let mut c = healthy_case();
        let mut mon = HealthMonitor::new();
        mon.sample(&input(&c, 0));
        c.u.set(0, 0, 1, f64::INFINITY);
        mon.sample(&input(&c, 1));
        let jsonl = mon.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("healthy").unwrap().as_bool(), Some(true));
        assert!(first.get("blowup").is_none());
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(second.get("healthy").unwrap().as_bool(), Some(false));
        // u is not in the scanned `fields` list for this fixture, but the
        // wind diagnostic still trips the max-wind threshold.
        assert!(!second.get("violations").unwrap().as_array().unwrap().is_empty());

        // Now poison a scanned field and check the blowup JSON shape.
        c.delp.set(1, 2, 0, f64::NAN);
        mon.sample(&input(&c, 2));
        let last = json::parse(mon.to_jsonl().lines().last().unwrap()).unwrap();
        let b = last.get("blowup").expect("blowup object");
        assert_eq!(b.get("field").unwrap().as_str(), Some("delp"));
        assert_eq!(b.get("i").unwrap().as_u64(), Some(1));
        assert_eq!(b.get("j").unwrap().as_u64(), Some(2));
    }

    fn setup(n: usize, nk: usize) -> (DycoreState, Grid) {
        let geom = CubeGeometry::new(n);
        let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, crate::state::HALO, nk);
        let mut s = DycoreState::zeros(n, nk);
        init_baroclinic(&mut s, &grid, &BaroclinicConfig::default());
        (s, grid)
    }

    #[test]
    fn baroclinic_initial_state_is_healthy() {
        let (state, grid) = setup(8, 6);
        let mut mon = HealthMonitor::new();
        let s = mon.sample(&health_input(&state, &grid, 0, 5.0));
        assert!(s.is_healthy(), "violations: {:?}", s.violations);
        assert!(s.max_wind > 0.0 && s.max_wind < 150.0);
        assert!(s.ps_min > 30_000.0 && s.ps_max < 120_000.0);
        assert!(s.air_mass > 0.0 && s.energy > 0.0);
    }

    #[test]
    fn health_sums_match_state_diagnostics() {
        let (state, grid) = setup(8, 4);
        let mut mon = HealthMonitor::new();
        let s = mon.sample(&health_input(&state, &grid, 0, 5.0));
        assert_eq!(s.air_mass, state.air_mass(&grid.area));
        assert_eq!(s.tracer_mass, state.tracer_mass(&grid.area));
    }
}
