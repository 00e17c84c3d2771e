//! Per-dycore-module rollups of profiled executions.
//!
//! The paper's measurement loop groups kernel timings by the dycore
//! module they came from ("sort by summarized runtimes grouped by kernel
//! type", Section VI-C) — that is the granularity at which tuning
//! decisions are made (Fig. 7's "model-driven fine tuning"). This module
//! maps the kernel-level [`ProfileReport`] and [`TraceEvent`]s of
//! [`Executor::run_profiled`](dataflow::exec::Executor::run_profiled)
//! back onto dycore modules (`c_sw`, `riem_solver_c`, `d_sw`, the tracer
//! transport, …).

use crate::dyn_core::{remap_callback, DycoreIds, REMAP_CALLBACK};
use dataflow::exec::{DataStore, ExecHooks};
use dataflow::profile::ProfileReport;
use obs::TraceEvent;

/// The dycore module a kernel name belongs to.
///
/// Expanded kernels are named `"{stencil}#{op}"`; the stencil name maps
/// onto the Fig. 2 module structure (the tracer state runs both the
/// `fv_tp_2d` flux stencil and the `transport_update` stencil).
pub fn module_of(kernel_name: &str) -> &str {
    let stem = kernel_name.split('#').next().unwrap_or(kernel_name);
    match stem {
        "fv_tp_2d" | "transport_update" => "tracer",
        s if s.starts_with("delnflux") => "delnflux",
        s => s,
    }
}

/// Aggregated execution statistics for one dycore module.
#[derive(Debug, Clone, Default)]
pub struct ModuleRollup {
    pub module: String,
    /// Distinct kernel names contributing (0 for non-kernel rows).
    pub kernels: usize,
    pub invocations: u64,
    pub points: u64,
    pub wall_seconds: f64,
    pub modeled_bytes: u64,
    pub modeled_flops: u64,
}

impl ModuleRollup {
    /// Achieved bandwidth in bytes/s (0 when untimed or byte-free).
    pub fn achieved_bandwidth(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.modeled_bytes as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Group a kernel-level profile into per-module rollups, sorted by wall
/// time descending. Halo exchanges, copies and host callbacks appear as
/// their own rows (`"halo"`, `"pt_update"` — the copy node — and
/// `"remap"`), so the rollup accounts for the entire step.
pub fn rollup_modules(report: &ProfileReport) -> Vec<ModuleRollup> {
    fn entry<'a>(out: &'a mut Vec<ModuleRollup>, module: &str) -> &'a mut ModuleRollup {
        if let Some(i) = out.iter().position(|r| r.module == module) {
            &mut out[i]
        } else {
            out.push(ModuleRollup {
                module: module.to_string(),
                ..Default::default()
            });
            out.last_mut().unwrap()
        }
    }
    let mut out: Vec<ModuleRollup> = Vec::new();
    for k in &report.kernels {
        let r = entry(&mut out, module_of(&k.name));
        r.kernels += 1;
        r.invocations += k.invocations;
        r.points += k.points;
        r.wall_seconds += k.wall_seconds;
        r.modeled_bytes += k.modeled_bytes;
        r.modeled_flops += k.modeled_flops;
    }
    for (module, secs, stat) in [
        ("halo", report.halo_seconds, &report.halo),
        ("pt_update", report.copy_seconds, &report.copy),
        ("remap", report.callback_seconds, &report.callback),
    ] {
        if secs > 0.0 || stat.invocations > 0 {
            let r = entry(&mut out, module);
            r.wall_seconds += secs;
            r.invocations += stat.invocations;
            r.points += stat.points;
            r.modeled_bytes += stat.modeled_bytes;
            r.modeled_flops += stat.modeled_flops;
        }
    }
    out.sort_by(|a, b| b.wall_seconds.partial_cmp(&a.wall_seconds).unwrap());
    out
}

/// Synthesize `cat: "module"` spans over a chronological kernel-level
/// event stream: consecutive events belonging to the same dycore module
/// merge into one enclosing span (name = module, `ts`/`dur` covering the
/// run, points/bytes summed).
///
/// The orchestrated executor lives below `fv3` and cannot emit module
/// spans itself; appending these synthesized spans to the tracer that
/// recorded `events` ([`obs::Tracer::absorb_events`]) yields the unified
/// run → module → kernel nesting in one chrome trace.
pub fn module_spans(events: &[TraceEvent]) -> Vec<TraceEvent> {
    fn module_for(e: &TraceEvent) -> &str {
        match e.cat.as_str() {
            "kernel" => module_of(&e.name),
            "copy" => "pt_update",
            "halo" => "halo",
            "callback" => "remap",
            other => other,
        }
    }
    let mut out: Vec<TraceEvent> = Vec::new();
    for e in events {
        let module = module_for(e);
        match out.last_mut() {
            Some(span) if span.name == module => {
                span.dur_us = (e.ts_us + e.dur_us - span.ts_us).max(span.dur_us);
                span.points += e.points;
                span.bytes += e.bytes;
                span.flops += e.flops;
            }
            _ => out.push(TraceEvent {
                name: module.to_string(),
                cat: "module".to_string(),
                tid: e.tid,
                ts_us: e.ts_us,
                dur_us: e.dur_us,
                points: e.points,
                bytes: e.bytes,
                flops: e.flops,
            }),
        }
    }
    out
}

/// Execution hooks wiring the vertical-remap callback into a profiled (or
/// plain) run of the orchestrated dycore program.
pub struct RemapHooks<'a> {
    pub ids: &'a DycoreIds,
}

impl ExecHooks for RemapHooks<'_> {
    fn callback(&mut self, name: &str, store: &mut DataStore) {
        assert_eq!(name, REMAP_CALLBACK);
        remap_callback(store, self.ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyn_core::{build_dycore_program, load_state, DycoreConfig};
    use crate::grid::Grid;
    use crate::init::{init_baroclinic, BaroclinicConfig};
    use crate::state::DycoreState;
    use comm::CubeGeometry;
    use dataflow::exec::Executor;
    use dataflow::graph::ExpansionAttrs;

    #[test]
    fn module_of_maps_stencil_names() {
        assert_eq!(module_of("c_sw#3"), "c_sw");
        assert_eq!(module_of("riem_solver_c#0"), "riem_solver_c");
        assert_eq!(module_of("d_sw#12"), "d_sw");
        assert_eq!(module_of("fv_tp_2d#1"), "tracer");
        assert_eq!(module_of("transport_update#0"), "tracer");
        assert_eq!(module_of("delnflux_del4#2"), "delnflux");
        assert_eq!(module_of("unknown_thing"), "unknown_thing");
    }

    fn setup(n: usize, nk: usize) -> (DycoreState, Grid) {
        let geom = CubeGeometry::new(n);
        let grid = Grid::compute(&geom.faces[1], n, 0, 0, n, crate::state::HALO, nk);
        let mut s = DycoreState::zeros(n, nk);
        init_baroclinic(&mut s, &grid, &BaroclinicConfig::default());
        (s, grid)
    }

    fn c8l6_config() -> DycoreConfig {
        DycoreConfig {
            n_split: 2,
            k_split: 1,
            dt: 5.0,
            dddmp: 0.02,
            nord4_damp: None,
        }
    }

    #[test]
    fn rollup_covers_every_dycore_module() {
        let (n, nk) = (8, 6);
        let (state0, grid) = setup(n, nk);
        let prog = build_dycore_program(n, nk, c8l6_config());
        let mut g = prog.sdfg.clone();
        g.expand_libraries(&ExpansionAttrs::tuned());
        let mut store = DataStore::for_sdfg(&g);
        load_state(&mut store, &prog.ids, &state0, &grid);
        let mut hooks = RemapHooks { ids: &prog.ids };
        let tracer = obs::Tracer::new();
        Executor::serial().run_profiled(&g, &mut store, &prog.params, &mut hooks, &tracer);

        let report = ProfileReport::from_events(&tracer.finished());
        let rollup = rollup_modules(&report);
        for want in [
            "c_sw",
            "riem_solver_c",
            "d_sw",
            "tracer",
            "remap",
            "halo",
            "pt_update",
        ] {
            let r = rollup
                .iter()
                .find(|r| r.module == want)
                .unwrap_or_else(|| panic!("module '{want}' missing from rollup"));
            assert!(r.wall_seconds.is_finite() && r.wall_seconds >= 0.0);
            // Every module row — kernel-backed or not — must carry real
            // attribution now that copies/halos/callbacks are modeled.
            assert!(r.invocations > 0, "module '{want}' has zero invocations");
            assert!(r.points > 0, "module '{want}' has zero points");
            assert!(r.modeled_bytes > 0, "module '{want}' has zero bytes");
            if !matches!(want, "remap" | "halo" | "pt_update") {
                assert!(r.modeled_flops > 0, "module '{want}' has zero flops");
            }
        }
        // The rollup accounts for the whole report: all kernel launches plus
        // every attributed non-kernel invocation.
        let total: f64 = rollup.iter().map(|r| r.wall_seconds).sum();
        assert!((total - report.total_seconds()).abs() < 1e-9);
        let invocations: u64 = rollup.iter().map(|r| r.invocations).sum();
        let non_kernel = report.copy.invocations + report.halo.invocations + report.callback.invocations;
        assert_eq!(invocations, report.launches + non_kernel);
    }

    #[test]
    fn module_spans_group_consecutive_kernel_events() {
        let ev = |name: &str, cat: &str, ts: f64, dur: f64| TraceEvent {
            name: name.into(),
            cat: cat.into(),
            tid: 0,
            ts_us: ts,
            dur_us: dur,
            points: 10,
            bytes: 80,
            flops: 5,
        };
        let events = vec![
            ev("c_sw#0", "kernel", 0.0, 1.0),
            ev("c_sw#1", "kernel", 1.5, 2.0),
            ev("riem_solver_c#0", "kernel", 4.0, 1.0),
            ev("copy", "copy", 6.0, 0.5),
            ev("vertical_remap", "callback", 7.0, 2.0),
        ];
        let spans = module_spans(&events);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["c_sw", "riem_solver_c", "pt_update", "remap"]);
        assert!(spans.iter().all(|s| s.cat == "module"));
        // The two c_sw kernels merged: covers [0.0, 3.5], sums stats.
        assert_eq!(spans[0].ts_us, 0.0);
        assert_eq!(spans[0].dur_us, 3.5);
        assert_eq!(spans[0].points, 20);
        assert_eq!(spans[0].bytes, 160);
        // Module spans contain their kernels in time.
        for e in &events {
            assert!(spans.iter().any(|s| s.ts_us <= e.ts_us
                && e.ts_us + e.dur_us <= s.ts_us + s.dur_us));
        }
    }
}
