//! Program assembly: building a whole-model SDFG out of stencil calls —
//! the orchestration entry point (Section V-B).
//!
//! [`ProgramBuilder`] is what the data-centric Python parser plus closure
//! resolution amounts to after preprocessing: fields and parameters are
//! registered once (the "call-tree analysis detects and consolidates
//! multiple instances of the same array object"), stencil calls append
//! library nodes, halo exchanges and host callbacks are explicit nodes,
//! and counted loops come from the constant-propagated control flow.

use crate::extents::check_halos;
use crate::ir::{Intent, StencilDef};
use crate::lower::StencilInvocation;
use dataflow::graph::{ControlNode, DataflowNode, Sdfg, State};
use dataflow::kernel::Domain;
use dataflow::storage::{Layout, StorageOrder};
use dataflow::{DataId, ParamId};
use std::collections::HashMap;
use std::sync::Arc;

/// Incrementally builds an [`Sdfg`] from stencil calls.
pub struct ProgramBuilder {
    sdfg: Sdfg,
    domain: [usize; 3],
    halo: [usize; 3],
    fields: HashMap<String, DataId>,
    params: HashMap<String, ParamId>,
    /// Stack of control sequences: the last is the innermost open scope.
    control_stack: Vec<Vec<ControlNode>>,
    current_state: Option<State>,
    temp_counter: usize,
}

impl ProgramBuilder {
    /// Start a program on `domain` compute points with `halo` cells of
    /// padding on every field (FV3 uses 3).
    pub fn new(name: impl Into<String>, domain: [usize; 3], halo: [usize; 3]) -> Self {
        ProgramBuilder {
            sdfg: Sdfg::new(name),
            domain,
            halo,
            fields: HashMap::new(),
            params: HashMap::new(),
            control_stack: vec![Vec::new()],
            current_state: None,
            temp_counter: 0,
        }
    }

    /// Every field is i-contiguous with 32-byte-aligned rows.
    fn layout(&self) -> Layout {
        Layout::new(self.domain, self.halo, StorageOrder::IContiguous, 32)
    }

    /// Register (or look up) a persistent model field.
    pub fn field(&mut self, name: &str) -> DataId {
        if let Some(d) = self.fields.get(name) {
            return *d;
        }
        let d = self.sdfg.add_container(name, self.layout(), false);
        self.fields.insert(name.to_string(), d);
        d
    }

    /// Register (or look up) a model field no stencil of the program
    /// writes (a grid metric): a `constant` container, lent to the store
    /// by reference instead of copied into it.
    pub fn constant(&mut self, name: &str) -> DataId {
        let d = self.field(name);
        self.sdfg.containers[d.0].constant = true;
        d
    }

    /// Register (or look up) a scalar parameter.
    pub fn param(&mut self, name: &str) -> ParamId {
        if let Some(p) = self.params.get(name) {
            return *p;
        }
        let p = self.sdfg.add_param(name);
        self.params.insert(name.to_string(), p);
        p
    }

    fn state_mut(&mut self) -> &mut State {
        if self.current_state.is_none() {
            let n = self.sdfg.states.len();
            self.current_state = Some(State::new(format!("state{n}")));
        }
        self.current_state.as_mut().unwrap()
    }

    /// Close the current state and start a new named one. Consecutive
    /// calls without intervening nodes are harmless.
    pub fn begin_state(&mut self, name: &str) {
        self.flush_state();
        self.current_state = Some(State::new(name));
    }

    fn flush_state(&mut self) {
        if let Some(s) = self.current_state.take() {
            if !s.nodes.is_empty() {
                self.sdfg.states.push(s);
                let idx = self.sdfg.states.len() - 1;
                self.control_stack
                    .last_mut()
                    .unwrap()
                    .push(ControlNode::State(idx));
            }
        }
    }

    /// Call a stencil: `args` bind stencil field names (Temp fields are
    /// auto-allocated and must NOT be bound), `params` bind stencil
    /// parameter names to program parameter names.
    pub fn call(
        &mut self,
        def: &Arc<StencilDef>,
        args: &[(&str, DataId)],
        params: &[(&str, &str)],
    ) -> Result<(), String> {
        self.call_on(def, args, params, Domain::from_shape(self.domain))
    }

    /// Like [`Self::call`] but over an explicit sub-domain.
    pub fn call_on(
        &mut self,
        def: &Arc<StencilDef>,
        args: &[(&str, DataId)],
        params: &[(&str, &str)],
        domain: Domain,
    ) -> Result<(), String> {
        let mut field_binding = Vec::with_capacity(def.fields.len());
        for f in &def.fields {
            if f.intent == Intent::Temp {
                // Auto-allocate a transient container with full halo (the
                // extent analysis guarantees this is enough: extents never
                // exceed declared halos after check_halos).
                let name = format!("__{}_{}_{}", def.name, f.name, self.temp_counter);
                self.temp_counter += 1;
                let d = self.sdfg.add_container(name, self.layout(), true);
                field_binding.push(d);
            } else {
                let bound = args
                    .iter()
                    .find(|(n, _)| *n == f.name)
                    .ok_or_else(|| format!("stencil '{}': field '{}' not bound", def.name, f.name))?;
                field_binding.push(bound.1);
            }
        }
        let mut param_binding = Vec::with_capacity(def.params.len());
        for p in &def.params {
            let bound = params
                .iter()
                .find(|(n, _)| *n == p.as_str())
                .ok_or_else(|| format!("stencil '{}': param '{}' not bound", def.name, p))?;
            param_binding.push(self.param(bound.1));
        }
        let inv = StencilInvocation::new(def.clone(), field_binding, param_binding, domain)?;
        // Halo sufficiency check against the bound layouts.
        let sdfg = &self.sdfg;
        check_halos(def, &inv.analysis, &|fi| {
            sdfg.containers[inv.field_binding[fi].0].layout.halo
        })?;
        self.state_mut().nodes.push(DataflowNode::Library(Arc::new(inv)));
        Ok(())
    }

    /// Insert a whole-container copy node.
    pub fn copy(&mut self, src: DataId, dst: DataId) {
        self.state_mut().nodes.push(DataflowNode::Copy { src, dst });
    }

    /// Insert a halo-exchange node on `fields`.
    pub fn halo_exchange(&mut self, fields: &[DataId]) {
        self.state_mut().nodes.push(DataflowNode::HaloExchange {
            fields: fields.to_vec(),
        });
    }

    /// Insert a host callback node.
    pub fn callback(&mut self, name: &str, reads: &[DataId], writes: &[DataId]) {
        self.state_mut().nodes.push(DataflowNode::Callback {
            name: name.to_string(),
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        });
    }

    /// Open a counted loop (e.g. the acoustic substeps); everything added
    /// inside `f` repeats `trips` times.
    pub fn repeat(&mut self, trips: u32, f: impl FnOnce(&mut Self)) {
        self.flush_state();
        self.control_stack.push(Vec::new());
        f(self);
        self.flush_state();
        let body = self.control_stack.pop().unwrap();
        self.control_stack
            .last_mut()
            .unwrap()
            .push(ControlNode::Loop { trips, body });
    }

    /// Finish and return the program.
    pub fn build(mut self) -> Sdfg {
        self.flush_state();
        let control = self.control_stack.pop().unwrap();
        assert!(self.control_stack.is_empty(), "unclosed loop scope");
        self.sdfg.control = control;
        self.sdfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StencilBuilder;
    use dataflow::exec::{DataStore, Executor, NoHooks};
    use dataflow::graph::ExpansionAttrs;
    use dataflow::kernel::{AxisInterval, KOrder};
    use dataflow::{Array3, Expr};

    fn scale_def() -> Arc<StencilDef> {
        Arc::new(
            StencilBuilder::new("scale", |b| {
                let inp = b.input("inp");
                let out = b.output("out");
                let w = b.param("w");
                b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                    c.assign(&out, inp.c() * w.ex());
                });
            })
            .unwrap(),
        )
    }

    #[test]
    fn program_builds_and_runs() {
        let def = scale_def();
        let mut b = ProgramBuilder::new("prog", [6, 6, 3], [1, 1, 0]);
        let x = b.field("x");
        let y = b.field("y");
        b.param("alpha");
        b.begin_state("scale-state");
        b.call(&def, &[("inp", x), ("out", y)], &[("w", "alpha")])
            .unwrap();
        let mut g = b.build();
        g.expand_libraries(&ExpansionAttrs::tuned());

        let mut store = DataStore::for_sdfg(&g);
        *store.get_mut(x) = Array3::from_fn(g.layout_of(x), |i, j, k| (i + j + k) as f64);
        Executor::serial().run(&g, &mut store, &[2.0], &mut NoHooks);
        assert_eq!(store.get(y).get(3, 2, 1), 12.0);
    }

    #[test]
    fn field_registration_is_idempotent() {
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [1, 1, 0]);
        let a1 = b.field("a");
        let a2 = b.field("a");
        assert_eq!(a1, a2);
        let p1 = b.param("dt");
        let p2 = b.param("dt");
        assert_eq!(p1, p2);
    }

    #[test]
    fn temps_are_auto_allocated_as_transients() {
        let def = Arc::new(
            StencilBuilder::new("witht", |b| {
                let inp = b.input("inp");
                let t = b.temp("t");
                let out = b.output("out");
                b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                    c.assign(&t, inp.c() + Expr::c(1.0));
                    c.assign(&out, t.c());
                });
            })
            .unwrap(),
        );
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [1, 1, 0]);
        let x = b.field("x");
        let y = b.field("y");
        b.call(&def, &[("inp", x), ("out", y)], &[]).unwrap();
        let g = b.build();
        assert_eq!(g.containers.len(), 3);
        assert!(g.containers[2].transient);
        assert!(g.containers[2].name.contains("witht"));
    }

    #[test]
    fn missing_binding_is_an_error() {
        let def = scale_def();
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [0, 0, 0]);
        let x = b.field("x");
        let err = b.call(&def, &[("inp", x)], &[("w", "alpha")]);
        assert!(err.unwrap_err().contains("not bound"));
    }

    #[test]
    fn insufficient_halo_is_an_error() {
        let def = Arc::new(
            StencilBuilder::new("wide", |b| {
                let inp = b.input("inp");
                let out = b.output("out");
                b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                    c.assign(&out, inp.at(-2, 0, 0));
                });
            })
            .unwrap(),
        );
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [1, 1, 0]);
        let x = b.field("x");
        let y = b.field("y");
        let err = b.call(&def, &[("inp", x), ("out", y)], &[]);
        assert!(err.unwrap_err().contains("needs halo"));
    }

    #[test]
    fn repeat_builds_loop_control() {
        let def = scale_def();
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [1, 1, 0]);
        let x = b.field("x");
        let y = b.field("y");
        b.repeat(3, |b| {
            b.call(&def, &[("inp", x), ("out", y)], &[("w", "alpha")])
                .unwrap();
        });
        let g = b.build();
        assert_eq!(g.state_schedule(), vec![(0, 3)]);
    }

    #[test]
    fn states_split_on_begin_state() {
        let def = scale_def();
        let mut b = ProgramBuilder::new("p", [4, 4, 2], [1, 1, 0]);
        let x = b.field("x");
        let y = b.field("y");
        b.begin_state("first");
        b.call(&def, &[("inp", x), ("out", y)], &[("w", "a")]).unwrap();
        b.begin_state("second");
        b.call(&def, &[("inp", y), ("out", x)], &[("w", "a")]).unwrap();
        let g = b.build();
        assert_eq!(g.states.len(), 2);
        assert_eq!(g.states[0].name, "first");
        assert_eq!(g.states[1].name, "second");
    }
}
