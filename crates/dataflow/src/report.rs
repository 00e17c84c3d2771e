//! Human-readable dumps of SDFGs and model reports: Graphviz `dot` for
//! the graph structure (the paper's interactive VS Code workflow analog)
//! and fixed-width tables for model output.

use crate::graph::{ControlNode, DataflowNode, Sdfg};
use crate::model::ModelReport;
use std::fmt::Write;

/// Render the SDFG as a Graphviz digraph: one cluster per state, nodes in
/// program order, transient containers dashed.
pub fn to_dot(sdfg: &Sdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sdfg.name);
    let _ = writeln!(out, "  rankdir=TB; node [fontsize=10];");
    for (si, state) in sdfg.states.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{si} {{");
        let _ = writeln!(out, "    label=\"{}\";", state.name);
        let mut prev: Option<String> = None;
        for (ni, node) in state.nodes.iter().enumerate() {
            let id = format!("s{si}n{ni}");
            let (label, shape) = match node {
                DataflowNode::Kernel(k) => (
                    format!("{} [{} stmts]", k.name, k.stmts.len()),
                    "box",
                ),
                DataflowNode::Library(l) => (format!("Library {}", l.label()), "component"),
                DataflowNode::Copy { src, dst } => {
                    (format!("copy {} -> {}", sdfg.containers[src.0].name, sdfg.containers[dst.0].name), "oval")
                }
                DataflowNode::HaloExchange { fields } => {
                    (format!("halo x{}", fields.len()), "hexagon")
                }
                DataflowNode::Callback { name, .. } => (format!("callback {name}"), "doubleoctagon"),
            };
            let _ = writeln!(out, "    {id} [label=\"{label}\", shape={shape}];");
            if let Some(p) = prev {
                let _ = writeln!(out, "    {p} -> {id};");
            }
            prev = Some(id);
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render the control tree as indented text.
pub fn control_tree(sdfg: &Sdfg) -> String {
    fn walk(nodes: &[ControlNode], sdfg: &Sdfg, depth: usize, out: &mut String) {
        for n in nodes {
            match n {
                ControlNode::State(s) => {
                    let _ = writeln!(out, "{}state {} ({})", "  ".repeat(depth), s, sdfg.states[*s].name);
                }
                ControlNode::Loop { trips, body } => {
                    let _ = writeln!(out, "{}loop x{trips}", "  ".repeat(depth));
                    walk(body, sdfg, depth + 1, out);
                }
            }
        }
    }
    let mut out = String::new();
    walk(&sdfg.control, sdfg, 0, &mut out);
    out
}

/// Render a model report as the Fig. 10-style table: kernel, invocations,
/// measured (modeled) time, bandwidth-bound peak time, % of peak.
pub fn model_table(report: &ModelReport, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>6} {:>12} {:>12} {:>7}",
        "kernel", "inv", "time[us]", "peak[us]", "%peak"
    );
    for k in report.ranked().into_iter().take(top) {
        let _ = writeln!(
            out,
            "{:<40} {:>6} {:>12.2} {:>12.2} {:>6.1}%",
            truncate(&k.name, 40),
            k.invocations,
            k.time_per_invocation * 1e6,
            k.memory_bound_time * 1e6,
            k.peak_fraction() * 100.0
        );
    }
    let _ = writeln!(
        out,
        "total kernel time: {:.3} ms over {} launches; comm {:.3} ms",
        report.total_time * 1e3,
        report.launches,
        report.comm_time * 1e3
    );
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::State;
    use crate::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    fn sample() -> Sdfg {
        let mut g = Sdfg::new("sample");
        let l = Layout::new([4, 4, 2], [0, 0, 0], StorageOrder::IContiguous, 1);
        let a = g.add_container("a", l.clone(), false);
        let t = g.add_container("tmp", l, true);
        let mut k = Kernel::new(
            "k0",
            Domain::from_shape([4, 4, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(t), Expr::load(a, 0, 0, 0)));
        let mut s = State::new("main");
        s.nodes.push(DataflowNode::Kernel(k));
        s.nodes.push(DataflowNode::HaloExchange { fields: vec![a] });
        g.add_state(s);
        g.control = vec![crate::graph::ControlNode::Loop {
            trips: 2,
            body: vec![crate::graph::ControlNode::State(0)],
        }];
        g
    }

    #[test]
    fn dot_contains_nodes_and_clusters() {
        let d = to_dot(&sample());
        assert!(d.contains("digraph"));
        assert!(d.contains("cluster_0"));
        assert!(d.contains("k0"));
        assert!(d.contains("halo x1"));
    }

    #[test]
    fn control_tree_renders_loops() {
        let t = control_tree(&sample());
        assert!(t.contains("loop x2"));
        assert!(t.contains("state 0 (main)"));
    }

    #[test]
    fn model_table_renders() {
        use machine::{GpuModel, GpuSpec};
        let g = sample();
        let r = crate::model::model_sdfg(
            &g,
            &crate::model::CostModel::Gpu(GpuModel::new(GpuSpec::p100())),
            &|_| 1e-6,
        );
        let t = model_table(&r, 10);
        assert!(t.contains("k0"));
        assert!(t.contains("%peak"));
        assert!(t.contains("total kernel time"));
    }

    #[test]
    fn truncate_handles_long_names() {
        assert_eq!(truncate("short", 10), "short");
        let long = "x".repeat(60);
        assert!(truncate(&long, 40).len() <= 42); // utf8 ellipsis
    }
}
