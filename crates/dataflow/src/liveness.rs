//! Live intervals of a graph's containers, and the packing of transients
//! whose intervals do not overlap into one array — what
//! [`DataStore::for_sdfg`](crate::DataStore::for_sdfg) allocates.
//!
//! The control tree is flattened in execution order and every dataflow
//! node numbered once. A container is live from the first node that reads
//! or writes it to the last. One touched inside a loop of more than one
//! trip is live for the whole loop body: the next trip runs the body's
//! first node again after its last.
//!
//! A transient may share an array with others of its [`Layout`] when no
//! two of their intervals overlap and it never reads a cell the run has
//! not written first ([`reuse::reads_unwritten`]): such a container needs
//! nothing from its array before its interval starts, so whatever an
//! earlier tenant left there is never seen. A container that is not
//! transient, is constant, or reads what it did not write keeps an array
//! of its own (a constant's is lent). Tenants are placed greedily in order of first use, then of
//! [`DataId`], each in the lowest-numbered free array of its layout; on
//! interval graphs this needs exactly as many arrays as the most
//! containers of one layout live at once. A transient no node touches
//! joins the first array of its layout.
//!
//! [`Layout`]: crate::storage::Layout

use crate::expr::DataId;
use crate::graph::{ControlNode, Sdfg};
use crate::reuse;

/// Node numbers `first..=last` of the flattened control tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub first: u32,
    pub last: u32,
}

impl Interval {
    /// Whether some node lies in both intervals.
    fn overlaps(&self, other: &Interval) -> bool {
        self.first <= other.last && other.first <= self.last
    }
}

/// Widen `live` to cover `first..=last`.
fn cover(live: &mut Option<Interval>, first: u32, last: u32) {
    *live = Some(match *live {
        Some(iv) => Interval {
            first: iv.first.min(first),
            last: iv.last.max(last),
        },
        None => Interval { first, last },
    });
}

/// Each container's live interval in `sdfg` (`None`: no node touches it).
pub fn live_intervals(sdfg: &Sdfg) -> Vec<Option<Interval>> {
    fn walk(nodes: &[ControlNode], sdfg: &Sdfg, at: &mut u32, live: &mut [Option<Interval>]) {
        for n in nodes {
            match n {
                ControlNode::State(s) => {
                    for node in &sdfg.states[*s].nodes {
                        for d in node.reads().into_iter().chain(node.writes()) {
                            cover(&mut live[d.0], *at, *at);
                        }
                        *at += 1;
                    }
                }
                ControlNode::Loop { trips, body } if *trips > 1 => {
                    let first = *at;
                    let mut inner = vec![None; live.len()];
                    walk(body, sdfg, at, &mut inner);
                    for (d, iv) in inner.iter().enumerate() {
                        if iv.is_some() {
                            cover(&mut live[d], first, *at - 1);
                        }
                    }
                }
                ControlNode::Loop { body, .. } => walk(body, sdfg, at, live),
            }
        }
    }
    let mut live = vec![None; sdfg.containers.len()];
    walk(&sdfg.control, sdfg, &mut 0, &mut live);
    live
}

/// Which array each container of a store lives in.
#[derive(Debug)]
pub(crate) struct Packing {
    /// Per container, the index of its array. Arrays are numbered in
    /// order of their first container.
    pub(crate) array_of: Vec<usize>,
    /// The containers of every array that holds more than one.
    shared: Vec<Vec<DataId>>,
}

impl Packing {
    /// Pack `sdfg`'s transients by their live intervals (module docs).
    pub(crate) fn of(sdfg: &Sdfg) -> Self {
        let live = live_intervals(sdfg);
        let unwritten = reuse::reads_unwritten(sdfg);
        // Untouched transients come last and join any array of their
        // layout: they are never live.
        let mut tenants: Vec<(u32, DataId, Option<Interval>)> = (0..live.len())
            .map(DataId)
            .filter(|d| {
                let c = &sdfg.containers[d.0];
                c.transient && !c.constant && !unwritten.contains(d)
            })
            .map(|d| (live[d.0].map_or(u32::MAX, |iv| iv.first), d, live[d.0]))
            .collect();
        tenants.sort_unstable_by_key(|&(first, d, _)| (first, d.0));
        // Per group of tenants: its first tenant and the last node any of
        // them is live at.
        let mut groups: Vec<(DataId, u32)> = Vec::new();
        let mut group_of = vec![None; live.len()];
        for (first, d, iv) in tenants {
            let layout = &sdfg.containers[d.0].layout;
            let free = groups.iter().position(|(g, end)| {
                (iv.is_none() || *end < first) && sdfg.containers[g.0].layout == *layout
            });
            let g = free.unwrap_or_else(|| {
                groups.push((d, 0));
                groups.len() - 1
            });
            if let Some(iv) = iv {
                groups[g].1 = iv.last;
            }
            group_of[d.0] = Some(g);
        }
        let mut array_of_group = vec![None; groups.len()];
        let mut shared = vec![Vec::new(); groups.len()];
        let mut arrays = 0;
        let mut fresh = || {
            arrays += 1;
            arrays - 1
        };
        let array_of = (0..live.len())
            .map(|d| match group_of[d] {
                Some(g) => {
                    shared[g].push(DataId(d));
                    *array_of_group[g].get_or_insert_with(&mut fresh)
                }
                None => fresh(),
            })
            .collect();
        shared.retain(|tenants| tenants.len() > 1);
        Packing { array_of, shared }
    }

    /// Two containers that share an array although both are live at once
    /// under `live` (the intervals of the graph about to run).
    pub(crate) fn conflict(&self, live: &[Option<Interval>]) -> Option<(DataId, DataId)> {
        let live_of = |d: &DataId| live.get(d.0).copied().flatten();
        self.shared.iter().find_map(|tenants| {
            tenants.iter().enumerate().find_map(|(n, a)| {
                let ia = live_of(a)?;
                tenants[n + 1..]
                    .iter()
                    .find(|b| live_of(b).is_some_and(|ib| ia.overlaps(&ib)))
                    .map(|b| (*a, *b))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::{DataflowNode, State};
    use crate::kernel::{Domain, KOrder, Kernel, LValue, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    /// `dst = src + 1` over the whole domain.
    fn step(src: DataId, dst: DataId) -> DataflowNode {
        let mut k = Kernel::new(
            "step",
            Domain::from_shape([4, 4, 2]),
            KOrder::Parallel,
            Schedule::gpu_horizontal(),
        );
        k.stmts
            .push(Stmt::full(LValue::Field(dst), Expr::load(src, 0, 0, 0) + Expr::c(1.0)));
        DataflowNode::Kernel(k)
    }

    fn graph(transient: &[bool]) -> (Sdfg, Vec<DataId>) {
        let mut g = Sdfg::new("live");
        let l = Layout::new([4, 4, 2], [1, 1, 0], StorageOrder::IContiguous, 1);
        let ids = transient
            .iter()
            .enumerate()
            .map(|(n, t)| g.add_container(format!("c{n}"), l.clone(), *t))
            .collect();
        (g, ids)
    }

    #[test]
    fn a_chain_of_transients_packs_into_two_arrays() {
        // in -> t1 -> t2 -> t3 -> t4 -> out: each transient is live for
        // two nodes, so t1/t3 and t2/t4 share; t5, never touched, joins
        // the first array.
        let (mut g, c) = graph(&[false, true, true, true, true, false, true]);
        let mut s = State::new("s");
        s.nodes = (0..5).map(|n| step(c[n], c[n + 1])).collect();
        g.add_state(s);
        let live = live_intervals(&g);
        assert_eq!(live[1], Some(Interval { first: 0, last: 1 }));
        assert_eq!((live[5], live[6]), (Some(Interval { first: 4, last: 4 }), None));
        let p = Packing::of(&g);
        assert_eq!(p.array_of, vec![0, 1, 2, 1, 2, 3, 1]);
        assert_eq!(p.conflict(&live), None);
    }

    #[test]
    fn a_loop_of_several_trips_keeps_its_body_live() {
        // t1 is written before the loop and read by its first node; t2 is
        // written and read after that inside the body. Flat, they would
        // share; the second trip reads t1 again after t2 was written.
        let (mut g, c) = graph(&[false, true, true, false]);
        let mut pre = State::new("pre");
        pre.nodes.push(step(c[0], c[1]));
        let mut body = State::new("body");
        body.nodes = vec![step(c[1], c[3]), step(c[0], c[2]), step(c[2], c[3])];
        g.states = vec![pre, body];
        for trips in [1, 2] {
            g.control = vec![
                ControlNode::State(0),
                ControlNode::Loop { trips, body: vec![ControlNode::State(1)] },
            ];
            let live = live_intervals(&g);
            let shared = Packing::of(&g).array_of[1] == Packing::of(&g).array_of[2];
            match trips {
                1 => assert!(shared && live[1] == Some(Interval { first: 0, last: 1 })),
                _ => assert!(!shared && live[1] == Some(Interval { first: 0, last: 3 })),
            }
        }
    }

    #[test]
    fn only_transients_of_one_layout_that_write_before_reading_share() {
        let (mut g, c) = graph(&[false, true, true, true, false, true, false]);
        g.containers[c[3].0].layout = Layout::new([4, 4, 2], [1, 1, 0], StorageOrder::IContiguous, 8);
        let mut s = State::new("s");
        // c1 first, then c2, c3 (another layout) and c4 (not transient)
        // after it is dead; c5 reads itself before writing.
        s.nodes = vec![
            step(c[0], c[1]),
            step(c[1], c[6]),
            step(c[0], c[3]),
            step(c[3], c[4]),
            step(c[0], c[2]),
            step(c[2], c[6]),
            step(c[5], c[5]),
        ];
        g.add_state(s);
        let p = Packing::of(&g);
        assert_eq!(p.array_of, vec![0, 1, 1, 2, 3, 4, 5]);
        assert_eq!(reuse::reads_unwritten(&g), vec![c[0], c[5]]);
    }

    #[test]
    fn a_conflict_names_the_first_pair_live_together() {
        let (mut g, c) = graph(&[false, true, true, false]);
        let mut s = State::new("s");
        s.nodes = vec![step(c[0], c[1]), step(c[1], c[3]), step(c[0], c[2]), step(c[2], c[3])];
        g.add_state(s);
        let p = Packing::of(&g);
        assert_eq!(p.array_of[1], p.array_of[2]);
        // c2 computed from c1 instead: both are live at node 2.
        if let DataflowNode::Kernel(k) = &mut g.states[0].nodes[2] {
            k.stmts[0].expr = Expr::load(c[1], 0, 0, 0);
        }
        assert_eq!(p.conflict(&live_intervals(&g)), Some((c[1], c[2])));
    }
}
