//! When may a [`DataStore`](crate::DataStore) that already ran a program
//! run it again without being re-zeroed?
//!
//! A fresh store is all zeros apart from the containers the caller loads
//! before each run. A reused one also holds whatever the last run wrote.
//! The two runs agree bit for bit when every cell the program reads is,
//! at the moment it is read, either
//!
//! * *written earlier in this run* (loaded containers count as written in
//!   full before the first node), or
//! * *never written by the program at all* — then it is zero in both
//!   stores, forever (or, for a `constant` container, whatever array the
//!   caller lent to both).
//!
//! By induction over node order every read then sees the value a fresh
//! store would have shown it, so every write stores the same bits.
//! [`clear_list`] checks exactly that with boxes: what is read is
//! over-approximated (statement bounds shifted by the access offset,
//! whole containers for copies and callbacks), what is known to be
//! written is under-approximated (statement bounds of the nodes that
//! already ran, plus — for a kernel's reads of a field it writes itself,
//! which [`validate_kernel`](crate::exec::validate_kernel) confines to
//! the column — the statements that run earlier in that column's K
//! march). A container with a read it cannot prove goes on the list the
//! caller must zero before each run; soundness rests on the list,
//! precision is what tests pin.

use crate::expr::{DataId, Offset3};
use crate::graph::{ControlNode, DataflowNode, Sdfg};
use crate::kernel::{Domain, KOrder, Kernel, LValue};

/// What is known about one container's cells. `pad` stands for the
/// storage no logical coordinate maps to (alignment padding), which only
/// whole-container operations touch.
#[derive(Default, Clone)]
struct Cells {
    /// Every box any node of the run writes.
    ever: Vec<Domain>,
    pad_ever: bool,
    /// Boxes written so far in the run being walked.
    now: Vec<Domain>,
    pad_now: bool,
}

/// `a` minus `b`, as up to six disjoint boxes.
fn subtract(a: &Domain, b: &Domain) -> Vec<Domain> {
    if a.intersect(b).is_empty() {
        return vec![*a];
    }
    let mut out = Vec::new();
    let mut rest = *a;
    for d in 0..3 {
        if rest.start[d] < b.start[d] {
            let mut lo = rest;
            lo.end[d] = b.start[d];
            out.push(lo);
            rest.start[d] = b.start[d];
        }
        if rest.end[d] > b.end[d] {
            let mut hi = rest;
            hi.start[d] = b.end[d];
            out.push(hi);
            rest.end[d] = b.end[d];
        }
    }
    out
}

/// Whether `read` lies inside the union of `written`.
fn covered<'a>(read: Domain, written: impl Iterator<Item = &'a Domain>) -> bool {
    let mut rest = vec![read];
    for w in written {
        rest = rest.iter().flat_map(|r| subtract(r, w)).collect();
        if rest.is_empty() {
            return true;
        }
    }
    rest.iter().all(Domain::is_empty)
}

fn shifted(b: &Domain, o: Offset3) -> Domain {
    let o = [o.i as i64, o.j as i64, o.k as i64];
    Domain {
        start: [b.start[0] + o[0], b.start[1] + o[1], b.start[2] + o[2]],
        end: [b.end[0] + o[0], b.end[1] + o[1], b.end[2] + o[2]],
    }
}

/// The nodes of a graph in execution order, each once: a later trip of a
/// loop reads a superset of what the first trip could rely on.
fn nodes_in_order(sdfg: &Sdfg) -> Vec<&DataflowNode> {
    fn walk<'a>(nodes: &[ControlNode], sdfg: &'a Sdfg, out: &mut Vec<&'a DataflowNode>) {
        for n in nodes {
            match n {
                ControlNode::State(s) => out.extend(&sdfg.states[*s].nodes),
                ControlNode::Loop { trips, body } if *trips > 0 => walk(body, sdfg, out),
                ControlNode::Loop { .. } => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&sdfg.control, sdfg, &mut out);
    out
}

struct Walk {
    cells: Vec<Cells>,
    whole: Vec<Domain>,
    unproven: Vec<bool>,
}

impl Walk {
    /// A read of `read` in container `d`, with `own` the boxes the
    /// reading kernel itself is known to have written there first.
    fn read(&mut self, d: DataId, read: Domain, own: &[Domain]) {
        let c = &self.cells[d.0];
        let proven = c
            .ever
            .iter()
            .all(|e| covered(read.intersect(e), c.now.iter().chain(own)));
        if !proven {
            self.unproven[d.0] = true;
        }
    }

    fn read_whole(&mut self, d: DataId) {
        self.read(d, self.whole[d.0], &[]);
        let c = &self.cells[d.0];
        if c.pad_ever && !c.pad_now {
            self.unproven[d.0] = true;
        }
    }

    fn write(&mut self, d: DataId, b: Domain) {
        let now = &mut self.cells[d.0].now;
        if !b.is_empty() && !covered(b, now.iter()) {
            now.push(b);
        }
    }

    fn write_whole(&mut self, d: DataId) {
        self.cells[d.0].now = vec![self.whole[d.0]];
        self.cells[d.0].pad_now = true;
    }

    fn kernel(&mut self, k: &Kernel) {
        if k.domain.is_empty() {
            return;
        }
        let bounds: Vec<Domain> = k.stmts.iter().map(|s| s.bounds(&k.domain)).collect();
        let writes_of = |d: DataId, upto: usize| -> Vec<Domain> {
            (0..upto)
                .filter(|&t| k.stmts[t].lvalue == LValue::Field(d))
                .map(|t| bounds[t])
                .collect()
        };
        for (si, s) in k.stmts.iter().enumerate() {
            for (d, o) in s.expr.loads() {
                // What this column already wrote of `d` when statement
                // `si` reads it at `o`: at the same level the statements
                // before it; at a level the march has passed, all of them.
                let own = match (o.i, o.j, o.k) {
                    (0, 0, 0) => writes_of(d, si),
                    (0, 0, dk)
                        if (k.k_order == KOrder::Forward && dk < 0)
                            || (k.k_order == KOrder::Backward && dk > 0) =>
                    {
                        writes_of(d, k.stmts.len())
                    }
                    _ => Vec::new(),
                };
                self.read(d, shifted(&bounds[si], o), &own);
            }
        }
        for (s, b) in k.stmts.iter().zip(&bounds) {
            if let LValue::Field(d) = s.lvalue {
                self.write(d, *b);
            }
        }
    }
}

/// The containers that must be zeroed before `run` — graphs over one set
/// of containers, executed back to back on one store — runs again on a
/// store that already ran it. `loaded` are the containers the caller
/// overwrites in full (padding included) before every run; they are
/// never listed. Nor is a `constant` container, whether or not it is in
/// `loaded`: no node writes it, so every read of it is provable, and the
/// caller lends it whole before each run. Empty means the store can be
/// reused as it is.
pub fn clear_list(run: &[&Sdfg], loaded: &[DataId]) -> Vec<DataId> {
    let Some(first) = run.first() else {
        return Vec::new();
    };
    let whole: Vec<Domain> = first
        .containers
        .iter()
        .map(|c| {
            let l = &c.layout;
            Domain {
                start: [0, 1, 2].map(|d| -(l.halo[d] as i64)),
                end: [0, 1, 2].map(|d| (l.domain[d] + l.halo[d]) as i64),
            }
        })
        .collect();
    let nodes: Vec<&DataflowNode> = run.iter().flat_map(|g| nodes_in_order(g)).collect();

    let mut cells = vec![Cells::default(); whole.len()];
    for node in &nodes {
        match node {
            DataflowNode::Kernel(k) if !k.domain.is_empty() => {
                for s in &k.stmts {
                    if let LValue::Field(d) = s.lvalue {
                        cells[d.0].ever.push(s.bounds(&k.domain));
                    }
                }
            }
            DataflowNode::Kernel(_) => {}
            // A halo exchange fills halo cells only; a copy or a host
            // callback may touch all of the raw storage.
            DataflowNode::HaloExchange { fields } => {
                for d in fields {
                    cells[d.0].ever.push(whole[d.0]);
                }
            }
            other => {
                for d in other.writes() {
                    cells[d.0].ever.push(whole[d.0]);
                    cells[d.0].pad_ever = true;
                }
            }
        }
    }
    for d in loaded {
        cells[d.0].now = vec![whole[d.0]];
        cells[d.0].pad_now = true;
    }

    let mut walk = Walk {
        unproven: vec![false; whole.len()],
        cells,
        whole,
    };
    for node in nodes {
        match node {
            DataflowNode::Kernel(k) => walk.kernel(k),
            DataflowNode::Copy { src, dst } => {
                walk.read_whole(*src);
                walk.write_whole(*dst);
            }
            // Opaque nodes: everything they declare may be read, nothing
            // is known to be written.
            other => {
                for d in other.reads() {
                    walk.read_whole(d);
                }
            }
        }
    }
    (0..walk.unproven.len())
        .filter(|&d| walk.unproven[d] && !loaded.contains(&DataId(d)))
        .map(DataId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::graph::State;
    use crate::kernel::{Anchor, AxisInterval, Extent2, Schedule, Stmt};
    use crate::storage::{Layout, StorageOrder};

    const N: usize = 6;
    const NK: usize = 4;

    fn graph(names: &[&str]) -> (Sdfg, Vec<DataId>) {
        let mut g = Sdfg::new("reuse");
        let l = Layout::new([N, N, NK], [2, 2, 0], StorageOrder::IContiguous, 8);
        let ids = names
            .iter()
            .map(|n| g.add_container(*n, l.clone(), false))
            .collect();
        (g, ids)
    }

    fn kernel(order: KOrder, stmts: Vec<Stmt>) -> DataflowNode {
        let mut k = Kernel::new(
            "k",
            Domain::from_shape([N, N, NK]),
            order,
            Schedule::gpu_horizontal(),
        );
        k.stmts = stmts;
        DataflowNode::Kernel(k)
    }

    fn run_of(g: &mut Sdfg, nodes: Vec<DataflowNode>) {
        let mut s = State::new("s");
        s.nodes = nodes;
        g.add_state(s);
    }

    #[test]
    fn box_subtraction_partitions_the_remainder() {
        let a = Domain::from_shape([6, 6, 4]);
        let b = Domain {
            start: [2, -1, 1],
            end: [4, 3, 9],
        };
        let parts = subtract(&a, &b);
        let vol: u64 = parts.iter().map(Domain::volume).sum();
        assert_eq!(vol + a.intersect(&b).volume(), a.volume());
        for (n, p) in parts.iter().enumerate() {
            assert!(p.intersect(&b).is_empty());
            for q in &parts[n + 1..] {
                assert!(p.intersect(q).is_empty());
            }
        }
    }

    #[test]
    fn scratch_written_before_it_is_read_needs_no_clearing() {
        // tmp = a[-1] + a[+1] on the grown domain, out = tmp[-1] + tmp[+1];
        // then the never-written shell of tmp is copied along with it.
        let (mut g, ids) = graph(&["a", "tmp", "out", "shadow"]);
        let (a, tmp, out, shadow) = (ids[0], ids[1], ids[2], ids[3]);
        let mut wide = Stmt::full(
            LValue::Field(tmp),
            Expr::load(a, -1, 0, 0) + Expr::load(a, 1, 0, 0),
        );
        wide.extent = Extent2 {
            i_lo: 1,
            i_hi: 1,
            j_lo: 0,
            j_hi: 0,
        };
        run_of(
            &mut g,
            vec![
                kernel(KOrder::Parallel, vec![wide]),
                kernel(
                    KOrder::Parallel,
                    vec![Stmt::full(
                        LValue::Field(out),
                        Expr::load(tmp, -1, 0, 0) + Expr::load(tmp, 1, 0, 0),
                    )],
                ),
                DataflowNode::Copy {
                    src: tmp,
                    dst: shadow,
                },
            ],
        );
        assert!(clear_list(&[&g], &[a]).is_empty());
    }

    #[test]
    fn a_read_one_cell_past_what_was_written_is_listed() {
        // out reads tmp at +2 but tmp covers only +1 beyond the domain —
        // and a later kernel writes that outer cell, so it is stale.
        let (mut g, ids) = graph(&["a", "tmp", "out"]);
        let (a, tmp, out) = (ids[0], ids[1], ids[2]);
        let mut wide = Stmt::full(LValue::Field(tmp), Expr::load(a, 0, 0, 0));
        wide.extent = Extent2 {
            i_lo: 1,
            i_hi: 1,
            j_lo: 0,
            j_hi: 0,
        };
        let mut wider = wide.clone();
        wider.extent.i_hi = 2;
        let nodes = |last: Stmt| {
            vec![
                kernel(KOrder::Parallel, vec![wide.clone()]),
                kernel(
                    KOrder::Parallel,
                    vec![Stmt::full(LValue::Field(out), Expr::load(tmp, 2, 0, 0))],
                ),
                kernel(KOrder::Parallel, vec![last]),
            ]
        };
        run_of(&mut g, nodes(wider));
        assert_eq!(clear_list(&[&g], &[a]), vec![tmp]);
        // Without the late write the outer cell is zero forever.
        let (mut g, _) = graph(&["a", "tmp", "out"]);
        run_of(&mut g, nodes(wide.clone()));
        assert!(clear_list(&[&g], &[a]).is_empty());
    }

    #[test]
    fn the_k_march_decides_same_kernel_reads() {
        let level0 = AxisInterval::at_start(0);
        let above0 = AxisInterval::new(Anchor::Start(1), Anchor::End(0));
        let solver = |order, dk| {
            let (mut g, ids) = graph(&["a", "x"]);
            let (a, x) = (ids[0], ids[1]);
            let mut seed = Stmt::full(LValue::Field(x), Expr::load(a, 0, 0, 0));
            seed.k_range = level0;
            let mut sweep = Stmt::full(
                LValue::Field(x),
                Expr::load(x, 0, 0, dk) + Expr::load(a, 0, 0, 0),
            );
            sweep.k_range = above0;
            run_of(&mut g, vec![kernel(order, vec![seed, sweep])]);
            clear_list(&[&g], &[a])
        };
        // x[k] = x[k-1] + a[k] marching up: k-1 was written on the way.
        assert!(solver(KOrder::Forward, -1).is_empty());
        // The same read marching down meets last run's x[k-1].
        assert_eq!(solver(KOrder::Backward, -1), vec![DataId(1)]);
    }

    #[test]
    fn in_place_updates_and_opaque_readers_of_scratch_are_listed() {
        let (mut g, ids) = graph(&["a", "acc", "seen"]);
        let (a, acc, seen) = (ids[0], ids[1], ids[2]);
        run_of(
            &mut g,
            vec![
                kernel(
                    KOrder::Parallel,
                    vec![Stmt::full(
                        LValue::Field(acc),
                        Expr::load(acc, 0, 0, 0) + Expr::load(a, 0, 0, 0),
                    )],
                ),
                kernel(
                    KOrder::Parallel,
                    vec![Stmt::full(LValue::Field(seen), Expr::load(a, 0, 0, 0))],
                ),
                DataflowNode::Callback {
                    name: "peek".into(),
                    reads: vec![seen],
                    writes: vec![],
                },
            ],
        );
        // `seen` is written on the compute domain only; the callback may
        // read its halo, which nothing ever writes — provable. `acc`
        // accumulates onto itself across runs.
        assert_eq!(clear_list(&[&g], &[a]), vec![acc]);
        // A callback that may also write `seen` makes its halo stale.
        if let DataflowNode::Callback { writes, .. } = &mut g.states[0].nodes[2] {
            writes.push(seen);
        }
        assert_eq!(clear_list(&[&g], &[a]), vec![acc, seen]);
    }

    #[test]
    fn later_graphs_of_a_run_build_on_earlier_ones() {
        // Two graphs on one store: the second reads what the first wrote.
        let (mut first, ids) = graph(&["a", "tmp", "out"]);
        let (a, tmp, out) = (ids[0], ids[1], ids[2]);
        run_of(
            &mut first,
            vec![kernel(
                KOrder::Parallel,
                vec![Stmt::full(LValue::Field(tmp), Expr::load(a, 0, 0, 0))],
            )],
        );
        let (mut second, _) = graph(&["a", "tmp", "out"]);
        run_of(
            &mut second,
            vec![kernel(
                KOrder::Parallel,
                vec![Stmt::full(LValue::Field(out), Expr::load(tmp, 0, 0, 0))],
            )],
        );
        assert!(clear_list(&[&first, &second], &[a]).is_empty());
        assert_eq!(clear_list(&[&second, &first], &[a]), vec![tmp]);
    }
}
