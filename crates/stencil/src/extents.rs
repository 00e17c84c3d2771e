//! Compute-extent and halo inference (Section III-A: "buffer sizes for
//! fields are thus transparently defined by inferring halo regions and
//! extents from usage in stencils").
//!
//! GT4Py semantics: each assignment is a full-plane stencil operation. If
//! a later statement reads a temporary at offset ±1, the earlier statement
//! must have computed the temporary on a domain *extended* by one cell —
//! the "extended compute domain". The analysis walks statements backwards,
//! accumulating per-field horizontal requirements; the result is
//!
//! * one [`Extent2`] per statement (how far beyond the nominal domain it
//!   must run), and
//! * per-field halo requirements (how many halo cells each *input* array
//!   must provide, and how large temporaries must be allocated).

use crate::ir::{Intent, StencilDef};
use dataflow::kernel::Extent2;
use dataflow::Offset3;

/// Result of extent analysis over one stencil.
#[derive(Debug, Clone)]
pub struct ExtentAnalysis {
    /// Extent per statement, in `all_stmts` (program) order.
    pub stmt_extents: Vec<Extent2>,
    /// Per-field requirement: horizontal halo the array must provide
    /// beyond the nominal domain.
    pub field_extents: Vec<Extent2>,
    /// Per-field vertical halo requirement `(below, above)` from K
    /// offsets.
    pub field_k_halo: Vec<(i64, i64)>,
}

/// Run the analysis.
pub fn analyze(def: &StencilDef) -> ExtentAnalysis {
    let nf = def.fields.len();
    // Requirement currently known for each field: how far (beyond the
    // nominal domain) downstream consumers read it.
    let mut req: Vec<Extent2> = vec![Extent2::ZERO; nf];
    let mut k_halo: Vec<(i64, i64)> = vec![(0, 0); nf];

    let stmts: Vec<(usize, &crate::ir::StencilStmt)> = def.all_stmts().collect();
    let mut stmt_extents = vec![Extent2::ZERO; stmts.len()];

    for (idx, (_, s)) in stmts.iter().enumerate().rev() {
        // This statement must cover whatever downstream reads of its
        // target require. Region statements are edge corrections: they
        // run exactly on their region, never extended.
        let ext = if s.region.is_some() {
            Extent2::ZERO
        } else {
            req[s.target]
        };
        stmt_extents[idx] = ext;
        // Every read then requires the source field at ext ⊕ offset.
        for (d, o) in s.expr.loads() {
            let need = ext.shifted_by(Offset3::new(o.i, o.j, 0));
            req[d.0] = req[d.0].union(&need);
            let (lo, hi) = &mut k_halo[d.0];
            *lo = (*lo).max(-(o.k as i64));
            *hi = (*hi).max(o.k as i64);
        }
    }

    ExtentAnalysis {
        stmt_extents,
        field_extents: req,
        field_k_halo: k_halo,
    }
}

impl ExtentAnalysis {
    /// Maximum horizontal halo requirement over all fields, as
    /// `[i_halo, j_halo]` (symmetric: max of low/high sides).
    #[cfg(test)]
    fn max_halo(&self) -> [usize; 2] {
        let mut hi = 0i64;
        let mut hj = 0i64;
        for e in &self.field_extents {
            hi = hi.max(e.i_lo).max(e.i_hi);
            hj = hj.max(e.j_lo).max(e.j_hi);
        }
        [hi as usize, hj as usize]
    }

    /// Halo the array bound to field `f` must provide, `[i, j, k]`
    /// (symmetric).
    pub fn field_halo(&self, f: usize) -> [usize; 3] {
        let e = &self.field_extents[f];
        let (kl, kh) = self.field_k_halo[f];
        [
            e.i_lo.max(e.i_hi) as usize,
            e.j_lo.max(e.j_hi) as usize,
            kl.max(kh) as usize,
        ]
    }
}

/// Check that bound array layouts provide the *horizontal* halos the
/// stencil needs. Vertical offsets are not checked: they are normally
/// guarded by interval blocks (e.g. a forward solver reading `k-1` only
/// on `interval(1, None)`), which this conservative analysis cannot see.
pub fn check_halos(
    def: &StencilDef,
    analysis: &ExtentAnalysis,
    layout_halo: &impl Fn(usize) -> [usize; 3],
) -> Result<(), String> {
    for (fi, f) in def.fields.iter().enumerate() {
        if f.intent == Intent::Temp {
            continue; // temporaries are allocated to fit
        }
        let need = analysis.field_halo(fi);
        let have = layout_halo(fi);
        for d in 0..2 {
            if have[d] < need[d] {
                return Err(format!(
                    "stencil '{}': field '{}' needs halo {:?} but array provides {:?}",
                    def.name, f.name, need, have
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StencilBuilder;
    use dataflow::kernel::{AxisInterval, KOrder, Region2};

    /// tmp = in * 2 ; out = tmp[-1] + tmp[+1]  -> tmp's producer needs
    /// extent 1 in I, and `in` needs halo 1 in I.
    fn chain() -> crate::ir::StencilDef {
        StencilBuilder::new("chain", |b| {
            let inp = b.input("inp");
            let tmp = b.temp("tmp");
            let out = b.output("out");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(&tmp, inp.c() * dataflow::Expr::c(2.0));
                c.assign(&out, tmp.at(-1, 0, 0) + tmp.at(1, 0, 0));
            });
        })
        .unwrap()
    }

    #[test]
    fn producer_statement_gets_extended() {
        let def = chain();
        let a = analyze(&def);
        assert_eq!(
            a.stmt_extents[0],
            Extent2 {
                i_lo: 1,
                i_hi: 1,
                j_lo: 0,
                j_hi: 0
            }
        );
        assert_eq!(a.stmt_extents[1], Extent2::ZERO);
    }

    #[test]
    fn input_halo_requirement_propagates_through_temp() {
        let def = chain();
        let a = analyze(&def);
        // inp is read at offset 0 by a statement with extent 1 -> halo 1.
        assert_eq!(a.field_halo(0), [1, 0, 0]);
        assert_eq!(a.field_halo(1), [1, 0, 0]); // the temp itself
        assert_eq!(a.field_halo(2), [0, 0, 0]); // the output
        assert_eq!(a.max_halo(), [1, 0]);
    }

    #[test]
    fn extents_compose_through_chains() {
        // t1 = in[+1]; t2 = t1[+1]; out = t2[+1]  -> in needs halo 3.
        let def = StencilBuilder::new("deep", |b| {
            let inp = b.input("inp");
            let t1 = b.temp("t1");
            let t2 = b.temp("t2");
            let out = b.output("out");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(&t1, inp.at(1, 0, 0));
                c.assign(&t2, t1.at(1, 0, 0));
                c.assign(&out, t2.at(1, 0, 0));
            });
        })
        .unwrap();
        let a = analyze(&def);
        assert_eq!(a.field_halo(0), [3, 0, 0]);
        assert_eq!(a.stmt_extents[0].i_hi, 2);
        assert_eq!(a.stmt_extents[1].i_hi, 1);
        assert_eq!(a.stmt_extents[2].i_hi, 0);
    }

    #[test]
    fn k_offsets_produce_vertical_halo() {
        let def = StencilBuilder::new("vert", |b| {
            let inp = b.input("inp");
            let out = b.output("out");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(&out, inp.at(0, 0, -2) + inp.at(0, 0, 1));
            });
        })
        .unwrap();
        let a = analyze(&def);
        assert_eq!(a.field_k_halo[0], (2, 1));
        assert_eq!(a.field_halo(0), [0, 0, 2]);
    }

    #[test]
    fn region_statements_are_not_extended() {
        let def = StencilBuilder::new("edge", |b| {
            let inp = b.input("inp");
            let out = b.output("out");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.horizontal(
                    Region2 {
                        i: AxisInterval::FULL,
                        j: AxisInterval::at_start(0),
                    },
                    |r| r.assign(&out, inp.at(0, -1, 0)),
                );
                c.assign(&out, inp.c());
            });
        })
        .unwrap();
        let a = analyze(&def);
        assert_eq!(a.stmt_extents[0], Extent2::ZERO);
    }

    #[test]
    fn halo_check_accepts_and_rejects() {
        let def = chain();
        let a = analyze(&def);
        assert!(check_halos(&def, &a, &|_| [3, 3, 1]).is_ok());
        let r = check_halos(&def, &a, &|_| [0, 0, 0]);
        assert!(r.unwrap_err().contains("needs halo"));
    }
}
