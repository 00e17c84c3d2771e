//! The user-facing embedded DSL: a typed builder with operator
//! overloading that plays the role of the `@gtscript.stencil` decorator
//! syntax (Fig. 4a of the paper).
//!
//! ```
//! use stencil::builder::*;
//! use dataflow::kernel::{AxisInterval, KOrder};
//!
//! let flux = StencilBuilder::new("flux_x", |b| {
//!     let velocity = b.input("velocity");
//!     let cosa = b.input("cosa");
//!     let flux = b.output("flux");
//!     let dt2 = b.param("dt2");
//!     b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
//!         c.assign(&flux, dt2.ex() * (velocity.c() - velocity.at(-1, 0, 0) * cosa.c()));
//!     });
//! })
//! .unwrap();
//! assert_eq!(flux.operation_count(), 1);
//! ```

use crate::ir::{Computation, FieldDecl, Intent, StencilDef, StencilStmt};
use dataflow::kernel::{AxisInterval, KOrder, Region2};
use dataflow::{DataId, Expr, ParamId};
use std::cell::RefCell;

/// Handle to a declared field; produces [`Expr`] loads.
#[derive(Debug, Clone, Copy)]
pub struct FieldHandle {
    idx: usize,
}

impl FieldHandle {
    /// Read at a relative offset.
    pub fn at(&self, i: i32, j: i32, k: i32) -> Expr {
        Expr::load(DataId(self.idx), i, j, k)
    }

    /// Read at the centre point.
    pub fn c(&self) -> Expr {
        self.at(0, 0, 0)
    }
}

/// Handle to a scalar parameter.
#[derive(Debug, Clone, Copy)]
pub struct ParamHandle {
    idx: usize,
}

impl ParamHandle {
    /// Reference the parameter in an expression.
    pub fn ex(&self) -> Expr {
        Expr::Param(ParamId(self.idx))
    }
}

/// Builds a [`StencilDef`].
pub struct StencilBuilder {
    name: String,
    fields: RefCell<Vec<FieldDecl>>,
    params: RefCell<Vec<String>>,
    computations: RefCell<Vec<Computation>>,
}

impl StencilBuilder {
    /// Construct a stencil: `f` declares fields/params and adds
    /// computation blocks; the result is validated before being returned.
    /// Deliberately returns the finished [`StencilDef`], not the builder.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(name: impl Into<String>, f: impl FnOnce(&StencilBuilder)) -> Result<StencilDef, String> {
        let b = StencilBuilder {
            name: name.into(),
            fields: RefCell::new(Vec::new()),
            params: RefCell::new(Vec::new()),
            computations: RefCell::new(Vec::new()),
        };
        f(&b);
        let def = StencilDef {
            name: b.name,
            fields: b.fields.into_inner(),
            params: b.params.into_inner(),
            computations: b.computations.into_inner(),
        };
        def.validate()?;
        Ok(def)
    }

    fn add_field(&self, name: &str, intent: Intent) -> FieldHandle {
        let mut fields = self.fields.borrow_mut();
        assert!(
            !fields.iter().any(|f| f.name == name),
            "duplicate field '{name}' in stencil"
        );
        fields.push(FieldDecl {
            name: name.to_string(),
            intent,
        });
        FieldHandle {
            idx: fields.len() - 1,
        }
    }

    /// Declare a read-only input field.
    pub fn input(&self, name: &str) -> FieldHandle {
        self.add_field(name, Intent::In)
    }

    /// Declare a write-only output field.
    pub fn output(&self, name: &str) -> FieldHandle {
        self.add_field(name, Intent::Out)
    }

    /// Declare a read-modify-write field.
    pub fn inout(&self, name: &str) -> FieldHandle {
        self.add_field(name, Intent::InOut)
    }

    /// Declare a stencil-internal temporary ("arbitrary amounts of
    /// temporary variables without worrying about memory allocation",
    /// Section IV-A).
    pub fn temp(&self, name: &str) -> FieldHandle {
        self.add_field(name, Intent::Temp)
    }

    /// Declare a scalar parameter.
    pub fn param(&self, name: &str) -> ParamHandle {
        let mut params = self.params.borrow_mut();
        assert!(
            !params.iter().any(|p| p == name),
            "duplicate param '{name}' in stencil"
        );
        params.push(name.to_string());
        ParamHandle {
            idx: params.len() - 1,
        }
    }

    /// Open a `with computation(order), interval(iv)` block.
    pub fn computation(
        &self,
        order: KOrder,
        interval: AxisInterval,
        f: impl FnOnce(&mut ComputationCtx),
    ) {
        let mut ctx = ComputationCtx { stmts: Vec::new() };
        f(&mut ctx);
        self.computations.borrow_mut().push(Computation {
            order,
            interval,
            stmts: ctx.stmts,
        });
    }
}

/// Statement context inside a computation block.
pub struct ComputationCtx {
    stmts: Vec<StencilStmt>,
}

impl ComputationCtx {
    /// `target = expr` over the full horizontal plane.
    pub fn assign(&mut self, target: &FieldHandle, expr: Expr) {
        self.stmts.push(StencilStmt {
            target: target.idx,
            expr,
            region: None,
        });
    }

    /// `with horizontal(region[...])`: assignments inside apply only to
    /// the region.
    pub fn horizontal(&mut self, region: Region2, f: impl FnOnce(&mut RegionCtx)) {
        let mut r = RegionCtx {
            region,
            stmts: Vec::new(),
        };
        f(&mut r);
        for mut s in r.stmts {
            s.region = Some(r.region);
            self.stmts.push(s);
        }
    }
}

/// Statement context inside a horizontal region.
pub struct RegionCtx {
    region: Region2,
    stmts: Vec<StencilStmt>,
}

impl RegionCtx {
    /// Region-restricted assignment.
    pub fn assign(&mut self, target: &FieldHandle, expr: Expr) {
        self.stmts.push(StencilStmt {
            target: target.idx,
            expr,
            region: None, // filled by `horizontal`
        });
    }
}

/// Convenience math wrappers that read like gtscript built-ins.
pub mod fns {
    use dataflow::{BinOp, Expr, UnOp};

    pub fn sqrt(a: Expr) -> Expr {
        Expr::un(UnOp::Sqrt, a)
    }
    pub fn abs(a: Expr) -> Expr {
        Expr::un(UnOp::Abs, a)
    }
    pub fn exp(a: Expr) -> Expr {
        Expr::un(UnOp::Exp, a)
    }
    pub fn log(a: Expr) -> Expr {
        Expr::un(UnOp::Log, a)
    }
    pub fn sin(a: Expr) -> Expr {
        Expr::un(UnOp::Sin, a)
    }
    pub fn cos(a: Expr) -> Expr {
        Expr::un(UnOp::Cos, a)
    }
    pub fn floor(a: Expr) -> Expr {
        Expr::un(UnOp::Floor, a)
    }
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Min, a, b)
    }
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Max, a, b)
    }
    /// The general power operator — deliberately expensive until the
    /// power transformation strength-reduces it (Section VI-C1).
    pub fn pow(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Pow, a, b)
    }
    /// Ternary select: `if cond != 0 { a } else { b }`.
    pub fn select(cond: Expr, a: Expr, b: Expr) -> Expr {
        Expr::select(cond, a, b)
    }
    /// Numeric literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Const(v)
    }
}

#[cfg(test)]
mod tests {
    use super::fns::*;
    use super::*;
    use dataflow::kernel::KOrder;

    #[test]
    fn builder_constructs_smagorinsky_like_stencil() {
        let def = StencilBuilder::new("smagorinsky", |b| {
            let delpc = b.input("delpc");
            let vort = b.inout("vort");
            let dt = b.param("dt");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(
                    &vort,
                    dt.ex()
                        * pow(
                            pow(delpc.c(), lit(2.0)) + pow(vort.c(), lit(2.0)),
                            lit(0.5),
                        ),
                );
            });
        })
        .unwrap();
        assert_eq!(def.name, "smagorinsky");
        assert_eq!(def.fields.len(), 2);
        assert_eq!(def.operation_count(), 1);
        assert_eq!(def.computations[0].stmts[0].expr.transcendentals(), 3);
    }

    #[test]
    fn horizontal_region_statements_get_region() {
        let def = StencilBuilder::new("flux", |b| {
            let velocity = b.input("velocity");
            let flux = b.output("flux");
            let dt2 = b.param("dt2");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(&flux, dt2.ex() * velocity.c());
                c.horizontal(
                    Region2 {
                        i: AxisInterval::FULL,
                        j: AxisInterval::at_start(0),
                    },
                    |r| r.assign(&flux, dt2.ex() * velocity.at(0, -1, 0)),
                );
            });
        })
        .unwrap();
        assert_eq!(def.computations[0].stmts.len(), 2);
        assert!(def.computations[0].stmts[0].region.is_none());
        assert!(def.computations[0].stmts[1].region.is_some());
    }

    #[test]
    fn invalid_stencil_surfaces_error() {
        let r = StencilBuilder::new("bad", |b| {
            let t = b.temp("t");
            let out = b.output("out");
            b.computation(KOrder::Parallel, AxisInterval::FULL, |c| {
                c.assign(&out, t.c()); // temp read before written
            });
        });
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_field_names_panic() {
        let _ = StencilBuilder::new("dup", |b| {
            b.input("x");
            b.input("x");
        });
    }

    #[test]
    fn multi_block_solver_builds() {
        let def = StencilBuilder::new("tridiag_fwd", |b| {
            let a = b.input("a");
            let b_ = b.input("b");
            let c_ = b.input("c");
            let d = b.inout("d");
            let gam = b.temp("gam");
            let bet = b.temp("bet");
            b.computation(
                KOrder::Forward,
                AxisInterval::new(dataflow::Anchor::Start(0), dataflow::Anchor::Start(1)),
                |c| {
                    c.assign(&bet, b_.c());
                    c.assign(&d, d.c() / bet.c());
                    let _ = a;
                },
            );
            b.computation(
                KOrder::Forward,
                AxisInterval::new(dataflow::Anchor::Start(1), dataflow::Anchor::End(0)),
                |c| {
                    c.assign(&gam, c_.at(0, 0, -1) / bet.at(0, 0, -1));
                    c.assign(&bet, b_.c() - a.c() * gam.c());
                    c.assign(&d, (d.c() - a.c() * d.at(0, 0, -1)) / bet.c());
                },
            );
        })
        .unwrap();
        assert_eq!(def.computations.len(), 2);
        assert_eq!(def.operation_count(), 5);
    }
}
