//! Power-operator strength reduction (Section VI-C1).
//!
//! The Smagorinsky-diffusion stencil contains
//! `vort = dt * (delpc ** 2.0 + vort ** 2.0) ** 0.5`, which generates
//! general-purpose `pow` calls that are "highly inefficient". This
//! transformation "converts powers of positive and negative integers, as
//! well as 0.5, into multiplication loops and sqrt respectively":
//!
//! * `x ** n` for integral `|n| <= 8` → [`Expr::Powi`] (repeated multiply);
//! * `x ** 0.5` → `sqrt(x)`;
//! * `x ** -0.5` → `1 / sqrt(x)`;
//! * `x ** 1.0` → `x`; `x ** 0.0` → `1`.
//!
//! The one *budgeted* transform ([`crate::transforms::tier`]): libm's
//! `pow` is a < 1 ULP approximation while `x * x` and `sqrt` are
//! correctly rounded, so `pow(x, 2.0) != x * x` for about one input in a
//! thousand (glibc 2.36; DESIGN §6b) and the rewritten value may sit a few
//! ULPs from the original.

use crate::expr::{BinOp, Expr, UnOp};
use crate::graph::{DataflowNode, Sdfg};
use crate::transforms::Applied;

/// Rewrite a single expression. Returns the new tree and how many pow
/// sites were reduced.
pub fn reduce_powers(expr: Expr) -> (Expr, usize) {
    let count = std::cell::Cell::new(0usize);
    let out = expr.rewrite(&|e| match e {
        Expr::Bin(BinOp::Pow, a, b) => {
            if let Expr::Const(n) = *b {
                if n == 0.0 {
                    count.set(count.get() + 1);
                    return Expr::Const(1.0);
                }
                if n == 1.0 {
                    count.set(count.get() + 1);
                    return *a;
                }
                if n == 0.5 {
                    count.set(count.get() + 1);
                    return Expr::Un(UnOp::Sqrt, a);
                }
                if n == -0.5 {
                    count.set(count.get() + 1);
                    return Expr::bin(BinOp::Div, Expr::Const(1.0), Expr::Un(UnOp::Sqrt, a));
                }
                if n.fract() == 0.0 && n.abs() <= 8.0 {
                    count.set(count.get() + 1);
                    return Expr::Powi(a, n as i32);
                }
            }
            Expr::Bin(BinOp::Pow, a, b)
        }
        other => other,
    });
    (out, count.get())
}

/// Apply the reduction to every statement of every kernel in the program.
pub fn optimize_powers(sdfg: &mut Sdfg) -> Vec<Applied> {
    // Conservative cache invalidation: even a no-op application bumps
    // the generation (transforms run at build time, not per timestep).
    sdfg.touch();
    let mut out = Vec::new();
    for state in &mut sdfg.states {
        for node in &mut state.nodes {
            if let DataflowNode::Kernel(k) = node {
                let mut total = 0;
                for s in &mut k.stmts {
                    let expr = std::mem::replace(&mut s.expr, Expr::Const(0.0));
                    let (reduced, n) = reduce_powers(expr);
                    s.expr = reduced;
                    total += n;
                }
                if total > 0 {
                    out.push(Applied {
                        kind: "power",
                        labels: vec![k.name.clone()],
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{DataId, EvalCtx, LocalId, Offset3, ParamId};
    use crate::storage::Axis;

    struct C;
    impl EvalCtx for C {
        fn load(&self, d: DataId, _: Offset3) -> f64 {
            1.5 + d.0 as f64
        }
        fn local(&self, _: LocalId) -> f64 {
            0.0
        }
        fn param(&self, _: ParamId) -> f64 {
            0.1
        }
        fn index(&self, _: Axis) -> i64 {
            0
        }
    }

    fn pow(a: Expr, n: f64) -> Expr {
        Expr::bin(BinOp::Pow, a, Expr::Const(n))
    }

    #[test]
    fn smagorinsky_expression_fully_reduces() {
        // dt * (delpc**2 + vort**2) ** 0.5
        let delpc = Expr::load(DataId(0), 0, 0, 0);
        let vort = Expr::load(DataId(1), 0, 0, 0);
        let e = Expr::Param(ParamId(0)) * pow(pow(delpc, 2.0) + pow(vort, 2.0), 0.5);
        assert_eq!(e.transcendentals(), 3);
        let before = e.eval(&C);
        let (r, n) = reduce_powers(e);
        assert_eq!(n, 3);
        assert_eq!(r.transcendentals(), 0);
        let after = r.eval(&C);
        assert!((before - after).abs() < 1e-14);
    }

    #[test]
    fn negative_and_identity_exponents() {
        let x = Expr::load(DataId(0), 0, 0, 0); // 1.5
        let cases = [
            (pow(x.clone(), -2.0), 1.0 / 2.25),
            (pow(x.clone(), 1.0), 1.5),
            (pow(x.clone(), 0.0), 1.0),
            (pow(x.clone(), -0.5), 1.0 / 1.5f64.sqrt()),
        ];
        for (e, expect) in cases {
            let (r, n) = reduce_powers(e);
            assert!(n >= 1);
            assert_eq!(r.transcendentals(), 0);
            assert!((r.eval(&C) - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn non_constant_and_large_exponents_survive() {
        let x = Expr::load(DataId(0), 0, 0, 0);
        let (r1, n1) = reduce_powers(Expr::bin(
            BinOp::Pow,
            x.clone(),
            Expr::Param(ParamId(0)),
        ));
        assert_eq!(n1, 0);
        assert_eq!(r1.transcendentals(), 1);
        let (r2, n2) = reduce_powers(pow(x.clone(), 13.0));
        assert_eq!(n2, 0);
        assert_eq!(r2.transcendentals(), 1);
        let (r3, n3) = reduce_powers(pow(x, 2.5));
        assert_eq!(n3, 0);
        assert_eq!(r3.transcendentals(), 1);
    }

    #[test]
    fn nested_pows_all_reduced() {
        let x = Expr::load(DataId(0), 0, 0, 0);
        let e = pow(pow(x.clone(), 2.0), 3.0) + pow(x, 4.0);
        let before = e.eval(&C);
        let (r, n) = reduce_powers(e);
        assert_eq!(n, 3);
        assert!((r.eval(&C) - before).abs() < 1e-9);
    }
}
