//! The stencil definition IR — what a `@gtscript.stencil`-decorated
//! function becomes after parsing (Section III-A).
//!
//! A [`StencilDef`] declares fields (with access intents), scalar
//! parameters, and a sequence of computation blocks. Each block fixes the
//! vertical iteration policy (`PARALLEL`, `FORWARD`, `BACKWARD`) and a
//! pressure-level interval; statements are NumPy-esque assignments over
//! relative offsets, optionally restricted to horizontal regions
//! (Section IV-B). Field and parameter references inside expressions use
//! *stencil-local* indices; binding to program containers happens at
//! lowering time.

use dataflow::kernel::{AxisInterval, KOrder, Region2};
use dataflow::Expr;

/// How a stencil accesses a declared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Read-only input.
    In,
    /// Write-only output.
    Out,
    /// Read-modify-write.
    InOut,
    /// Stencil-internal temporary (a transient full field unless the
    /// optimizer demotes it).
    Temp,
}

/// A declared field.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub name: String,
    pub intent: Intent,
}

/// One assignment inside a computation block.
#[derive(Debug, Clone)]
pub struct StencilStmt {
    /// Stencil-local index of the written field.
    pub target: usize,
    /// Right-hand side; `Expr::Load(DataId(i), o)` reads stencil-local
    /// field `i` at offset `o`, `Expr::Param(ParamId(p))` reads
    /// stencil-local parameter `p`.
    pub expr: Expr,
    /// Optional horizontal region restriction.
    pub region: Option<Region2>,
}

/// A `with computation(...), interval(...)` block.
#[derive(Debug, Clone)]
pub struct Computation {
    pub order: KOrder,
    pub interval: AxisInterval,
    pub stmts: Vec<StencilStmt>,
}

/// A complete stencil definition.
#[derive(Debug, Clone)]
pub struct StencilDef {
    pub name: String,
    pub fields: Vec<FieldDecl>,
    pub params: Vec<String>,
    pub computations: Vec<Computation>,
}

impl StencilDef {
    /// Index of a field by name.
    #[cfg(test)]
    fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Index of a parameter by name.
    #[cfg(test)]
    fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p == name)
    }

    /// All statements in program order, with their computation context:
    /// `(computation index, statement)` pairs.
    pub fn all_stmts(&self) -> impl Iterator<Item = (usize, &StencilStmt)> {
        self.computations
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| c.stmts.iter().map(move |s| (ci, s)))
    }

    /// Total statement count (each is one stencil operation in the
    /// paper's terms).
    pub fn operation_count(&self) -> usize {
        self.computations.iter().map(|c| c.stmts.len()).sum()
    }

    /// Structural validation: targets in range, intents respected,
    /// temporaries written before read (in naive statement order), solver
    /// blocks only read self-written fields in the march direction.
    pub fn validate(&self) -> Result<(), String> {
        let nf = self.fields.len();
        let mut written = vec![false; nf];
        for (ci, c) in self.computations.iter().enumerate() {
            for (si, s) in c.stmts.iter().enumerate() {
                if s.target >= nf {
                    return Err(format!("{}: stmt {ci}.{si} targets unknown field", self.name));
                }
                let tf = &self.fields[s.target];
                if tf.intent == Intent::In {
                    return Err(format!(
                        "{}: stmt {ci}.{si} writes read-only field '{}'",
                        self.name, tf.name
                    ));
                }
                for (d, o) in s.expr.loads() {
                    if d.0 >= nf {
                        return Err(format!(
                            "{}: stmt {ci}.{si} reads unknown field index {}",
                            self.name, d.0
                        ));
                    }
                    let rf = &self.fields[d.0];
                    if rf.intent == Intent::Out && !written[d.0] {
                        return Err(format!(
                            "{}: stmt {ci}.{si} reads output '{}' before any write",
                            self.name, rf.name
                        ));
                    }
                    if rf.intent == Intent::Temp && !written[d.0] {
                        return Err(format!(
                            "{}: stmt {ci}.{si} reads temporary '{}' before definition",
                            self.name, rf.name
                        ));
                    }
                    // Vertical self-dependency direction check at the
                    // block level (the kernel-level validator re-checks
                    // after fusion decisions).
                    if d.0 == s.target {
                        match c.order {
                            KOrder::Parallel if o.k != 0 => {
                                return Err(format!(
                                    "{}: stmt {ci}.{si} has vertical self-dependency in \
                                     PARALLEL block",
                                    self.name
                                ));
                            }
                            KOrder::Forward if o.k > 0 => {
                                return Err(format!(
                                    "{}: stmt {ci}.{si} reads own output at k+{} in FORWARD",
                                    self.name, o.k
                                ));
                            }
                            KOrder::Backward if o.k < 0 => {
                                return Err(format!(
                                    "{}: stmt {ci}.{si} reads own output at k{} in BACKWARD",
                                    self.name, o.k
                                ));
                            }
                            _ => {}
                        }
                    }
                }
                written[s.target] = true;
            }
        }
        // Every Out field must be written somewhere.
        for (i, f) in self.fields.iter().enumerate() {
            if matches!(f.intent, Intent::Out | Intent::InOut) && f.intent == Intent::Out && !written[i]
            {
                return Err(format!("{}: output '{}' never written", self.name, f.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::{DataId, Expr};

    fn lap_def() -> StencilDef {
        StencilDef {
            name: "lap".into(),
            fields: vec![
                FieldDecl {
                    name: "inp".into(),
                    intent: Intent::In,
                },
                FieldDecl {
                    name: "out".into(),
                    intent: Intent::Out,
                },
            ],
            params: vec!["w".into()],
            computations: vec![Computation {
                order: KOrder::Parallel,
                interval: AxisInterval::FULL,
                stmts: vec![StencilStmt {
                    target: 1,
                    expr: Expr::load(DataId(0), -1, 0, 0) + Expr::load(DataId(0), 1, 0, 0),
                    region: None,
                }],
            }],
        }
    }

    #[test]
    fn valid_stencil_passes() {
        assert!(lap_def().validate().is_ok());
        assert_eq!(lap_def().operation_count(), 1);
        assert_eq!(lap_def().field_index("out"), Some(1));
        assert_eq!(lap_def().param_index("w"), Some(0));
    }

    #[test]
    fn writing_input_is_rejected() {
        let mut d = lap_def();
        d.computations[0].stmts[0].target = 0;
        assert!(d.validate().unwrap_err().contains("read-only"));
    }

    #[test]
    fn reading_undefined_temp_is_rejected() {
        let mut d = lap_def();
        d.fields.push(FieldDecl {
            name: "t".into(),
            intent: Intent::Temp,
        });
        d.computations[0].stmts[0].expr = Expr::load(DataId(2), 0, 0, 0);
        assert!(d.validate().unwrap_err().contains("before definition"));
    }

    #[test]
    fn vertical_self_dependency_in_parallel_rejected() {
        let mut d = lap_def();
        d.fields[1].intent = Intent::InOut;
        d.computations[0].stmts[0].expr = Expr::load(DataId(1), 0, 0, -1);
        assert!(d.validate().unwrap_err().contains("self-dependency"));
    }

    #[test]
    fn forward_may_read_k_minus_one_but_not_plus() {
        let mut d = lap_def();
        d.fields[1].intent = Intent::InOut;
        d.computations[0].order = KOrder::Forward;
        d.computations[0].stmts[0].expr = Expr::load(DataId(1), 0, 0, -1);
        assert!(d.validate().is_ok());
        d.computations[0].stmts[0].expr = Expr::load(DataId(1), 0, 0, 1);
        assert!(d.validate().is_err());
    }

    #[test]
    fn unwritten_output_rejected() {
        let mut d = lap_def();
        d.computations[0].stmts.clear();
        assert!(d.validate().unwrap_err().contains("never written"));
    }
}
