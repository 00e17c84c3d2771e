//! Optimization patterns: the transferable description of a winning
//! configuration.
//!
//! "Since stencils in FV3 are named, a configuration is therefore
//! sufficiently described by a set of labels of the candidates and which
//! transformations were applied."

/// The transformation a pattern applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// On-the-fly map fusion of a (producer, consumer) pair.
    Otf,
    /// Subgraph fusion of an adjacent pair.
    Sgf,
}

/// A transferable configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    pub kind: PatternKind,
    /// Labels of the kernels involved, in match order.
    pub labels: [String; 2],
    /// Modeled improvement (seconds) observed on the source cutout.
    pub gain: f64,
}

impl Pattern {
    /// Whether a (first, second) kernel-label pair matches this pattern.
    ///
    /// Fused kernel names accumulate separators (`a+b`, `a*b`); a label
    /// matches if its *first component* equals the pattern's (so a
    /// pattern learned on pristine kernels still matches partially-fused
    /// ones, the way the paper's motif matching is name-based).
    pub fn matches(&self, first: &str, second: &str) -> bool {
        base_label(first) == base_label(&self.labels[0])
            && base_label(second) == base_label(&self.labels[1])
    }
}

/// The leading component of a possibly-fused kernel name.
fn base_label(name: &str) -> &str {
    name.split(['+', '*']).next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(a: &str, b: &str) -> Pattern {
        Pattern {
            kind: PatternKind::Sgf,
            labels: [a.to_string(), b.to_string()],
            gain: 1.0,
        }
    }

    #[test]
    fn exact_labels_match() {
        let p = pat("scale#0", "shift#0");
        assert!(p.matches("scale#0", "shift#0"));
        assert!(!p.matches("shift#0", "scale#0"));
        assert!(!p.matches("scale#0", "other#0"));
    }

    #[test]
    fn fused_names_match_by_base_component() {
        let p = pat("a#0", "b#0");
        assert!(p.matches("a#0+c#0", "b#0"));
        assert!(p.matches("a#0*x#1", "b#0+d#2"));
        assert!(!p.matches("c#0+a#0", "b#0"));
    }

    #[test]
    fn base_label_extraction() {
        assert_eq!(base_label("k#3"), "k#3");
        assert_eq!(base_label("k#3+j#1"), "k#3");
        assert_eq!(base_label("p*q"), "p");
    }
}
