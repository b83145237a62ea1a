//! The weight function of §4 and Table 1.
//!
//! Weights steer the backward search (requests are processed cheapest-first)
//! and rank the reconstructed snippets (lowest total weight first). A
//! declaration's weight combines lexical proximity (Table 1's constants) with
//! corpus frequency for imported symbols.

use std::cmp::Ordering;

use crate::decl::{DeclKind, Declaration};

/// A totally ordered `f64` wrapper so weights can key priority queues.
///
/// # Example
///
/// ```
/// use insynth_core::Weight;
/// assert!(Weight::new(1.0) < Weight::new(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weight(f64);

impl Weight {
    /// Wraps a raw weight value.
    ///
    /// # Panics
    ///
    /// Panics if the value is NaN.
    pub fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "weights must not be NaN");
        Weight(value)
    }

    /// The weight used when no declaration produces a type (effectively
    /// "unreachable, explore last").
    pub const UNKNOWN: Weight = Weight(1.0e9);

    /// Zero weight (holes in partial expressions weigh nothing, §5.5).
    pub const ZERO: Weight = Weight(0.0);

    /// Positive infinity: the completion bound of an uninhabited goal. No
    /// finite term can ever reach it, so `INFINITY` both marks dead holes and
    /// absorbs sums (`x.plus(INFINITY) == INFINITY`).
    pub const INFINITY: Weight = Weight(f64::INFINITY);

    /// The underlying value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Weight addition.
    pub fn plus(self, other: Weight) -> Weight {
        Weight(self.0 + other.0)
    }

    /// Returns `true` for weights ≥ 0.
    ///
    /// All of Table 1 is non-negative, but [`Declaration::with_weight`]
    /// overrides are unrestricted. The derivation graph's completion bounds
    /// (the A* heuristic) are admissible only when every weight a search
    /// step can add is non-negative, so the graph checks this once at build
    /// time and walks in plain best-first order otherwise.
    ///
    /// [`Declaration::with_weight`]: crate::Declaration::with_weight
    pub fn is_non_negative(self) -> bool {
        self.0 >= 0.0
    }

    /// Returns `true` unless the weight is [`Weight::INFINITY`] (or negative
    /// infinity, which no configuration produces).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The constants of Table 1.
///
/// The paper reports that result quality "is not highly sensitive to the
/// precise values"; they are nevertheless configurable for the ablation
/// benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightTable {
    /// Weight of a lambda binder occurrence.
    pub lambda: f64,
    /// Weight of a local (same-method) declaration.
    pub local: f64,
    /// Weight of a subtyping coercion function.
    pub coercion: f64,
    /// Weight of a member of the enclosing class.
    pub class_member: f64,
    /// Weight of a member of the enclosing package.
    pub package: f64,
    /// Weight of a literal placeholder.
    pub literal: f64,
    /// Base weight of an imported symbol.
    pub imported_base: f64,
    /// Scale of the frequency-dependent part of an imported symbol's weight:
    /// `imported_base + imported_scale / (1 + f(x))`.
    pub imported_scale: f64,
}

impl Default for WeightTable {
    fn default() -> Self {
        WeightTable {
            lambda: 1.0,
            local: 5.0,
            coercion: 10.0,
            class_member: 20.0,
            package: 25.0,
            literal: 200.0,
            imported_base: 215.0,
            imported_scale: 785.0,
        }
    }
}

/// Which variant of the weight function to use — the three columns groups of
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightMode {
    /// All declarations weigh the same; the search degenerates to (roughly)
    /// breadth-first enumeration by size. Table 2 column group "No weights".
    NoWeights,
    /// Table 1 proximity weights but no corpus: every imported symbol is
    /// treated as having frequency 0. Column group "No corpus".
    NoCorpus,
    /// Full weights: proximity plus corpus frequencies. Column group "All".
    Full,
}

/// The weight function `w`: configuration plus evaluation helpers.
///
/// # Example
///
/// ```
/// use insynth_core::{Declaration, DeclKind, WeightConfig, WeightMode};
/// use insynth_lambda::Ty;
///
/// let w = WeightConfig::new(WeightMode::Full);
/// let frequent = Declaration::simple("println", Ty::base("Unit"), DeclKind::Imported)
///     .with_frequency(5000);
/// let rare = Declaration::simple("obscure", Ty::base("Unit"), DeclKind::Imported)
///     .with_frequency(0);
/// assert!(w.declaration_weight(&frequent) < w.declaration_weight(&rare));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightConfig {
    /// Which variant is active.
    pub mode: WeightMode,
    /// The Table 1 constants.
    pub table: WeightTable,
}

impl Default for WeightConfig {
    fn default() -> Self {
        WeightConfig {
            mode: WeightMode::Full,
            table: WeightTable::default(),
        }
    }
}

impl WeightConfig {
    /// Creates a configuration with the default Table 1 constants.
    pub fn new(mode: WeightMode) -> Self {
        WeightConfig {
            mode,
            table: WeightTable::default(),
        }
    }

    /// The weight of a single declaration.
    ///
    /// In [`WeightMode::NoWeights`] every declaration weighs 1. Otherwise the
    /// Table 1 constant for its kind applies; imported symbols additionally
    /// get the frequency-dependent term (with frequency clamped to 0 in
    /// [`WeightMode::NoCorpus`]). An explicit
    /// [`Declaration::with_weight`] override always wins.
    pub fn declaration_weight(&self, decl: &Declaration) -> Weight {
        if let Some(w) = decl.weight_override {
            return Weight::new(w);
        }
        if self.mode == WeightMode::NoWeights {
            return Weight::new(1.0);
        }
        let t = &self.table;
        let w = match decl.kind {
            DeclKind::Lambda => t.lambda,
            DeclKind::Local => t.local,
            DeclKind::Coercion => t.coercion,
            DeclKind::Class => t.class_member,
            DeclKind::Package => t.package,
            DeclKind::Literal => t.literal,
            DeclKind::Imported => {
                let f = match self.mode {
                    WeightMode::Full => decl.frequency.unwrap_or(0) as f64,
                    _ => 0.0,
                };
                t.imported_base + t.imported_scale / (1.0 + f)
            }
        };
        Weight::new(w)
    }

    /// Weight of introducing one lambda binder.
    pub fn lambda_weight(&self) -> Weight {
        if self.mode == WeightMode::NoWeights {
            Weight::new(1.0)
        } else {
            Weight::new(self.table.lambda)
        }
    }

    /// Weight of a whole term given a resolver from head symbols to their
    /// declaration weights: the sum of the weights of every binder and every
    /// head occurrence (the formula of §4).
    pub fn term_weight(
        &self,
        term: &insynth_lambda::Term,
        head_weight: &dyn Fn(&str) -> Weight,
    ) -> Weight {
        let binders = Weight::new(self.lambda_weight().value() * term.params.len() as f64);
        let head = head_weight(&term.head);
        let args = term
            .args
            .iter()
            .map(|a| self.term_weight(a, head_weight))
            .fold(Weight::ZERO, Weight::plus);
        binders.plus(head).plus(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_lambda::{Param, Term, Ty};

    #[test]
    fn table1_constants_match_the_paper() {
        let t = WeightTable::default();
        assert_eq!(t.lambda, 1.0);
        assert_eq!(t.local, 5.0);
        assert_eq!(t.coercion, 10.0);
        assert_eq!(t.class_member, 20.0);
        assert_eq!(t.package, 25.0);
        assert_eq!(t.literal, 200.0);
        assert_eq!(t.imported_base, 215.0);
        assert_eq!(t.imported_scale, 785.0);
    }

    #[test]
    fn proximity_ordering_holds() {
        let w = WeightConfig::default();
        let mk = |kind| Declaration::new("d", Ty::base("T"), kind);
        assert!(
            w.declaration_weight(&mk(DeclKind::Lambda))
                < w.declaration_weight(&mk(DeclKind::Local))
        );
        assert!(
            w.declaration_weight(&mk(DeclKind::Local))
                < w.declaration_weight(&mk(DeclKind::Coercion))
        );
        assert!(
            w.declaration_weight(&mk(DeclKind::Coercion))
                < w.declaration_weight(&mk(DeclKind::Class))
        );
        assert!(
            w.declaration_weight(&mk(DeclKind::Class))
                < w.declaration_weight(&mk(DeclKind::Package))
        );
        assert!(
            w.declaration_weight(&mk(DeclKind::Package))
                < w.declaration_weight(&mk(DeclKind::Literal))
        );
        assert!(
            w.declaration_weight(&mk(DeclKind::Literal))
                < w.declaration_weight(&mk(DeclKind::Imported))
        );
    }

    #[test]
    fn frequency_reduces_imported_weight_in_full_mode() {
        let w = WeightConfig::new(WeightMode::Full);
        let rare = Declaration::new("r", Ty::base("T"), DeclKind::Imported).with_frequency(0);
        let common = Declaration::new("c", Ty::base("T"), DeclKind::Imported).with_frequency(5162);
        assert_eq!(w.declaration_weight(&rare).value(), 1000.0);
        assert!(w.declaration_weight(&common).value() < 216.0);
    }

    #[test]
    fn no_corpus_ignores_frequency() {
        let w = WeightConfig::new(WeightMode::NoCorpus);
        let a = Declaration::new("a", Ty::base("T"), DeclKind::Imported).with_frequency(5000);
        let b = Declaration::new("b", Ty::base("T"), DeclKind::Imported);
        assert_eq!(w.declaration_weight(&a), w.declaration_weight(&b));
    }

    #[test]
    fn no_weights_makes_everything_cost_one() {
        let w = WeightConfig::new(WeightMode::NoWeights);
        let a = Declaration::new("a", Ty::base("T"), DeclKind::Local);
        let b = Declaration::new("b", Ty::base("T"), DeclKind::Imported).with_frequency(9);
        assert_eq!(w.declaration_weight(&a).value(), 1.0);
        assert_eq!(w.declaration_weight(&b).value(), 1.0);
    }

    #[test]
    fn weight_override_wins() {
        let w = WeightConfig::default();
        let d = Declaration::new("d", Ty::base("T"), DeclKind::Imported).with_weight(2.5);
        assert_eq!(w.declaration_weight(&d).value(), 2.5);
    }

    #[test]
    fn term_weight_sums_binders_heads_and_arguments() {
        // var1 => p(var1): 1 (binder) + 5 (p local) + 1 (var1 binder use as lambda) = 7
        let w = WeightConfig::default();
        let term = Term::lambda(
            vec![Param::new("var1", Ty::base("Tree"))],
            Term::app("p", vec![Term::var("var1")]),
        );
        let total = w.term_weight(&term, &|h| {
            if h == "p" {
                Weight::new(5.0)
            } else {
                Weight::new(1.0)
            }
        });
        assert_eq!(total.value(), 7.0);
    }

    #[test]
    fn weight_ordering_is_total() {
        let mut v = vec![Weight::new(3.0), Weight::new(1.0), Weight::new(2.0)];
        v.sort();
        assert_eq!(
            v,
            vec![Weight::new(1.0), Weight::new(2.0), Weight::new(3.0)]
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_weights_are_rejected() {
        Weight::new(f64::NAN);
    }

    #[test]
    fn non_negativity_check_classifies_weights() {
        assert!(Weight::ZERO.is_non_negative());
        assert!(Weight::new(5.0).is_non_negative());
        assert!(!Weight::new(-1.0).is_non_negative());
    }

    #[test]
    fn infinity_absorbs_sums_and_compares_above_everything() {
        assert!(!Weight::INFINITY.is_finite());
        assert!(Weight::new(1.0e12).is_finite());
        assert_eq!(Weight::INFINITY.plus(Weight::new(3.0)), Weight::INFINITY);
        assert!(Weight::UNKNOWN < Weight::INFINITY);
        assert!(Weight::INFINITY.is_non_negative());
    }
}
