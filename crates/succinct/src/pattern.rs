//! Succinct patterns `Γ@{t1, …, tn} : t` (paper §3.3).

use insynth_intern::Symbol;

use crate::{EnvId, SuccinctTyId, TypeStore};

/// A succinct pattern `Γ@{t1, …, tn} : t`.
///
/// A pattern states that the types `t1 … tn` are inhabited in `Γ` and an
/// inhabitant of the base type `t` can be built from them in `Γ` (it
/// abstractly represents an application term). The set of all patterns is the
/// finite representation of *all* inhabitants from which the reconstruction
/// phase extracts concrete terms.
///
/// A pattern also keeps its `head`: the environment member `{t1, …, tn} → t`
/// that MATCH found and whose arguments it discharges. The head is always the
/// interned type of `args` and `ret`, so it determines the pattern within its
/// goal `(Γ, t)`; downstream phases read it instead of re-interning
/// `{args} → ret`.
///
/// # Example
///
/// ```
/// use insynth_succinct::{Pattern, SuccinctStore};
///
/// let mut s = SuccinctStore::new();
/// let int = s.mk_base("Int");
/// let string = s.base_symbol("String");
/// let env = s.mk_env(vec![int]);
/// let head = s.mk_ty(vec![int], string);
/// let p = Pattern::new(env, head, vec![int], string);
/// assert_eq!(p.render(&s), "{Int}@{Int} : String");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    /// The environment in which the pattern was derived.
    pub env: EnvId,
    /// The argument types (sorted, de-duplicated) that must be inhabited.
    pub args: Vec<SuccinctTyId>,
    /// The base type this pattern inhabits.
    pub ret: Symbol,
    /// The matched environment member `{args} → ret` (its interned id).
    pub head: SuccinctTyId,
}

impl Pattern {
    /// Creates a pattern, normalizing the argument set. `head` must be the
    /// interned type `{args} → ret`.
    pub fn new(env: EnvId, head: SuccinctTyId, mut args: Vec<SuccinctTyId>, ret: Symbol) -> Self {
        args.sort_unstable();
        args.dedup();
        Pattern {
            env,
            args,
            ret,
            head,
        }
    }

    /// Returns `true` if the pattern needs no arguments (a nullary witness).
    pub fn is_leaf(&self) -> bool {
        self.args.is_empty()
    }

    /// Renders the pattern as `Γ@{…} : t`.
    pub fn render<S: TypeStore>(&self, store: &S) -> String {
        let args: Vec<String> = self.args.iter().map(|&a| store.display_ty(a)).collect();
        format!(
            "{}@{{{}}} : {}",
            store.display_env(self.env),
            args.join(", "),
            store.base_name(self.ret)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuccinctStore;

    #[test]
    fn new_normalizes_argument_set() {
        let mut s = SuccinctStore::new();
        let a = s.mk_base("A");
        let b = s.mk_base("B");
        let r = s.base_symbol("R");
        let env = s.mk_env(vec![a, b]);
        let head = s.mk_ty(vec![a, b], r);
        let p1 = Pattern::new(env, head, vec![b, a, a], r);
        let p2 = Pattern::new(env, head, vec![a, b], r);
        assert_eq!(p1, p2);
    }

    #[test]
    fn leaf_patterns_have_no_arguments() {
        let mut s = SuccinctStore::new();
        let r = s.base_symbol("R");
        let env = s.empty_env();
        let head = s.mk_ty(vec![], r);
        assert!(Pattern::new(env, head, vec![], r).is_leaf());
    }

    #[test]
    fn render_shows_env_args_and_ret() {
        let mut s = SuccinctStore::new();
        let int = s.mk_base("Int");
        let string = s.base_symbol("String");
        let env = s.mk_env(vec![int]);
        let head = s.mk_ty(vec![int], string);
        let p = Pattern::new(env, head, vec![int], string);
        assert_eq!(p.render(&s), "{Int}@{Int} : String");
    }
}
