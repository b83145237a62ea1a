//! The pattern generation phase (Figures 8 and 9).
//!
//! Starting from the reachability terms discovered by exploration, the phase
//! repeatedly applies TRANSFER (an argument type is discharged once it is
//! known to be inhabited) and PROD (a fully discharged term produces a
//! pattern). Two implementations are provided:
//!
//! * [`generate_patterns`] — the production implementation, using the
//!   "backward map" optimization of §5.7: every pending argument registers a
//!   waiter keyed by the (return type, extended environment) pair that would
//!   discharge it, so completing a term notifies exactly the terms that can
//!   make progress.
//! * [`generate_patterns_naive`] — a direct saturation of the PROD/TRANSFER
//!   rules, used by tests to cross-check the optimized version.

use insynth_intern::{IdHashMap, Symbol};
use insynth_succinct::{
    prod_rule, transfer_rule, EnvId, Pattern, PatternIndex, ReachabilityTerm, ScratchStore,
    TypeStore,
};

use crate::explore::SearchSpace;

/// The output of the pattern generation phase: a [`PatternIndex`] from
/// `(environment, return type)` goals to the patterns that inhabit them.
///
/// The derivation graph of the reconstruction pipeline is built directly from
/// the index (see [`DerivationGraph::build`](crate::DerivationGraph::build));
/// the thin wrapper here exists so the pattern phase can evolve its
/// bookkeeping without leaking `insynth_succinct` internals into every
/// consumer.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    index: PatternIndex,
}

impl PatternSet {
    /// The underlying goal-indexed pattern table.
    pub fn index(&self) -> &PatternIndex {
        &self.index
    }

    /// All patterns, in derivation order.
    pub fn patterns(&self) -> &[Pattern] {
        self.index.patterns()
    }

    /// Number of patterns derived.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no pattern was derived.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The patterns usable to fill a hole of base type `ret` in environment
    /// `env` (the lookup performed by GenerateT, Figure 10).
    pub fn lookup(&self, env: EnvId, ret: Symbol) -> impl Iterator<Item = &Pattern> {
        self.index.lookup(env, ret)
    }

    /// Returns `true` if base type `ret` is known to be inhabited in `env`.
    pub fn is_inhabited(&self, ret: Symbol, env: EnvId) -> bool {
        self.index.is_inhabited(ret, env)
    }

    /// All `(base type, environment)` pairs known to be inhabited.
    pub fn inhabited_pairs(&self) -> impl Iterator<Item = (Symbol, EnvId)> + '_ {
        self.index.inhabited_pairs()
    }

    fn insert(&mut self, pattern: Pattern) -> bool {
        self.index.insert(pattern)
    }
}

/// Generates the pattern set from an explored search space using the backward
/// waiter map of §5.7.
///
/// # Example
///
/// ```
/// use insynth_core::{explore, generate_patterns, Declaration, DeclKind, ExploreLimits, PreparedEnv, TypeEnv, WeightConfig};
/// use insynth_lambda::Ty;
/// use insynth_succinct::TypeStore;
///
/// let env: TypeEnv = vec![
///     Declaration::simple("a", Ty::base("Int"), DeclKind::Local),
///     Declaration::simple(
///         "f",
///         Ty::fun(vec![Ty::base("Int"), Ty::base("Int"), Ty::base("Int")], Ty::base("String")),
///         DeclKind::Imported,
///     ),
/// ]
/// .into_iter()
/// .collect();
/// let prepared = PreparedEnv::prepare(&env, &WeightConfig::default());
/// let mut store = prepared.scratch();
/// let goal = store.sigma(&Ty::base("String"));
/// let space = explore(&prepared, &mut store, goal, &ExploreLimits::default());
/// let patterns = generate_patterns(&mut store, &space);
/// assert_eq!(patterns.len(), 2); // Γ@{} : Int and Γ@{Int} : String
/// ```
pub fn generate_patterns(store: &mut ScratchStore<'_>, space: &SearchSpace) -> PatternSet {
    let terms = &space.terms;

    // For each pending argument of each term, the (ret, env) key that will
    // discharge it once inhabited.
    let mut waiters: IdHashMap<(Symbol, EnvId), Vec<usize>> = IdHashMap::default();
    let mut remaining: Vec<usize> = Vec::with_capacity(terms.len());
    let mut worklist: Vec<usize> = Vec::new();

    for (idx, term) in terms.iter().enumerate() {
        remaining.push(term.remaining.len());
        if term.remaining.is_empty() {
            worklist.push(idx);
            continue;
        }
        for &arg in &term.remaining {
            let arg_args = store.args_of(arg).to_vec();
            let extended = store.env_union(term.env, &arg_args);
            let key = (store.ret_of(arg), extended);
            waiters.entry(key).or_default().push(idx);
        }
    }

    let mut set = PatternSet::default();
    let mut produced: Vec<bool> = vec![false; terms.len()];

    while let Some(idx) = worklist.pop() {
        if produced[idx] {
            continue;
        }
        produced[idx] = true;
        let term = &terms[idx];
        let key = (term.ret, term.env);
        let newly_inhabited = !set.is_inhabited(term.ret, term.env);
        set.insert(completed_pattern(store, term));

        if newly_inhabited {
            if let Some(waiting) = waiters.get(&key) {
                for &j in waiting {
                    remaining[j] -= 1;
                    if remaining[j] == 0 {
                        worklist.push(j);
                    }
                }
            }
        }
    }

    set
}

/// A direct saturation of the PROD / TRANSFER rules of Figure 8, without the
/// backward map. Quadratic; intended for cross-checking on small inputs.
pub fn generate_patterns_naive(store: &mut ScratchStore<'_>, space: &SearchSpace) -> PatternSet {
    let mut terms: Vec<ReachabilityTerm> = space.terms.clone();
    let mut set = PatternSet::default();

    loop {
        let mut changed = false;

        // PROD on every fully-witnessed term.
        let leaves: Vec<(Symbol, EnvId)> = terms
            .iter()
            .filter(|t| t.is_leaf())
            .map(|t| {
                if set.insert(prod_rule(t)) {
                    changed = true;
                }
                (t.ret, t.env)
            })
            .collect();

        // TRANSFER every pending argument that some leaf witnesses.
        let mut next: Vec<ReachabilityTerm> = Vec::with_capacity(terms.len());
        for term in &terms {
            if term.is_leaf() {
                next.push(term.clone());
                continue;
            }
            let mut current = term.clone();
            for &(leaf_ret, leaf_env) in &leaves {
                let args: Vec<_> = current.remaining.clone();
                for arg in args {
                    if let Some(new_term) = transfer_rule(store, &current, arg, leaf_ret, leaf_env)
                    {
                        current = new_term;
                        changed = true;
                    }
                }
            }
            next.push(current);
        }
        terms = next;

        if !changed {
            break;
        }
    }

    set
}

fn completed_pattern<S: TypeStore>(store: &S, term: &ReachabilityTerm) -> Pattern {
    // A completed term's Π is the full argument set of its matched member.
    Pattern::new(
        term.env,
        term.decl_ty,
        store.args_of(term.decl_ty).to_vec(),
        term.ret,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration, TypeEnv};
    use crate::explore::{explore, ExploreLimits};
    use crate::prepare::PreparedEnv;
    use crate::weights::WeightConfig;
    use insynth_lambda::Ty;
    use std::collections::HashSet;

    /// Prepares the environment, explores towards `goal` and hands the
    /// prepared environment, the query-local store and both pattern sets to
    /// the assertion closure.
    fn run_with<R>(
        decls: Vec<Declaration>,
        goal: Ty,
        f: impl FnOnce(&PreparedEnv, &mut ScratchStore<'_>, PatternSet, PatternSet) -> R,
    ) -> R {
        let env: TypeEnv = decls.into_iter().collect();
        let prepared = PreparedEnv::prepare(&env, &WeightConfig::default());
        let mut store = prepared.scratch();
        let goal = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal, &ExploreLimits::default());
        let fast = generate_patterns(&mut store, &space);
        let naive = generate_patterns_naive(&mut store, &space);
        for pattern in fast.patterns().iter().chain(naive.patterns()) {
            assert_head_is_interned_args_and_ret(&mut store, pattern);
        }
        f(&prepared, &mut store, fast, naive)
    }

    /// A pattern's head is the interned `{args} → ret`, found without
    /// interning anything new.
    fn assert_head_is_interned_args_and_ret(store: &mut ScratchStore<'_>, pattern: &Pattern) {
        let before = store.ty_count();
        let looked_up = store.mk_ty(pattern.args.clone(), pattern.ret);
        assert_eq!(store.ty_count(), before, "{{args}} -> ret was not interned");
        assert_eq!(pattern.head, looked_up);
    }

    fn as_set(p: &PatternSet) -> HashSet<Pattern> {
        p.patterns().iter().cloned().collect()
    }

    #[test]
    fn paper_example_produces_both_patterns() {
        run_with(
            vec![
                Declaration::new("a", Ty::base("Int"), DeclKind::Local),
                Declaration::new(
                    "f",
                    Ty::fun(
                        vec![Ty::base("Int"), Ty::base("Int"), Ty::base("Int")],
                        Ty::base("String"),
                    ),
                    DeclKind::Imported,
                ),
            ],
            Ty::base("String"),
            |_, store, fast, _| {
                let rendered: HashSet<String> =
                    fast.patterns().iter().map(|p| p.render(store)).collect();
                assert!(rendered.contains("{Int, {Int} -> String}@{} : Int"));
                assert!(rendered.contains("{Int, {Int} -> String}@{Int} : String"));
                assert_eq!(fast.len(), 2);
            },
        )
    }

    #[test]
    fn optimized_and_naive_agree_on_simple_chains() {
        run_with(
            vec![
                Declaration::new("c", Ty::base("C"), DeclKind::Local),
                Declaration::new(
                    "g",
                    Ty::fun(vec![Ty::base("C")], Ty::base("B")),
                    DeclKind::Local,
                ),
                Declaration::new(
                    "f",
                    Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("A"),
            |_, _, fast, naive| {
                assert_eq!(as_set(&fast), as_set(&naive));
                assert_eq!(fast.len(), 3);
            },
        )
    }

    #[test]
    fn optimized_and_naive_agree_with_higher_order_arguments() {
        run_with(
            vec![
                Declaration::new(
                    "traverser",
                    Ty::fun(
                        vec![Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean"))],
                        Ty::base("Traverser"),
                    ),
                    DeclKind::Imported,
                ),
                Declaration::new(
                    "p",
                    Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("Traverser"),
            |_, _, fast, naive| {
                assert_eq!(as_set(&fast), as_set(&naive));
                // Traverser pattern + Boolean pattern in the Tree-extended environment.
                assert!(fast.len() >= 2);
            },
        )
    }

    #[test]
    fn uninhabited_goal_produces_no_goal_pattern() {
        // f : B -> A but B has no inhabitant: no pattern for A may be derived.
        run_with(
            vec![Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            )],
            Ty::base("A"),
            |prepared, store, fast, naive| {
                let a = store.base_symbol("A");
                assert!(!fast.is_inhabited(a, prepared.init_env));
                assert!(fast.is_empty());
                assert!(naive.is_empty());
            },
        )
    }

    #[test]
    fn recursive_types_reach_a_fixpoint() {
        run_with(
            vec![
                Declaration::new(
                    "f",
                    Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                    DeclKind::Local,
                ),
                Declaration::new("a", Ty::base("A"), DeclKind::Local),
            ],
            Ty::base("A"),
            |_, _, fast, naive| {
                assert_eq!(as_set(&fast), as_set(&naive));
                // Γ@{} : A (from a) and Γ@{A} : A (from f).
                assert_eq!(fast.len(), 2);
            },
        )
    }

    #[test]
    fn lookup_finds_patterns_by_environment_and_return_type() {
        run_with(
            vec![
                Declaration::new("a", Ty::base("Int"), DeclKind::Local),
                Declaration::new(
                    "f",
                    Ty::fun(vec![Ty::base("Int")], Ty::base("String")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("String"),
            |prepared, store, fast, _| {
                let string = store.base_symbol("String");
                let found: Vec<_> = fast.lookup(prepared.init_env, string).collect();
                assert_eq!(found.len(), 1);
                assert_eq!(found[0].args.len(), 1);
            },
        )
    }
}
