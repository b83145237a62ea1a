//! The reference reconstruction functions CL and RCN of Figure 4.
//!
//! These are direct, unoptimized transcriptions of the paper's specification:
//! `RCN(Γo, τ, d)` returns *every* term in long normal form of type τ up to
//! depth `d`. They are exponential and intended purely as the oracle against
//! which the production engine ([`crate::Session`]) is cross-checked in
//! the soundness/completeness tests (Theorem 3.3).

use std::collections::{HashMap, HashSet};

use insynth_intern::Symbol;
use insynth_lambda::{Param, Term, Ty};
use insynth_succinct::{EnvId, SuccinctStore, SuccinctTyId};

use crate::decl::{DeclKind, Declaration, TypeEnv};

/// A saturation-based derivability oracle for the succinct calculus `⊢c`.
struct DerivOracle {
    store: SuccinctStore,
    /// `(base type, environment)` pairs known to be inhabited.
    inhabited: HashSet<(Symbol, EnvId)>,
    /// Every environment reachable from the root by argument-set extension.
    envs: Vec<EnvId>,
}

impl DerivOracle {
    fn new(mut store: SuccinctStore, root: EnvId) -> Self {
        // Close the set of relevant environments under extension by the
        // argument sets of member types (and of their arguments, recursively).
        let mut envs = vec![root];
        let mut seen: HashSet<EnvId> = envs.iter().copied().collect();
        let mut cursor = 0;
        while cursor < envs.len() {
            let env = envs[cursor];
            cursor += 1;
            let members = store.env_types(env).to_vec();
            let mut arg_types: Vec<SuccinctTyId> = Vec::new();
            for m in members {
                arg_types.extend(store.args_of(m).iter().copied());
            }
            // Also close under the arguments of argument types (higher-order).
            let mut all_args = arg_types.clone();
            let mut i = 0;
            while i < all_args.len() {
                let t = all_args[i];
                i += 1;
                for &a in store.args_of(t) {
                    if !all_args.contains(&a) {
                        all_args.push(a);
                    }
                }
            }
            for t in all_args {
                let extension = store.args_of(t).to_vec();
                let extended = store.env_union(env, &extension);
                if seen.insert(extended) {
                    envs.push(extended);
                }
            }
        }

        let mut oracle = DerivOracle {
            store,
            inhabited: HashSet::new(),
            envs,
        };
        oracle.saturate();
        oracle
    }

    /// Iterates the APP rule of Figure 3 to a fixpoint over the closed set of
    /// environments.
    fn saturate(&mut self) {
        loop {
            let mut changed = false;
            for &env in &self.envs.clone() {
                let members = self.store.env_types(env).to_vec();
                for m in members {
                    let ret = self.store.ret_of(m);
                    if self.inhabited.contains(&(ret, env)) {
                        continue;
                    }
                    let args = self.store.args_of(m).to_vec();
                    let all_derivable = args.iter().all(|&a| self.derivable(env, a));
                    if all_derivable {
                        self.inhabited.insert((ret, env));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// `Γ ⊢c t`: the (possibly functional) succinct type `t` is derivable in
    /// `env` iff its return type is inhabited in `env ∪ A(t)`.
    fn derivable(&mut self, env: EnvId, ty: SuccinctTyId) -> bool {
        let args = self.store.args_of(ty).to_vec();
        let extended = self.store.env_union(env, &args);
        self.inhabited.contains(&(self.store.ret_of(ty), extended))
    }

    /// The CL function of Figure 4: every argument set `S1` of a member
    /// `S1 → t` of `env` whose members are all derivable in `env`.
    fn cl(&mut self, env: EnvId, ret: Symbol) -> Vec<Vec<SuccinctTyId>> {
        let members = self.store.env_types(env).to_vec();
        let mut out = Vec::new();
        for m in members {
            if self.store.ret_of(m) != ret {
                continue;
            }
            let args = self.store.args_of(m).to_vec();
            if args.iter().all(|&a| self.derivable(env, a)) {
                out.push(args);
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

/// The reference `RCN(Γo, τ, d)`: all terms in long normal form of type `goal`
/// and depth at most `depth`, derived exactly as specified in Figure 4.
///
/// The output is de-duplicated and sorted by rendering, so that it can be
/// compared set-wise against the engine's output in tests.
///
/// # Example
///
/// ```
/// use insynth_core::{rcn, Declaration, DeclKind, TypeEnv};
/// use insynth_lambda::Ty;
///
/// let env: TypeEnv = vec![
///     Declaration::simple("a", Ty::base("A"), DeclKind::Local),
///     Declaration::simple("s", Ty::fun(vec![Ty::base("A")], Ty::base("A")), DeclKind::Local),
/// ]
/// .into_iter()
/// .collect();
/// let terms = rcn(&env, &Ty::base("A"), 2);
/// let rendered: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
/// assert_eq!(rendered, vec!["a", "s(a)"]);
/// ```
pub fn rcn(env: &TypeEnv, goal: &Ty, depth: usize) -> Vec<Term> {
    let mut counter = 0usize;
    let mut terms = rcn_rec(env.clone(), goal, depth, &mut counter);
    terms.sort_by_key(Term::to_string);
    terms.dedup();
    terms
}

/// Reference inhabitation check: is there *any* term of type `goal` under
/// `env`? Decided by saturating the succinct calculus, independently of the
/// engine's exploration phase.
pub fn is_inhabited_ref(env: &TypeEnv, goal: &Ty) -> bool {
    let mut store = SuccinctStore::new();
    let decl_succ: Vec<SuccinctTyId> = env.iter().map(|d| store.sigma(&d.ty)).collect();
    let root = store.mk_env(decl_succ);
    let goal_succ = store.sigma(goal);
    let goal_args = store.args_of(goal_succ).to_vec();
    let extended = store.env_union(root, &goal_args);
    let goal_ret = store.ret_of(goal_succ);
    let oracle = DerivOracle::new(store, extended);
    oracle.inhabited.contains(&(goal_ret, extended))
}

fn rcn_rec(env: TypeEnv, goal: &Ty, depth: usize, counter: &mut usize) -> Vec<Term> {
    if depth == 0 {
        return Vec::new();
    }

    let (arg_tys, _) = goal.uncurry();
    // Fresh binders x1 : τ1 … xn : τn.
    let binders: Vec<Param> = arg_tys
        .iter()
        .map(|t| {
            *counter += 1;
            Param::new(format!("x{counter}"), (*t).clone())
        })
        .collect();

    // Γ'o := Γo ∪ {x1 : τ1, …, xn : τn}
    let mut extended = env;
    for b in &binders {
        extended.push(Declaration::new(
            b.name.clone(),
            b.ty.clone(),
            DeclKind::Lambda,
        ));
    }

    // Build the succinct view of Γ'o and query CL for the goal's return type.
    let mut store = SuccinctStore::new();
    let decl_succ: Vec<SuccinctTyId> = extended.iter().map(|d| store.sigma(&d.ty)).collect();
    let succ_env = store.mk_env(decl_succ.clone());
    let goal_ret_name = goal.result_base().to_owned();
    let goal_ret = store.base_symbol(&goal_ret_name);
    let mut oracle = DerivOracle::new(store, succ_env);
    let arg_sets = oracle.cl(succ_env, goal_ret);

    // Select declarations matching each pattern and recurse on their argument
    // types.
    let mut by_succ: HashMap<SuccinctTyId, Vec<usize>> = HashMap::new();
    for (idx, d) in extended.iter().enumerate() {
        let s = oracle.store.sigma(&d.ty);
        by_succ.entry(s).or_default().push(idx);
    }

    let mut terms = Vec::new();
    for args_set in arg_sets {
        let wanted = oracle.store.mk_ty(args_set, goal_ret);
        let Some(decl_indices) = by_succ.get(&wanted) else {
            continue;
        };
        for &idx in decl_indices {
            let decl = extended.decls()[idx].clone();
            let (rho, _) = decl.ty.uncurry();
            if rho.is_empty() {
                terms.push(Term {
                    params: binders.clone(),
                    head: decl.name.clone(),
                    args: Vec::new(),
                });
                continue;
            }
            // Cartesian product of the sub-term sets T1 × … × Tm.
            let sub_sets: Vec<Vec<Term>> = rho
                .iter()
                .map(|r| rcn_rec(extended.clone(), r, depth - 1, counter))
                .collect();
            if sub_sets.iter().any(Vec::is_empty) {
                continue;
            }
            for combo in cartesian(&sub_sets) {
                terms.push(Term {
                    params: binders.clone(),
                    head: decl.name.clone(),
                    args: combo,
                });
            }
        }
    }
    terms
}

fn cartesian(sets: &[Vec<Term>]) -> Vec<Vec<Term>> {
    let mut out: Vec<Vec<Term>> = vec![Vec::new()];
    for set in sets {
        let mut next = Vec::with_capacity(out.len() * set.len());
        for prefix in &out {
            for item in set {
                let mut extended = prefix.clone();
                extended.push(item.clone());
                next.push(extended);
            }
        }
        out = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_lambda::check;

    fn env(decls: Vec<(&str, Ty)>) -> TypeEnv {
        decls
            .into_iter()
            .map(|(n, t)| Declaration::new(n, t, DeclKind::Local))
            .collect()
    }

    #[test]
    fn depth_zero_returns_nothing() {
        let e = env(vec![("a", Ty::base("A"))]);
        assert!(rcn(&e, &Ty::base("A"), 0).is_empty());
    }

    #[test]
    fn depth_one_returns_only_variables() {
        let e = env(vec![
            ("a", Ty::base("A")),
            ("s", Ty::fun(vec![Ty::base("A")], Ty::base("A"))),
        ]);
        let terms = rcn(&e, &Ty::base("A"), 1);
        let rendered: Vec<String> = terms.iter().map(Term::to_string).collect();
        assert_eq!(rendered, vec!["a"]);
    }

    #[test]
    fn enumerates_all_terms_up_to_depth() {
        let e = env(vec![
            ("a", Ty::base("A")),
            ("s", Ty::fun(vec![Ty::base("A")], Ty::base("A"))),
        ]);
        let terms = rcn(&e, &Ty::base("A"), 3);
        let rendered: HashSet<String> = terms.iter().map(Term::to_string).collect();
        assert_eq!(
            rendered,
            HashSet::from(["a".to_owned(), "s(a)".to_owned(), "s(s(a))".to_owned()])
        );
    }

    #[test]
    fn every_returned_term_type_checks() {
        let e = env(vec![
            ("x", Ty::base("Int")),
            (
                "plus",
                Ty::fun(vec![Ty::base("Int"), Ty::base("Int")], Ty::base("Int")),
            ),
        ]);
        let goal = Ty::base("Int");
        let bindings = e.to_bindings();
        for t in rcn(&e, &goal, 3) {
            check(&bindings, &t, &goal).expect("RCN output must type check");
        }
    }

    #[test]
    fn functional_goal_produces_long_normal_form_lambdas() {
        let e = env(vec![(
            "p",
            Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")),
        )]);
        let goal = Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean"));
        let terms = rcn(&e, &goal, 2);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].params.len(), 1);
        assert_eq!(terms[0].head, "p");
        let bindings = e.to_bindings();
        assert!(insynth_lambda::is_long_normal_form(
            &bindings, &terms[0], &goal
        ));
    }

    #[test]
    fn inhabitation_oracle_agrees_with_enumerability() {
        let inhabited = env(vec![
            ("b", Ty::base("B")),
            ("f", Ty::fun(vec![Ty::base("B")], Ty::base("A"))),
        ]);
        assert!(is_inhabited_ref(&inhabited, &Ty::base("A")));
        let uninhabited = env(vec![("f", Ty::fun(vec![Ty::base("B")], Ty::base("A")))]);
        assert!(!is_inhabited_ref(&uninhabited, &Ty::base("A")));
    }

    #[test]
    fn higher_order_goal_inhabitation_uses_the_extended_environment() {
        // Goal (A -> B) -> B with a : A — inhabited by λf. f(a)… wait, that
        // needs `a`; with only the binder f : A -> B and a : A it is inhabited.
        let e = env(vec![("a", Ty::base("A"))]);
        let goal = Ty::fun(
            vec![Ty::fun(vec![Ty::base("A")], Ty::base("B"))],
            Ty::base("B"),
        );
        assert!(is_inhabited_ref(&e, &goal));
        let terms = rcn(&e, &goal, 3);
        assert!(!terms.is_empty());
        let bindings = e.to_bindings();
        for t in &terms {
            check(&bindings, t, &goal).expect("must type check");
        }
    }

    #[test]
    fn uninhabited_empty_environment() {
        let e = TypeEnv::new();
        assert!(!is_inhabited_ref(&e, &Ty::base("A")));
        assert!(rcn(&e, &Ty::base("A"), 5).is_empty());
    }
}
