//! The succinct calculus rules as pure functions.
//!
//! These implement, rule by rule, Figures 6 (MATCH / PROP / STRIP — the type
//! reachability rules used by the exploration phase) and 8 (PROD / TRANSFER —
//! the pattern synthesis rules). The synthesis engine drives them with
//! worklists and priority queues; keeping them as standalone functions lets
//! tests exercise each rule in isolation and lets a naive reference engine be
//! cross-checked against the optimized one.

use insynth_intern::Symbol;

use crate::{EnvId, Pattern, SuccinctTyId, TypeStore};

/// A reachability request `t ;Γ ?`: "which types are reachable from `t` in Γ?"
///
/// The type `t` may still be a function type; [`strip_rule`] normalizes the
/// request so that the target is a base type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request {
    /// The (possibly functional) succinct type being queried.
    pub ty: SuccinctTyId,
    /// The environment of the query.
    pub env: EnvId,
}

/// A request whose target has been stripped to a base type by the STRIP rule:
/// `v ;Γ∪S ?`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BaseRequest {
    /// The base return type being queried.
    pub ret: Symbol,
    /// The (possibly extended) environment of the query.
    pub env: EnvId,
}

/// A reachability term `t ;Γ (S, Π)` (paper §5.3).
///
/// It records that the declaration type `decl_ty = S∪Π → t` is a member of Γ
/// whose return type matches the query; `remaining` are the argument types not
/// yet known to be inhabited and `witnessed` (Π) the ones already discharged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReachabilityTerm {
    /// The base type this term can produce.
    pub ret: Symbol,
    /// The environment in which the match happened (already extended by STRIP).
    pub env: EnvId,
    /// The environment member `S → t` that matched.
    pub decl_ty: SuccinctTyId,
    /// Argument types still awaiting an inhabitation witness (the set `S`).
    pub remaining: Vec<SuccinctTyId>,
    /// Argument types already witnessed (the set `Π`).
    pub witnessed: Vec<SuccinctTyId>,
}

impl ReachabilityTerm {
    /// Returns `true` once every argument type has been witnessed; the term
    /// can then produce a pattern via [`prod_rule`].
    pub fn is_leaf(&self) -> bool {
        self.remaining.is_empty()
    }
}

/// The STRIP rule: `(S → t) ;Γ ?  ⟹  t ;Γ∪S ?`.
///
/// For a base-type request (`S = ∅`) the environment is unchanged.
pub fn strip_rule<S: TypeStore>(store: &mut S, request: Request) -> BaseRequest {
    let args = store.args_of(request.ty).to_vec();
    let ret = store.ret_of(request.ty);
    let env = store.env_union(request.env, &args);
    BaseRequest { ret, env }
}

/// The MATCH rule: for a base request `t ;Γ ?`, every member `S → t` of Γ with
/// return type `t` yields a reachability term `t ;Γ (S, ∅)`.
///
/// This is the reference form of the rule: a linear scan of Γ per request.
/// The exploration phase answers MATCH from a per-environment `ret → members`
/// index instead, and its tests check that the index returns exactly these
/// terms, in this order (ascending member id).
pub fn match_rule<S: TypeStore>(store: &S, request: BaseRequest) -> Vec<ReachabilityTerm> {
    store
        .env_types(request.env)
        .iter()
        .filter(|&&member| store.ret_of(member) == request.ret)
        .map(|&member| match_term(store, request, member))
        .collect()
}

/// The term `t ;Γ (S, ∅)` that MATCH derives for `request` from the member
/// `member = S → t` of its environment.
pub fn match_term<S: TypeStore>(
    store: &S,
    request: BaseRequest,
    member: SuccinctTyId,
) -> ReachabilityTerm {
    debug_assert_eq!(store.ret_of(member), request.ret);
    ReachabilityTerm {
        ret: request.ret,
        env: request.env,
        decl_ty: member,
        remaining: store.args_of(member).to_vec(),
        witnessed: Vec::new(),
    }
}

/// The PROP rule: from `t ;Γ (S, ∅)` and `t' ∈ S`, issue the request `t' ;Γ ?`.
pub fn prop_rule(term: &ReachabilityTerm, arg: SuccinctTyId) -> Request {
    debug_assert!(term.remaining.contains(&arg) || term.witnessed.contains(&arg));
    Request {
        ty: arg,
        env: term.env,
    }
}

/// The PROD rule: a fully-witnessed reachability term `t ;Γ (∅, Π)` produces
/// the pattern `Γ@Π : t`.
///
/// # Panics
///
/// Panics (in debug builds) if the term still has remaining arguments.
pub fn prod_rule(term: &ReachabilityTerm) -> Pattern {
    debug_assert!(term.is_leaf(), "PROD applies only to fully-witnessed terms");
    Pattern::new(term.env, term.decl_ty, term.witnessed.clone(), term.ret)
}

/// The TRANSFER rule: given a term `t ;Γ (S ∪ {S' → t'}, Π)` and a witness
/// that `t'` is inhabited in `Γ ∪ S'` (i.e. a leaf `t' ;Γ∪S' (∅, Π')`), move
/// the argument `S' → t'` from the pending set into Π.
///
/// Returns `None` if the leaf does not witness `arg` in this term's
/// environment (wrong return type or wrong extended environment).
pub fn transfer_rule<S: TypeStore>(
    store: &mut S,
    term: &ReachabilityTerm,
    arg: SuccinctTyId,
    leaf_ret: Symbol,
    leaf_env: EnvId,
) -> Option<ReachabilityTerm> {
    if !term.remaining.contains(&arg) {
        return None;
    }
    if store.ret_of(arg) != leaf_ret {
        return None;
    }
    let arg_args = store.args_of(arg).to_vec();
    let extended = store.env_union(term.env, &arg_args);
    if extended != leaf_env {
        return None;
    }
    let mut remaining = term.remaining.clone();
    remaining.retain(|&t| t != arg);
    let mut witnessed = term.witnessed.clone();
    witnessed.push(arg);
    Some(ReachabilityTerm {
        ret: term.ret,
        env: term.env,
        decl_ty: term.decl_ty,
        remaining,
        witnessed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuccinctStore;
    use insynth_lambda::Ty;

    /// The running example of §3.4:
    /// Γo = {a : Int, f : Int → Int → Int → String},
    /// Γ = {Int, {Int} → String}.
    fn paper_env(store: &mut SuccinctStore) -> (EnvId, SuccinctTyId, SuccinctTyId) {
        let int = store.sigma(&Ty::base("Int"));
        let f = store.sigma(&Ty::fun(
            vec![Ty::base("Int"), Ty::base("Int"), Ty::base("Int")],
            Ty::base("String"),
        ));
        let env = store.mk_env(vec![int, f]);
        (env, int, f)
    }

    #[test]
    fn strip_on_base_request_keeps_environment() {
        let mut s = SuccinctStore::new();
        let (env, int, _) = paper_env(&mut s);
        let req = strip_rule(&mut s, Request { ty: int, env });
        assert_eq!(req.env, env);
        assert_eq!(s.base_name(req.ret), "Int");
    }

    #[test]
    fn strip_extends_environment_for_function_targets() {
        let mut s = SuccinctStore::new();
        let a = s.mk_base("A");
        let b = s.base_symbol("B");
        let fun = s.mk_ty(vec![a], b);
        let env = s.empty_env();
        let req = strip_rule(&mut s, Request { ty: fun, env });
        assert_eq!(s.base_name(req.ret), "B");
        assert!(s.env_contains(req.env, a));
    }

    #[test]
    fn match_finds_members_with_matching_return_type() {
        let mut s = SuccinctStore::new();
        let (env, int, f) = paper_env(&mut s);
        let string = s.base_symbol("String");
        let found = match_rule(&s, BaseRequest { ret: string, env });
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].decl_ty, f);
        assert_eq!(found[0].remaining, vec![int]);

        let int_sym = s.base_symbol("Int");
        let found_int = match_rule(&s, BaseRequest { ret: int_sym, env });
        assert_eq!(found_int.len(), 1);
        assert!(found_int[0].is_leaf());
    }

    #[test]
    fn match_on_unknown_type_finds_nothing() {
        let mut s = SuccinctStore::new();
        let (env, _, _) = paper_env(&mut s);
        let missing = s.base_symbol("Missing");
        assert!(match_rule(&s, BaseRequest { ret: missing, env }).is_empty());
    }

    #[test]
    fn prop_reuses_the_term_environment() {
        let mut s = SuccinctStore::new();
        let (env, int, _) = paper_env(&mut s);
        let string = s.base_symbol("String");
        let term = &match_rule(&s, BaseRequest { ret: string, env })[0];
        let req = prop_rule(term, int);
        assert_eq!(req, Request { ty: int, env });
    }

    #[test]
    fn paper_example_derives_the_string_pattern() {
        // Following §3.4 step by step: Int is inhabited (leaf), TRANSFER moves
        // Int into Π for the String term, PROD emits Γ@{Int} : String.
        let mut s = SuccinctStore::new();
        let (env, int, _) = paper_env(&mut s);
        let int_sym = s.base_symbol("Int");
        let string = s.base_symbol("String");

        let int_leaf = &match_rule(&s, BaseRequest { ret: int_sym, env })[0];
        assert!(int_leaf.is_leaf());
        let int_pattern = prod_rule(int_leaf);
        assert!(int_pattern.is_leaf());
        assert_eq!(s.base_name(int_pattern.ret), "Int");

        let string_term = &match_rule(&s, BaseRequest { ret: string, env })[0];
        let transferred = transfer_rule(&mut s, string_term, int, int_leaf.ret, int_leaf.env)
            .expect("Int leaf must witness the Int argument");
        assert!(transferred.is_leaf());
        let pattern = prod_rule(&transferred);
        assert_eq!(pattern.render(&s), "{Int, {Int} -> String}@{Int} : String");
    }

    #[test]
    fn transfer_rejects_wrong_environment() {
        let mut s = SuccinctStore::new();
        let (env, int, _) = paper_env(&mut s);
        let string = s.base_symbol("String");
        let other_env = s.mk_env(vec![int]);
        let term = &match_rule(&s, BaseRequest { ret: string, env })[0];
        let int_sym = s.base_symbol("Int");
        // A leaf derived in a *different* environment must not discharge the arg.
        assert!(transfer_rule(&mut s, term, int, int_sym, other_env).is_none());
    }

    #[test]
    fn transfer_rejects_non_member_argument() {
        let mut s = SuccinctStore::new();
        let (env, _, _) = paper_env(&mut s);
        let string = s.base_symbol("String");
        let term = &match_rule(&s, BaseRequest { ret: string, env })[0];
        let bogus = s.mk_base("Bogus");
        let bogus_sym = s.base_symbol("Bogus");
        assert!(transfer_rule(&mut s, term, bogus, bogus_sym, env).is_none());
    }

    #[test]
    fn transfer_for_higher_order_argument_requires_extended_env() {
        // g : (A -> B) -> C. Discharging the argument {A} -> B needs a witness
        // of B in Γ ∪ {A}.
        let mut s = SuccinctStore::new();
        let g_ty = s.sigma(&Ty::fun(
            vec![Ty::fun(vec![Ty::base("A")], Ty::base("B"))],
            Ty::base("C"),
        ));
        let b_decl = s.sigma(&Ty::base("B"));
        let env = s.mk_env(vec![g_ty, b_decl]);
        let c = s.base_symbol("C");
        let b = s.base_symbol("B");
        let a_ty = s.mk_base("A");
        let fun_arg = s.args_of(g_ty)[0];

        let term = &match_rule(&s, BaseRequest { ret: c, env })[0];
        let extended = s.env_union(env, &[a_ty]);
        // Witness of B in the extended environment discharges the argument...
        let ok = transfer_rule(&mut s, term, fun_arg, b, extended);
        assert!(ok.is_some());
        // ...but a witness in the unextended environment does not.
        let not_ok = transfer_rule(&mut s, term, fun_arg, b, env);
        assert!(not_ok.is_none());
    }
}
