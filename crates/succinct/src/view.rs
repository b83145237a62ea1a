//! The [`TypeStore`] abstraction over succinct-type stores.
//!
//! Two stores implement it: the owning [`SuccinctStore`] arena and the
//! per-query [`ScratchStore`](crate::ScratchStore) overlay. The calculus
//! rules and the synthesis phases are written against this trait so the same
//! code serves both single-shot use (one mutable store per query) and the
//! session API (a shared frozen store plus a private overlay per query).

use insynth_intern::Symbol;
use insynth_lambda::Ty;

use crate::{EnvId, SuccinctStore, SuccinctTy, SuccinctTyId};

/// Interning store for succinct types, base-type names and environments.
///
/// Required methods cover raw interning and resolution; everything the
/// synthesis engine uses on top (σ, unions, membership, rendering) is
/// provided. Ids handed out by one store are only meaningful for that store
/// (or for overlays layered on it).
pub trait TypeStore {
    /// The structural data of a succinct type.
    fn ty(&self, id: SuccinctTyId) -> &SuccinctTy;

    /// Resolves a base-type symbol back to its name.
    fn base_name(&self, sym: Symbol) -> &str;

    /// The member types of an environment, sorted ascending by id.
    fn env_types(&self, env: EnvId) -> &[SuccinctTyId];

    /// Number of distinct succinct types interned so far.
    fn ty_count(&self) -> usize;

    /// Number of distinct environments interned so far.
    fn env_count(&self) -> usize;

    /// Interns a base-type name.
    fn base_symbol(&mut self, name: &str) -> Symbol;

    /// Interns the succinct type `{args} → ret`, sorting and de-duplicating
    /// the argument set.
    fn mk_ty(&mut self, args: Vec<SuccinctTyId>, ret: Symbol) -> SuccinctTyId;

    /// Interns an environment (a finite set of succinct types).
    fn mk_env(&mut self, types: Vec<SuccinctTyId>) -> EnvId;

    /// The argument set `A(t)` of a succinct type.
    fn args_of(&self, id: SuccinctTyId) -> &[SuccinctTyId] {
        &self.ty(id).args
    }

    /// The return base type `R(t)` of a succinct type.
    fn ret_of(&self, id: SuccinctTyId) -> Symbol {
        self.ty(id).ret
    }

    /// Returns `true` if `ty` is a member of `env`.
    fn env_contains(&self, env: EnvId, ty: SuccinctTyId) -> bool {
        self.env_types(env).binary_search(&ty).is_ok()
    }

    /// Number of member types of an environment.
    fn env_len(&self, env: EnvId) -> usize {
        self.env_types(env).len()
    }

    /// Returns `true` if every member of `small` is a member of `big`.
    fn env_subset(&self, small: EnvId, big: EnvId) -> bool {
        self.env_types(small)
            .iter()
            .all(|&t| self.env_contains(big, t))
    }

    /// Interns the base succinct type `∅ → name`.
    fn mk_base(&mut self, name: &str) -> SuccinctTyId {
        let sym = self.base_symbol(name);
        self.mk_ty(Vec::new(), sym)
    }

    /// The empty environment.
    fn empty_env(&mut self) -> EnvId {
        self.mk_env(Vec::new())
    }

    /// The σ conversion from simple types to succinct types (§3.2):
    ///
    /// * `σ(v) = ∅ → v`
    /// * `σ(τ1 → τ2) = ({σ(τ1)} ∪ A(σ(τ2))) → R(σ(τ2))`
    fn sigma(&mut self, ty: &Ty) -> SuccinctTyId {
        self.sigma_uncurried(ty, &mut Vec::new())
    }

    /// [`TypeStore::sigma`], also appending to `args` the σ image of each
    /// uncurried argument `τ1 … τn` of `ty = τ1 → … → τn → v`, in order and
    /// with duplicates kept.
    ///
    /// The recursion of σ is unrolled along the arrow spine without changing
    /// its interning sequence: `σ(τ1) … σ(τn)`, then `∅ → v`, then each
    /// suffix `{σ(τi), …, σ(τn)} → v` from the innermost outwards. Ids are
    /// therefore exactly those the recursive definition hands out.
    fn sigma_uncurried(&mut self, ty: &Ty, args: &mut Vec<SuccinctTyId>) -> SuccinctTyId {
        let start = args.len();
        let mut spine = ty;
        while let Ty::Arrow(arg, rest) = spine {
            let arg_id = self.sigma(arg);
            args.push(arg_id);
            spine = rest;
        }
        let Ty::Base(name) = spine else {
            unreachable!("an arrow spine ends at a base type")
        };
        let mut id = self.mk_base(name);
        let ret = self.ret_of(id);
        for &arg_id in args[start..].iter().rev() {
            let mut suffix = self.args_of(id).to_vec();
            suffix.push(arg_id);
            id = self.mk_ty(suffix, ret);
        }
        id
    }

    /// Converts a whole simple-type environment (the images `σ(τi)` of every
    /// declaration type) into an interned succinct environment.
    fn sigma_env<'a>(&mut self, tys: impl IntoIterator<Item = &'a Ty>) -> EnvId {
        let ids: Vec<SuccinctTyId> = tys.into_iter().map(|t| self.sigma(t)).collect();
        self.mk_env(ids)
    }

    /// Interns `env ∪ extra`.
    fn env_union(&mut self, env: EnvId, extra: &[SuccinctTyId]) -> EnvId {
        if extra.iter().all(|&t| self.env_contains(env, t)) {
            return env;
        }
        let mut types = self.env_types(env).to_vec();
        types.extend_from_slice(extra);
        self.mk_env(types)
    }

    /// Renders a succinct type, e.g. `{Int, String} -> File`.
    fn display_ty(&self, id: SuccinctTyId) -> String {
        let data = self.ty(id);
        if data.args.is_empty() {
            return self.base_name(data.ret).to_owned();
        }
        let args: Vec<String> = data.args.iter().map(|&a| self.display_ty(a)).collect();
        format!("{{{}}} -> {}", args.join(", "), self.base_name(data.ret))
    }

    /// Renders an environment, e.g. `{Int, {Int} -> String}`.
    fn display_env(&self, env: EnvId) -> String {
        let parts: Vec<String> = self
            .env_types(env)
            .iter()
            .map(|&t| self.display_ty(t))
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

impl TypeStore for SuccinctStore {
    fn ty(&self, id: SuccinctTyId) -> &SuccinctTy {
        SuccinctStore::ty(self, id)
    }

    fn base_name(&self, sym: Symbol) -> &str {
        SuccinctStore::base_name(self, sym)
    }

    fn env_types(&self, env: EnvId) -> &[SuccinctTyId] {
        SuccinctStore::env_types(self, env)
    }

    fn ty_count(&self) -> usize {
        SuccinctStore::ty_count(self)
    }

    fn env_count(&self) -> usize {
        SuccinctStore::env_count(self)
    }

    fn base_symbol(&mut self, name: &str) -> Symbol {
        SuccinctStore::base_symbol(self, name)
    }

    fn mk_ty(&mut self, args: Vec<SuccinctTyId>, ret: Symbol) -> SuccinctTyId {
        SuccinctStore::mk_ty(self, args, ret)
    }

    fn mk_env(&mut self, types: Vec<SuccinctTyId>) -> EnvId {
        SuccinctStore::mk_env(self, types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<S: TypeStore>(store: &mut S) {
        let int = store.mk_base("Int");
        let string = store.base_symbol("String");
        let f = store.mk_ty(vec![int], string);
        assert_eq!(store.ret_of(f), string);
        assert_eq!(store.args_of(f), &[int]);
        let env = store.mk_env(vec![int, f]);
        assert!(store.env_contains(env, int));
        assert_eq!(store.env_len(env), 2);
        assert_eq!(store.display_ty(f), "{Int} -> String");
    }

    #[test]
    fn succinct_store_implements_the_view() {
        let mut store = SuccinctStore::new();
        generic_roundtrip(&mut store);
    }

    #[test]
    fn sigma_through_the_trait_matches_the_inherent_sigma() {
        let ty = Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C"));
        let mut direct = SuccinctStore::new();
        let inherent = SuccinctStore::sigma(&mut direct, &ty);
        let mut viewed = SuccinctStore::new();
        let through_trait = TypeStore::sigma(&mut viewed, &ty);
        assert_eq!(inherent.index(), through_trait.index());
    }

    /// σ exactly as §3.2 states it, recursing on `τ1 → τ2`.
    fn recursive_sigma(store: &mut SuccinctStore, ty: &Ty) -> SuccinctTyId {
        match ty {
            Ty::Base(name) => store.mk_base(name),
            Ty::Arrow(a, b) => {
                let a_id = recursive_sigma(store, a);
                let b_id = recursive_sigma(store, b);
                let mut args = store.args_of(b_id).to_vec();
                args.push(a_id);
                let ret = store.ret_of(b_id);
                store.mk_ty(args, ret)
            }
        }
    }

    #[test]
    fn unrolled_sigma_interns_in_the_recursive_order() {
        let hof = Ty::fun(vec![Ty::base("Z"), Ty::base("Y")], Ty::base("X"));
        let tys = [
            Ty::fun(
                vec![Ty::base("C"), hof.clone(), Ty::base("A")],
                Ty::base("R"),
            ),
            Ty::fun(vec![Ty::base("A"), Ty::base("C")], Ty::base("R")),
            Ty::fun(vec![hof.clone(), hof], Ty::base("Y")),
            Ty::base("Q"),
        ];
        let mut unrolled = SuccinctStore::new();
        let mut reference = SuccinctStore::new();
        for ty in &tys {
            let mut args = Vec::new();
            let id = unrolled.sigma_uncurried(ty, &mut args);
            assert_eq!(id, recursive_sigma(&mut reference, ty));
            // One entry per uncurried argument, in order, duplicates kept.
            let (arg_tys, _) = ty.uncurry();
            let expected: Vec<SuccinctTyId> = arg_tys
                .iter()
                .map(|a| recursive_sigma(&mut reference, a))
                .collect();
            assert_eq!(args, expected);
        }
        assert_eq!(unrolled.ty_count(), reference.ty_count());
        for i in 0..unrolled.ty_count() as u32 {
            let id = SuccinctTyId::from_index(i);
            assert_eq!(unrolled.ty(id), reference.ty(id));
        }
    }
}
