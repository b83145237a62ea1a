//! Preparation of a type environment for the succinct-calculus search.
//!
//! Preparing an environment computes, once per *program point*: the σ image of
//! every declaration type, the interned initial environment Γ = σ(Γo), the
//! `Select` index from succinct types back to declarations (used by the
//! reconstruction phase, Figure 4/10), and the per-succinct-type weights that
//! drive the priority queues (§5.6).
//!
//! Lowering a declaration `τ1 → … → τn → v` also lowers each of its
//! uncurried arguments `τi`; the preparation records those argument σ ids,
//! in order and with duplicates kept, in a flat *argument table*
//! ([`PreparedEnv::decl_arg_succs`]). The derivation graph reads a selected
//! declaration's argument hole types off that table instead of re-deriving
//! them from the declaration's simple type on every build. The ids come out
//! of the same σ run that lowers the declaration, so recording them interns
//! nothing extra (see [`TypeStore::sigma_uncurried`]).
//!
//! A [`PreparedEnv`] is immutable once built: queries read it through a shared
//! reference and intern any query-local types into a [`ScratchStore`] overlay
//! obtained from [`PreparedEnv::scratch`]. That is what lets one prepared
//! environment serve many queries, concurrently, without re-running σ.
//!
//! Preparation is *content-addressed*: every environment gets an
//! [`EnvFingerprint`] — an order-insensitive digest over its declaration
//! multiset and effective weights — computed by [`PreparedEnv::fingerprint_of`]
//! and stored on the prepared result. The engine keys its cross-point caches
//! on that fingerprint, and two program points holding the identical
//! declaration list share one preparation.
//!
//! # Incremental preparation
//!
//! [`PreparedEnv::prepare_incremental`] is the one incremental path for
//! edit-time deltas: the edited environment keeps some base declarations in
//! order, may have changed their weights, and appends new ones. σ runs on
//! the appended suffix alone; the kept declarations' tables and the interned
//! store are carried over — bit-identical to a fresh [`PreparedEnv::prepare`]
//! of the edited environment, because the interning sequence of the kept
//! declarations is unchanged, so every id comes out the same. An edit that
//! removes nothing keeps the whole base as a prefix.
//!
//! A removal keeps that promise only when it is *inert*
//! ([`PreparedEnv::removal_is_inert`]). Every preparation records, per
//! declaration, whether lowering it interned a type no earlier declaration
//! had ([`PreparedEnv::interned_new_type`]); it records this by comparing
//! the store's type count before and after, on the fresh and incremental
//! paths alike. A declaration that interned nothing new, and whose σ image
//! keeps another declaration in `Select`, can be dropped without changing
//! the interning sequence of any other declaration or Γ's member set.
//! Editors mostly remove locals of types the environment already has, so
//! most removals stay incremental; removing a declaration that introduced a
//! type needs a fresh preparation.
//!
//! # Why σ is sequential
//!
//! σ-lowering is one sequential pass over the declarations into one
//! interning store, as in the paper. Sharding it across threads with a
//! deterministic merge lost to this loop at every benchmark size on a
//! 2-vCPU host (13,982 declarations: 6.4–7.4 ms sequential against
//! 9.7–9.9 ms with two shards), so there is no parallel path to keep in step.

use insynth_intern::{IdHashMap, StableHasher, Symbol};
use insynth_succinct::{
    EnvFingerprint, EnvFingerprintBuilder, EnvId, ScratchStore, SuccinctStore, SuccinctTyId,
    TypeStore,
};

use insynth_lambda::Ty;

use crate::decl::{DeclKind, Declaration, TypeEnv};
use crate::weights::{Weight, WeightConfig};

/// The argument table: for each declaration, the σ ids of its uncurried
/// arguments, in order and with duplicates kept. Declaration `i`'s entries
/// are `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeclArgs {
    /// Prefix offsets, one per declaration plus a leading `0`.
    offsets: Vec<u32>,
    ids: Vec<SuccinctTyId>,
}

impl DeclArgs {
    fn with_capacity(decls: usize) -> Self {
        let mut offsets = Vec::with_capacity(decls + 1);
        offsets.push(0);
        DeclArgs {
            offsets,
            ids: Vec::with_capacity(decls),
        }
    }

    /// σ-lowers the next declaration's type into `store`, recording its
    /// argument ids, and returns its σ image.
    fn lower(&mut self, store: &mut SuccinctStore, ty: &Ty) -> SuccinctTyId {
        let succ = store.sigma_uncurried(ty, &mut self.ids);
        self.offsets.push(self.ids.len() as u32);
        succ
    }

    /// Appends the next declaration's argument ids.
    fn push(&mut self, args: impl IntoIterator<Item = SuccinctTyId>) {
        self.ids.extend(args);
        self.offsets.push(self.ids.len() as u32);
    }

    fn of(&self, decl: usize) -> &[SuccinctTyId] {
        &self.ids[self.offsets[decl] as usize..self.offsets[decl + 1] as usize]
    }
}

/// The per-declaration tables every preparation path fills, in declaration
/// order, before [`PreparedEnv::finish_prepare`] derives the rest.
struct Lowered {
    decl_succ: Vec<SuccinctTyId>,
    decl_args: DeclArgs,
    /// Whether lowering each declaration interned a type no earlier
    /// declaration had (see [`PreparedEnv::interned_new_type`]).
    interned_new: Vec<bool>,
}

impl Lowered {
    fn with_capacity(decls: usize) -> Self {
        Lowered {
            decl_succ: Vec::with_capacity(decls),
            decl_args: DeclArgs::with_capacity(decls),
            interned_new: Vec::with_capacity(decls),
        }
    }

    /// σ-lowers the next declaration's type into `store`.
    fn lower(&mut self, store: &mut SuccinctStore, ty: &Ty) {
        let before = store.ty_count();
        let succ = self.decl_args.lower(store, ty);
        self.push_row(succ, store.ty_count() > before);
    }

    /// Records the next declaration from tables computed elsewhere.
    fn push(
        &mut self,
        succ: SuccinctTyId,
        args: impl IntoIterator<Item = SuccinctTyId>,
        interned_new: bool,
    ) {
        self.decl_args.push(args);
        self.push_row(succ, interned_new);
    }

    fn push_row(&mut self, succ: SuccinctTyId, interned_new: bool) {
        self.decl_succ.push(succ);
        self.interned_new.push(interned_new);
    }
}

/// A type environment lowered into succinct form, with the lookup structures
/// the synthesis phases need.
#[derive(Debug)]
pub struct PreparedEnv {
    /// The succinct type / environment store for this query.
    pub store: SuccinctStore,
    /// For each declaration (by index into the original [`TypeEnv`]), the σ
    /// image of its type.
    pub decl_succ: Vec<SuccinctTyId>,
    /// The argument table, read through [`PreparedEnv::decl_arg_succs`].
    decl_args: DeclArgs,
    /// Per declaration, whether lowering it interned a new type, read
    /// through [`PreparedEnv::interned_new_type`].
    interned_new: Vec<bool>,
    /// For each declaration, its weight under the active [`WeightConfig`].
    pub decl_weight: Vec<Weight>,
    /// The `Select` index: succinct type → indices of declarations whose type
    /// maps onto it.
    pub by_succ: IdHashMap<SuccinctTyId, Vec<usize>>,
    /// Minimum declaration weight per succinct type (the `w(t, Γo)` of §4).
    pub ty_weight: IdHashMap<SuccinctTyId, Weight>,
    /// The interned initial succinct environment Γ = σ(Γo).
    pub init_env: EnvId,
    /// The content address of the environment this preparation was computed
    /// from (see [`PreparedEnv::fingerprint_of`]).
    pub fingerprint: EnvFingerprint,
}

/// Feeds a simple type into a stable hasher, structurally and unambiguously.
fn hash_ty(h: &mut StableHasher, ty: &Ty) {
    match ty {
        Ty::Base(name) => {
            h.write_u8(0);
            h.write_str(name);
        }
        Ty::Arrow(a, b) => {
            h.write_u8(1);
            hash_ty(h, a);
            hash_ty(h, b);
        }
    }
}

/// The stable digest of one declaration under a weight configuration: name,
/// structural type, kind, corpus frequency, weight override, and the
/// *effective* weight the configuration assigns it (so two configurations
/// that weigh the environment differently fingerprint it differently).
fn hash_declaration(decl: &Declaration, weights: &WeightConfig) -> u128 {
    let mut h = StableHasher::new();
    h.write_str(&decl.name);
    hash_ty(&mut h, &decl.ty);
    h.write_u8(match decl.kind {
        DeclKind::Lambda => 0,
        DeclKind::Local => 1,
        DeclKind::Coercion => 2,
        DeclKind::Class => 3,
        DeclKind::Package => 4,
        DeclKind::Literal => 5,
        DeclKind::Imported => 6,
    });
    match decl.frequency {
        None => h.write_u8(0),
        Some(f) => {
            h.write_u8(1);
            h.write_u64(f);
        }
    }
    match decl.weight_override {
        None => h.write_u8(0),
        Some(w) => {
            h.write_u8(1);
            h.write_f64(w);
        }
    }
    h.write_f64(weights.declaration_weight(decl).value());
    h.finish()
}

impl PreparedEnv {
    /// The content address of `env` under `weights`: an order-insensitive
    /// digest over the declaration multiset (each declaration hashed with its
    /// name, type, kind, frequency, override and effective weight) plus the
    /// lambda weight — the only weight the search adds that no declaration
    /// carries. Two environments with equal fingerprints prepare to
    /// interchangeable state (the engine still verifies structural equality
    /// before sharing, so a hash collision can never cross-contaminate).
    pub fn fingerprint_of(env: &TypeEnv, weights: &WeightConfig) -> EnvFingerprint {
        let mut builder = EnvFingerprintBuilder::new();
        for decl in env.iter() {
            builder.add_item(hash_declaration(decl, weights));
        }
        builder.mix_config(|h| h.write_f64(weights.lambda_weight().value()));
        builder.finish()
    }

    /// Lowers `env` into succinct form under the given weight configuration.
    pub fn prepare(env: &TypeEnv, weights: &WeightConfig) -> Self {
        Self::prepare_with_fingerprint(env, weights, Self::fingerprint_of(env, weights))
    }

    /// [`PreparedEnv::prepare`] for callers that already computed the
    /// environment's fingerprint (the engine hashes it for the cache lookup
    /// that precedes every preparation — re-hashing thousands of
    /// declarations on each miss would waste the lookup's savings).
    pub fn prepare_with_fingerprint(
        env: &TypeEnv,
        weights: &WeightConfig,
        fingerprint: EnvFingerprint,
    ) -> Self {
        let mut store = SuccinctStore::new();
        let mut lowered = Lowered::with_capacity(env.len());
        for decl in env.iter() {
            lowered.lower(&mut store, &decl.ty);
        }
        Self::finish_prepare(store, lowered, env, weights, fingerprint)
    }

    /// Incrementally re-prepares for `env`, an edit of the environment `base`
    /// was prepared from: the base declarations at the ascending indices
    /// `kept`, in that order and with the same names and types (weights may
    /// have changed), followed by appended declarations. Every base
    /// declaration not in `kept` must be removable without disturbing the
    /// rest — [`PreparedEnv::removal_is_inert`] must hold.
    ///
    /// Only the appended suffix is σ-lowered; the kept declarations' σ
    /// images, argument-table rows and flags are copied, and the interned
    /// store is carried over. A dropped declaration interned nothing, so a
    /// fresh [`PreparedEnv::prepare`] of `env` would replay exactly the
    /// carried interning sequence before reaching the suffix: every *type*
    /// id, declaration index and weight comes out identical to that fresh
    /// preparation. The only divergence is inert: when the appended
    /// declarations extend the initial environment's member set, the
    /// carried store still holds the old initial environment under its old
    /// id (a fresh store never interns it), shifting later environment
    /// *ids* by one — and no query-observable behavior depends on
    /// environment id values (nothing orders by them, and the old set is a
    /// strict subset no lookup in the new world can produce). Query results
    /// are therefore byte-identical to the fresh preparation, which is what
    /// the session's delta path promises; when the member set is unchanged,
    /// the preparation is [`identical_to`](PreparedEnv::identical_to) it.
    pub fn prepare_incremental(
        base: &PreparedEnv,
        kept: &[usize],
        env: &TypeEnv,
        weights: &WeightConfig,
        fingerprint: EnvFingerprint,
    ) -> Self {
        debug_assert!(kept.len() <= env.len());
        debug_assert!(base.removal_is_inert(kept));
        let mut store = base.store.clone();
        let mut lowered = Lowered::with_capacity(env.len());
        for &idx in kept {
            lowered.push(
                base.decl_succ[idx],
                base.decl_args.of(idx).iter().copied(),
                base.interned_new[idx],
            );
        }
        for decl in env.iter().skip(kept.len()) {
            lowered.lower(&mut store, &decl.ty);
        }
        Self::finish_prepare(store, lowered, env, weights, fingerprint)
    }

    /// `true` when dropping every base declaration whose index is not in
    /// `kept` (ascending) leaves the preparation of the rest undisturbed:
    /// no dropped declaration interned a type first (so the interning
    /// sequence of every other declaration is unchanged), and every dropped
    /// declaration's σ image keeps a kept declaration in `Select` (so Γ's
    /// member set is unchanged). [`PreparedEnv::prepare_incremental`]
    /// requires it; any other removal needs a fresh preparation.
    pub fn removal_is_inert(&self, kept: &[usize]) -> bool {
        let mut dropped: IdHashMap<SuccinctTyId, usize> = IdHashMap::default();
        let mut kept = kept.iter().copied().peekable();
        for idx in 0..self.decl_succ.len() {
            if kept.next_if_eq(&idx).is_some() {
                continue;
            }
            if self.interned_new[idx] {
                return false;
            }
            *dropped.entry(self.decl_succ[idx]).or_default() += 1;
        }
        dropped
            .into_iter()
            .all(|(succ, count)| count < self.select(succ).len())
    }

    /// Shared tail of fresh and incremental preparation: the `Select` index
    /// and the weight tables (cheap, no σ), the initial environment and the
    /// fingerprint.
    fn finish_prepare(
        mut store: SuccinctStore,
        lowered: Lowered,
        env: &TypeEnv,
        weights: &WeightConfig,
        fingerprint: EnvFingerprint,
    ) -> Self {
        debug_assert_eq!(fingerprint, Self::fingerprint_of(env, weights));
        let Lowered {
            decl_succ,
            decl_args,
            interned_new,
        } = lowered;
        debug_assert_eq!(decl_succ.len(), env.len());
        let mut decl_weight = Vec::with_capacity(env.len());
        let mut by_succ: IdHashMap<SuccinctTyId, Vec<usize>> = IdHashMap::default();
        let mut ty_weight: IdHashMap<SuccinctTyId, Weight> = IdHashMap::default();
        for (idx, decl) in env.iter().enumerate() {
            let succ = decl_succ[idx];
            let w = weights.declaration_weight(decl);
            decl_weight.push(w);
            by_succ.entry(succ).or_default().push(idx);
            ty_weight
                .entry(succ)
                .and_modify(|cur| {
                    if w < *cur {
                        *cur = w;
                    }
                })
                .or_insert(w);
        }
        let init_env = store.mk_env(decl_succ.iter().copied());
        PreparedEnv {
            store,
            decl_succ,
            decl_args,
            interned_new,
            decl_weight,
            by_succ,
            ty_weight,
            init_env,
            fingerprint,
        }
    }

    /// `true` when every weight the search can add under this preparation is
    /// non-negative — the condition for the A* completion-cost heuristic.
    /// One definition shared by the graph build (which bakes the resulting
    /// `monotone` flag into every [`DerivationGraph`](crate::DerivationGraph))
    /// and [`DerivationGraph::patch`](crate::DerivationGraph::patch) (which
    /// declines an edit that flips this predicate): the two must never
    /// diverge.
    pub fn weights_monotone(&self, weights: &WeightConfig) -> bool {
        weights.lambda_weight().is_non_negative()
            && self.decl_weight.iter().all(|w| w.is_non_negative())
    }

    /// `true` when `self` and `other` hold the same σ-level space: the same
    /// initial environment and equally many interned types and
    /// environments. Meaningful between preparations where one's store
    /// extends the other's (an incremental preparation and its base, or two
    /// ends of a chain of them): then equal counts mean no type and no
    /// environment was interned in between, so the stores are equal and the
    /// edit between them is *σ-inert* — it changed which declarations
    /// realize each succinct type, and their weights, but nothing
    /// exploration or pattern generation work on besides `ty_weight`.
    pub fn same_sigma_space(&self, other: &PreparedEnv) -> bool {
        self.init_env == other.init_env
            && self.store.ty_count() == other.store.ty_count()
            && self.store.env_count() == other.store.env_count()
    }

    /// A fresh per-query interning overlay over this environment's store.
    ///
    /// Every query needs to intern a few types of its own (the goal type, the
    /// environments extended with lambda binders); the overlay takes those
    /// without mutating — or locking — the shared store.
    pub fn scratch(&self) -> ScratchStore<'_> {
        ScratchStore::new(&self.store)
    }

    /// The σ images of declaration `decl`'s uncurried arguments `τ1 … τn`,
    /// in order and with duplicates kept (the argument table).
    pub fn decl_arg_succs(&self, decl: usize) -> &[SuccinctTyId] {
        self.decl_args.of(decl)
    }

    /// `true` when lowering declaration `decl` interned a type no earlier
    /// declaration had. Removing a declaration for which this is `false`
    /// leaves the interning sequence of every other declaration unchanged
    /// (see [`PreparedEnv::removal_is_inert`]).
    pub fn interned_new_type(&self, decl: usize) -> bool {
        self.interned_new[decl]
    }

    /// The declarations whose σ image is exactly `succ` (the `Select` function
    /// restricted to the original environment).
    pub fn select(&self, succ: SuccinctTyId) -> &[usize] {
        self.by_succ.get(&succ).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The weight of a succinct type: the minimum weight of any declaration
    /// producing it, or [`Weight::UNKNOWN`] if no declaration does.
    pub fn type_weight(&self, succ: SuccinctTyId) -> Weight {
        self.ty_weight
            .get(&succ)
            .copied()
            .unwrap_or(Weight::UNKNOWN)
    }

    /// Number of *distinct* succinct types among the declarations — the
    /// compression statistic reported in §3.2 (3356 declarations → 1783
    /// succinct types on the Figure 1 example).
    pub fn distinct_succinct_types(&self) -> usize {
        self.by_succ.len()
    }

    /// Full byte-level identity against another preparation: the fingerprint,
    /// every index (`decl_succ`, the argument table, the new-type flags,
    /// `decl_weight`, `by_succ`, `ty_weight`, `init_env`) and every store
    /// table (symbol names, type records, the interned initial environment)
    /// must match, id for id. The delta property test holds
    /// [`PreparedEnv::prepare_incremental`] to it whenever the edit keeps
    /// Γ's member set.
    pub fn identical_to(&self, other: &PreparedEnv) -> bool {
        if self.fingerprint != other.fingerprint
            || self.init_env != other.init_env
            || self.decl_succ != other.decl_succ
            || self.decl_args != other.decl_args
            || self.interned_new != other.interned_new
            || self.decl_weight != other.decl_weight
            || self.by_succ != other.by_succ
            || self.ty_weight != other.ty_weight
            || self.store.ty_count() != other.store.ty_count()
            || self.store.symbol_count() != other.store.symbol_count()
        {
            return false;
        }
        let tys_match = (0..self.store.ty_count() as u32).all(|i| {
            let id = SuccinctTyId::from_index(i);
            self.store.ty(id) == other.store.ty(id)
        });
        let symbols_match = (0..self.store.symbol_count() as u32).all(|i| {
            let sym = Symbol::from_index(i);
            self.store.base_name(sym) == other.store.base_name(sym)
        });
        tys_match
            && symbols_match
            && self.store.env_types(self.init_env) == other.store.env_types(other.init_env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration};
    use insynth_lambda::Ty;

    fn env() -> TypeEnv {
        let mut e = TypeEnv::new();
        e.push(Declaration::new("a", Ty::base("Int"), DeclKind::Local));
        e.push(Declaration::new(
            "f",
            Ty::fun(vec![Ty::base("Int"), Ty::base("Int")], Ty::base("String")),
            DeclKind::Imported,
        ));
        e.push(Declaration::new(
            "g",
            Ty::fun(vec![Ty::base("Int")], Ty::base("String")),
            DeclKind::Local,
        ));
        e
    }

    #[test]
    fn sigma_collapses_f_and_g_to_one_succinct_type() {
        let prepared = PreparedEnv::prepare(&env(), &WeightConfig::default());
        // f : Int -> Int -> String and g : Int -> String both become {Int} -> String.
        assert_eq!(prepared.decl_succ[1], prepared.decl_succ[2]);
        assert_eq!(prepared.distinct_succinct_types(), 2);
        assert_eq!(prepared.select(prepared.decl_succ[1]), &[1, 2]);
    }

    #[test]
    fn type_weight_is_the_minimum_declaration_weight() {
        let prepared = PreparedEnv::prepare(&env(), &WeightConfig::default());
        // g is Local (5), f is Imported (1000): the shared succinct type weighs 5.
        assert_eq!(prepared.type_weight(prepared.decl_succ[1]).value(), 5.0);
    }

    #[test]
    fn unknown_types_get_the_sentinel_weight() {
        let mut store_probe = PreparedEnv::prepare(&env(), &WeightConfig::default());
        let missing = store_probe.store.mk_base("Missing");
        assert_eq!(store_probe.type_weight(missing), Weight::UNKNOWN);
    }

    #[test]
    fn init_env_contains_every_declared_succinct_type() {
        let prepared = PreparedEnv::prepare(&env(), &WeightConfig::default());
        for &succ in &prepared.decl_succ {
            assert!(prepared.store.env_contains(prepared.init_env, succ));
        }
        assert_eq!(prepared.store.env_len(prepared.init_env), 2);
    }

    #[test]
    fn fingerprint_is_declaration_order_insensitive() {
        let weights = WeightConfig::default();
        let fwd = env();
        let rev: TypeEnv = fwd.iter().rev().cloned().collect();
        assert_eq!(
            PreparedEnv::fingerprint_of(&fwd, &weights),
            PreparedEnv::fingerprint_of(&rev, &weights),
        );
    }

    #[test]
    fn fingerprint_distinguishes_contents_weights_and_multiplicity() {
        let weights = WeightConfig::default();
        let base = env();
        let fp = PreparedEnv::fingerprint_of(&base, &weights);

        let mut grown = base.clone();
        grown.push(Declaration::new("extra", Ty::base("Int"), DeclKind::Local));
        assert_ne!(fp, PreparedEnv::fingerprint_of(&grown, &weights));

        let mut duplicated = base.clone();
        duplicated.push((*base.decls()[0]).clone());
        assert_ne!(fp, PreparedEnv::fingerprint_of(&duplicated, &weights));

        let reweighted: TypeEnv = base
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let d = d.clone();
                if i == 0 {
                    d.with_weight(3.25)
                } else {
                    d
                }
            })
            .collect();
        assert_ne!(fp, PreparedEnv::fingerprint_of(&reweighted, &weights));

        // A different weight *mode* changes effective weights, hence the
        // fingerprint — the same declarations prepare differently under it.
        let no_weights = WeightConfig::new(crate::weights::WeightMode::NoWeights);
        assert_ne!(fp, PreparedEnv::fingerprint_of(&base, &no_weights));
    }

    #[test]
    fn prepare_incremental_over_the_whole_base_is_bit_identical_to_fresh_preparation() {
        let weights = WeightConfig::default();
        let old_env = env();
        let base = PreparedEnv::prepare(&old_env, &weights);

        // Append two declarations (one duplicating an existing succinct type,
        // one introducing a new type) and reweight an existing one in place.
        let mut new_env: TypeEnv = old_env
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let d = d.clone();
                if i == 2 {
                    d.with_weight(1.5)
                } else {
                    d
                }
            })
            .collect();
        new_env.push(Declaration::new("b", Ty::base("Int"), DeclKind::Class));
        new_env.push(Declaration::new(
            "h",
            Ty::fun(vec![Ty::base("String")], Ty::base("File")),
            DeclKind::Imported,
        ));

        let whole_base: Vec<usize> = (0..old_env.len()).collect();
        let incremental = PreparedEnv::prepare_incremental(
            &base,
            &whole_base,
            &new_env,
            &weights,
            PreparedEnv::fingerprint_of(&new_env, &weights),
        );
        let fresh = PreparedEnv::prepare(&new_env, &weights);

        assert_eq!(incremental.decl_succ, fresh.decl_succ);
        assert_eq!(incremental.decl_args, fresh.decl_args);
        assert_eq!(incremental.decl_weight, fresh.decl_weight);
        assert_eq!(incremental.fingerprint, fresh.fingerprint);
        assert_eq!(incremental.by_succ, fresh.by_succ);
        assert_eq!(incremental.ty_weight, fresh.ty_weight);
        // Type interning replays identically (same ids, same count); the
        // initial environment agrees as a member set (its *id* may lag by
        // the old initial environment the incremental store keeps, which is
        // inert).
        assert_eq!(incremental.store.ty_count(), fresh.store.ty_count());
        assert_eq!(
            incremental.store.env_types(incremental.init_env),
            fresh.store.env_types(fresh.init_env)
        );
        assert_eq!(
            incremental.distinct_succinct_types(),
            fresh.distinct_succinct_types()
        );

        // An appended duplicate of an existing type keeps the initial
        // environment's identity — part of the σ-inert condition
        // (`same_sigma_space`) under which a graph can be patched.
        let mut dup_env = old_env.clone();
        dup_env.push(Declaration::new("a2", Ty::base("Int"), DeclKind::Package));
        let dup = PreparedEnv::prepare_incremental(
            &base,
            &whole_base,
            &dup_env,
            &weights,
            PreparedEnv::fingerprint_of(&dup_env, &weights),
        );
        assert_eq!(dup.init_env, base.init_env);
    }
}
