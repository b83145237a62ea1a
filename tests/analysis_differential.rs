//! Differential tests for the static-analysis pass (`insynth_analysis`).
//!
//! The contract, checked on random environments: the analyzer's
//! goal-independent producibility fixpoint over `E_max` agrees *exactly*
//! with the explore phase — a base type is producible iff the pattern index
//! proves it inhabited when every `E_max` member is available as a goal
//! binder. The explore pipeline never reads the analyzer, so this is a
//! genuine two-implementation comparison, including under negative weight
//! overrides, where the walk runs in its best-first fallback regime.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use insynth::analysis::Reachability;
use insynth::core::{
    explore, generate_patterns, DeclKind, Declaration, Engine, ExploreLimits, PreparedEnv, Query,
    SynthesisConfig, TypeEnv, WeightConfig,
};
use insynth::intern::Symbol;
use insynth::lambda::Ty;
use insynth::succinct::{SuccinctTyId, TypeStore};

const BASE_TYPES: &[&str] = &["A", "B", "C", "D"];

fn arb_ty() -> impl Strategy<Value = Ty> {
    let leaf = prop::sample::select(BASE_TYPES.to_vec()).prop_map(Ty::base);
    leaf.prop_recursive(2, 6, 2, |inner| {
        (vec(inner.clone(), 1..3), inner).prop_map(|(args, ret)| Ty::fun(args, ret))
    })
}

fn arb_env() -> impl Strategy<Value = TypeEnv> {
    vec((arb_ty(), 0u8..3), 1..8).prop_map(|decls| {
        decls
            .into_iter()
            .enumerate()
            .map(|(i, (ty, kind))| {
                let kind = match kind {
                    0 => DeclKind::Local,
                    1 => DeclKind::Class,
                    _ => DeclKind::Imported,
                };
                Declaration::simple(format!("d{i}"), ty, kind).with_frequency((i as u64) * 17)
            })
            .collect()
    })
}

/// Negative weight overrides on every third declaration: they flip the walk
/// into the non-monotone best-first fallback but must not affect
/// producibility.
fn with_negative_overrides(env: TypeEnv) -> TypeEnv {
    env.iter()
        .enumerate()
        .map(|(i, decl)| {
            let decl = decl.clone();
            if i % 3 == 0 {
                decl.with_weight(-1.5 - i as f64)
            } else {
                decl
            }
        })
        .collect()
}

proptest! {
    // Deterministic CI: pinned case count and RNG seed, same rationale as
    // tests/properties.rs.
    #![proptest_config(ProptestConfig { cases: 48, rng_seed: 0x000a_5eed, ..ProptestConfig::default() })]

    #[test]
    fn producibility_matches_the_explore_phase(env in arb_env(), negative in 0u8..2) {
        let env = if negative == 1 { with_negative_overrides(env) } else { env };
        let weights = WeightConfig::default();
        let prepared = Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let reach = Reachability::compute(&store, &prepared.decl_succ);

        // Every base symbol the analysis can say anything about: returns of
        // members and requestables, plus the full generator alphabet (which
        // covers symbols the environment never mentions at all).
        let mut candidates: BTreeSet<Symbol> = BTreeSet::new();
        for &member in reach.members() {
            candidates.insert(store.ret_of(member));
        }
        for &request in reach.requestable() {
            candidates.insert(store.ret_of(request));
        }
        for name in BASE_TYPES {
            let id = store.sigma(&Ty::base(*name));
            candidates.insert(store.ret_of(id));
        }

        // Oracle: ask the explore phase whether `v` is inhabited when every
        // E_max member is in scope as a goal binder. That extension is
        // exactly the closure the analyzer reasons over, and inhabitation is
        // decided by the pattern index, which shares no code with the
        // analyzer's Horn fixpoint.
        let members: Vec<SuccinctTyId> = reach.members().to_vec();
        for v in candidates {
            let goal_succ = store.mk_ty(members.clone(), v);
            let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
            let patterns = generate_patterns(&mut store, &space);
            let goal_args = store.args_of(goal_succ).to_vec();
            let extended = store.env_union(prepared.init_env, &goal_args);
            prop_assert_eq!(
                reach.is_producible(v),
                patterns.is_inhabited(v, extended),
                "analyzer and explore phase disagree on `{}`",
                store.base_name(v)
            );
        }
    }
}

/// The degenerate environments the proptest generator cannot reach: the
/// empty environment, and a one-declaration environment whose single entry
/// is dead.
#[test]
fn degenerate_environments_prune_cleanly() {
    let empty: TypeEnv = Vec::<Declaration>::new().into_iter().collect();
    let dead_only: TypeEnv = vec![Declaration::simple(
        "f",
        Ty::fun(vec![Ty::base("Missing")], Ty::base("A")),
        DeclKind::Local,
    )]
    .into_iter()
    .collect();

    for env in [&empty, &dead_only] {
        let report = Engine::new(SynthesisConfig::default()).analyze(env);
        assert_eq!(report.decl_count, env.len());
    }

    let report = Engine::new(SynthesisConfig::default()).analyze(&dead_only);
    assert_eq!(report.dead_decls, vec![0]);
}

/// A declaration that is dead relative to the bare environment can still be
/// revived by the goal's own binders: `f : B -> A` is unusable on its own,
/// yet the goal `B -> A` brings a `B` into scope.
#[test]
fn goal_binders_revive_decls_the_environment_alone_cannot_feed() {
    let env: TypeEnv = vec![Declaration::simple(
        "f",
        Ty::fun(vec![Ty::base("B")], Ty::base("A")),
        DeclKind::Local,
    )]
    .into_iter()
    .collect();

    // Goal-independent analysis calls `f` dead…
    let report = Engine::new(SynthesisConfig::default()).analyze(&env);
    assert_eq!(report.dead_decls, vec![0]);

    // …but a goal that binds a `B` still completes through it.
    let goal = Ty::fun(vec![Ty::base("B")], Ty::base("A"));
    let config = SynthesisConfig::unbounded().with_max_depth(3);
    let result = Engine::new(config)
        .prepare(&env)
        .query(&Query::new(goal).with_n(16));
    assert!(
        !result.snippets.is_empty(),
        "the goal binder must revive `f`"
    );
}
