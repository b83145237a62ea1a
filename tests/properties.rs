//! Property-based tests over randomly generated environments and goals.
//!
//! These check the paper's core claims on arbitrary inputs:
//!
//! * soundness — every synthesized term type-checks at the goal type,
//! * completeness — the engine enumerates exactly the terms the reference
//!   RCN function (Figure 4) enumerates, up to a depth bound and
//!   α-equivalence,
//! * prover agreement — the engine's inhabitation verdict coincides with the
//!   reference oracle and with both baseline provers,
//! * σ laws — the succinct conversion is invariant under argument reordering,
//! * ranking — the returned list is sorted by weight,
//! * graph equivalence — the derivation-graph walk (A* over the
//!   completion-cost heuristic) returns byte-identical ranked terms to the
//!   pre-graph unindexed reconstruction, including for `n ∈ {0, 1}` and for
//!   negative-weight-override configurations where the walk must fall back
//!   to plain best-first order,
//! * truncation — a frontier-capped walk still emits a sorted subset of the
//!   true enumeration with exact weights,
//! * content addressing — the identical declaration list shares one
//!   preparation and one derivation graph and answers byte-identically, and
//!   a permutation (which fingerprints equal) answers exactly as a fresh
//!   engine does even when the engine already holds the other order,
//! * delta re-preparation — `Session::update(delta)` answers byte-identically
//!   to a fresh `Engine::prepare` of the edited environment, for random
//!   add/remove/reweight deltas including negative weight overrides (which
//!   flip the walk into its best-first fallback), and prepares to the very
//!   same ids whenever its removals are inert and Γ keeps its members,
//! * argument table — a fresh and an incremental preparation both record,
//!   per declaration, σ of each uncurried argument in order,
//! * resumable streaming — `query(n=a)` then `query(n=a+b)` on one session
//!   (which resumes the suspended walk, popping only the delta) answers
//!   byte-identically to a one-shot `query(n=a+b)` on a cold engine, in both
//!   walk regimes,
//! * graph patching — after a chain of σ-inert edits (adds, inert removals
//!   and reweights, with weight ties and zero weights), a graph patched from
//!   the original one is `identical_to` a fresh build and walks to the same
//!   terms, and an edited session answers like a fresh engine; the patch
//!   falls back to a build under a negative override, when a removed
//!   declaration interned a hole type, and when a reweight changes a σ
//!   class's weight.

use proptest::collection::vec;
use proptest::prelude::*;

use insynth::core::{
    explore, generate_patterns, generate_terms, generate_terms_unindexed, is_inhabited_ref, rcn,
    DeclKind, Declaration, DerivationGraph, Engine, EnvDelta, ExploreLimits, GenerateLimits,
    PreparedEnv, Query, SynthesisConfig, SynthesisResult, TypeEnv, WeightConfig, DECL_REMOVED,
};
use insynth::lambda::{check, Term, Ty};
use insynth::provers::{forward, g4ip, inhabitation_query, ProverLimits};
use insynth::succinct::SuccinctStore;
use std::collections::HashSet;
use std::sync::Arc;

const BASE_TYPES: &[&str] = &["A", "B", "C", "D"];

/// A random simple type of bounded depth over a tiny base alphabet.
fn arb_ty() -> impl Strategy<Value = Ty> {
    let leaf = prop::sample::select(BASE_TYPES.to_vec()).prop_map(Ty::base);
    leaf.prop_recursive(2, 6, 2, |inner| {
        (vec(inner.clone(), 1..3), inner).prop_map(|(args, ret)| Ty::fun(args, ret))
    })
}

/// A random environment of up to eight declarations with varied kinds.
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

/// Byte-precise fingerprint of a query result: rendered and raw terms, the
/// exact weight bit patterns, and the cache-replayed search statistics.
fn result_key(result: &SynthesisResult) -> Vec<(String, String, u64, usize, usize)> {
    result
        .snippets
        .iter()
        .map(|s| {
            (
                s.term.to_string(),
                s.raw_term.to_string(),
                s.weight.value().to_bits(),
                s.depth,
                s.coercions,
            )
        })
        .collect()
}

fn stats_key(result: &SynthesisResult) -> (usize, usize, usize, usize, bool, bool) {
    (
        result.stats.requests_processed,
        result.stats.patterns,
        result.stats.reachability_terms,
        result.stats.reconstruction_steps,
        result.stats.astar,
        result.stats.truncated,
    )
}

fn arb_goal() -> impl Strategy<Value = Ty> {
    prop_oneof![
        prop::sample::select(BASE_TYPES.to_vec()).prop_map(Ty::base),
        (
            prop::sample::select(BASE_TYPES.to_vec()),
            prop::sample::select(BASE_TYPES.to_vec())
        )
            .prop_map(|(a, b)| Ty::fun(vec![Ty::base(a)], Ty::base(b))),
    ]
}

/// Explores, generates patterns and builds the derivation graph for `goal`
/// over `prepared`, with no exploration budget.
fn build_graph(prepared: &Arc<PreparedEnv>, env: &TypeEnv, goal: &Ty) -> DerivationGraph {
    use insynth::succinct::TypeStore;

    let weights = WeightConfig::default();
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(goal);
    let limits = ExploreLimits {
        max_requests: usize::MAX,
        time_limit: None,
    };
    let space = explore(prepared, &mut store, goal_succ, &limits);
    let patterns = generate_patterns(&mut store, &space);
    DerivationGraph::build(prepared, &mut store, &patterns, env, &weights, goal)
}

/// The first 24 terms a depth-3 walk over `graph` emits, with weight bits.
fn walked(graph: &DerivationGraph, env: &TypeEnv) -> Vec<(String, u64)> {
    let limits = GenerateLimits {
        max_depth: Some(3),
        ..GenerateLimits::default()
    };
    generate_terms(graph, env, 24, &limits)
        .terms
        .iter()
        .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
        .collect()
}

/// One σ-inert edit of `env` (prepared as `prepared`), chosen by
/// `(kind, idx, weight)`: an add copying a declaration's type, an inert
/// removal, or a reweight — with weights drawn so that ties (with the copied
/// or a neighbouring declaration) and zeros are common. Returns the delta,
/// the edited list and the kept indices, or `None` for a removal that is not
/// inert.
fn inert_edit(
    env: &TypeEnv,
    prepared: &PreparedEnv,
    step: usize,
    (kind, idx, weight): (u8, usize, u8),
) -> Option<(EnvDelta, TypeEnv, Vec<usize>)> {
    let i = idx % env.len();
    let tie = |j: usize| prepared.decl_weight[j % env.len()].value();
    let pick = |w: u8, tied: f64| match w {
        0 => Some(0.0),
        1 => Some(tied),
        2 => Some(tied + 7.5),
        _ => None,
    };
    let kept: Vec<usize> = (0..env.len()).filter(|&j| kind != 1 || j != i).collect();
    let delta = match kind {
        0 => {
            let mut decl = Declaration::simple(
                format!("add{step}"),
                env.decls()[i].ty.clone(),
                DeclKind::Local,
            );
            decl.weight_override = pick(weight, tie(i));
            EnvDelta::new().add(decl)
        }
        1 if prepared.removal_is_inert(&kept) => {
            EnvDelta::new().remove(env.decls()[i].name.clone())
        }
        1 => return None,
        _ => {
            let w = pick(weight, tie(i + 1)).unwrap_or(1.0);
            EnvDelta::new().reweight(env.decls()[i].name.clone(), w)
        }
    };
    let edited = delta.apply(env);
    Some((delta, edited, kept))
}

proptest! {
    // Deterministic CI: the case count and the RNG seed are pinned, so every
    // run generates the identical sequence of environments and goals. The
    // vendored proptest stand-in derives each case's stream from
    // (rng_seed, test name, case index) and keeps no failure-persistence
    // file, so there is nothing machine-local to flake on.
    #![proptest_config(ProptestConfig { cases: 48, rng_seed: 0x0001_5eed, ..ProptestConfig::default() })]

    #[test]
    fn every_synthesized_term_type_checks(env in arb_env(), goal in arb_goal()) {
        let config = SynthesisConfig::unbounded().with_max_depth(4);
        let result = Engine::new(config)
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(50));
        let bindings = env.to_bindings();
        for snippet in &result.snippets {
            prop_assert!(check(&bindings, &snippet.raw_term, &goal).is_ok(),
                "term {} of weight {:?} does not check", snippet.raw_term, snippet.weight);
        }
    }

    #[test]
    fn ranking_is_sorted_by_weight(env in arb_env(), goal in arb_goal()) {
        let result = Engine::new(SynthesisConfig::default().with_max_depth(4))
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(30));
        prop_assert!(result.snippets.windows(2).all(|w| w[0].weight <= w[1].weight));
    }

    #[test]
    fn engine_matches_rcn_up_to_depth_three(env in arb_env(), goal in arb_goal()) {
        let depth = 3;
        let reference: HashSet<Term> =
            rcn(&env, &goal, depth).iter().map(Term::alpha_normalize).collect();
        let config = SynthesisConfig::unbounded().with_max_depth(depth);
        let result = Engine::new(config)
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(50_000));
        let engine: HashSet<Term> = result
            .snippets
            .iter()
            .map(|s| s.raw_term.alpha_normalize())
            .collect();
        prop_assert_eq!(engine, reference);
    }

    #[test]
    fn inhabitation_verdicts_agree_across_engine_reference_and_provers(
        env in arb_env(),
        goal in arb_goal(),
    ) {
        let expected = is_inhabited_ref(&env, &goal);

        let session = Engine::new(SynthesisConfig::default()).prepare(&env);
        prop_assert_eq!(session.is_inhabited(&goal), expected);

        let (hyps, formula) = inhabitation_query(&env, &goal);
        let limits = ProverLimits::default();
        prop_assert_eq!(forward::prove(&hyps, &formula, &limits), Some(expected));
        prop_assert_eq!(g4ip::prove(&hyps, &formula, &limits), Some(expected));
    }

    #[test]
    fn sigma_ignores_argument_order_and_duplicates(args in vec(arb_ty(), 1..4), ret in prop::sample::select(BASE_TYPES.to_vec())) {
        let mut store = SuccinctStore::new();
        let forward_ty = Ty::fun(args.clone(), Ty::base(ret));
        let mut reversed_args = args.clone();
        reversed_args.reverse();
        let mut duplicated = args.clone();
        duplicated.extend(args.clone());
        let reversed_ty = Ty::fun(reversed_args, Ty::base(ret));
        let duplicated_ty = Ty::fun(duplicated, Ty::base(ret));

        let a = store.sigma(&forward_ty);
        let b = store.sigma(&reversed_ty);
        let c = store.sigma(&duplicated_ty);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
    }

    #[test]
    fn graph_walk_is_byte_identical_to_unindexed_reconstruction(env in arb_env(), goal in arb_goal()) {
        // The tentpole contract: compiling the pattern set into a derivation
        // graph and walking it must return exactly the RankedTerm list of the
        // pre-refactor pipeline — same terms, same order, same weight bits.
        use insynth::succinct::TypeStore;

        let weights = WeightConfig::default();
        let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let limits = GenerateLimits { max_depth: Some(4), ..GenerateLimits::default() };

        let reference = generate_terms_unindexed(
            &prepared, &mut store, &patterns, &env, &weights, &goal, 64, &limits,
        );
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);
        let walked = generate_terms(&graph, &env, 64, &limits);

        let key = |terms: &[insynth::core::RankedTerm]| -> Vec<(String, u64)> {
            terms
                .iter()
                .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
                .collect()
        };
        prop_assert_eq!(key(&walked.terms), key(&reference.terms));
    }

    #[test]
    fn astar_fallback_matches_unindexed_under_negative_weight_overrides(
        env in arb_env(),
        goal in arb_goal(),
    ) {
        // Negative overrides break weight monotonicity: the graph must skip
        // the heuristic, fall back to the plain best-first walk, and still
        // match the unindexed oracle byte for byte.
        use insynth::succinct::TypeStore;

        let env: TypeEnv = env
            .iter()
            .enumerate()
            .map(|(i, decl)| {
                let decl = decl.clone();
                if i % 3 == 0 {
                    decl.with_weight(-1.5 - i as f64)
                } else {
                    decl
                }
            })
            .collect();
        let weights = WeightConfig::default();
        let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let limits = GenerateLimits { max_depth: Some(3), ..GenerateLimits::default() };

        let reference = generate_terms_unindexed(
            &prepared, &mut store, &patterns, &env, &weights, &goal, 32, &limits,
        );
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);
        prop_assert!(!graph.has_heuristic(), "negative overrides must disable the heuristic");
        let walked = generate_terms(&graph, &env, 32, &limits);
        prop_assert!(!walked.astar);

        let key = |terms: &[insynth::core::RankedTerm]| -> Vec<(String, u64)> {
            terms
                .iter()
                .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
                .collect()
        };
        prop_assert_eq!(key(&walked.terms), key(&reference.terms));
    }

    #[test]
    fn graph_walk_matches_unindexed_for_tiny_n(
        env in arb_env(),
        goal in arb_goal(),
        n in 0usize..2,
    ) {
        // The degenerate request sizes: n = 0 must short-circuit identically,
        // n = 1 stops the walk at its very first emission.
        use insynth::succinct::TypeStore;

        let weights = WeightConfig::default();
        let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let limits = GenerateLimits { max_depth: Some(4), ..GenerateLimits::default() };

        let reference = generate_terms_unindexed(
            &prepared, &mut store, &patterns, &env, &weights, &goal, n, &limits,
        );
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);
        let walked = generate_terms(&graph, &env, n, &limits);

        let key = |terms: &[insynth::core::RankedTerm]| -> Vec<(String, u64)> {
            terms
                .iter()
                .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
                .collect()
        };
        prop_assert_eq!(key(&walked.terms), key(&reference.terms));
        prop_assert!(walked.terms.len() <= n);
    }

    #[test]
    fn frontier_truncated_walk_emits_a_sorted_subset_of_the_enumeration(
        env in arb_env(),
        goal in arb_goal(),
    ) {
        // A tiny frontier cap drops successors, so the truncated walk cannot
        // promise the reference's exact list — but everything it does emit
        // must be a genuine member of the (untruncated) enumeration, with its
        // exact weight, in ascending weight order.
        use insynth::succinct::TypeStore;
        use std::collections::HashSet;

        let weights = WeightConfig::default();
        let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);

        let full_limits = GenerateLimits { max_depth: Some(3), ..GenerateLimits::default() };
        let full = generate_terms(&graph, &env, 10_000, &full_limits);
        let full_set: HashSet<(String, u64)> = full
            .terms
            .iter()
            .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
            .collect();

        let tiny_limits = GenerateLimits {
            max_depth: Some(3),
            max_frontier: 3,
            ..GenerateLimits::default()
        };
        let truncated = generate_terms(&graph, &env, 10_000, &tiny_limits);
        prop_assert!(truncated.terms.len() <= full.terms.len());
        for window in truncated.terms.windows(2) {
            prop_assert!(window[0].weight <= window[1].weight);
        }
        for ranked in &truncated.terms {
            prop_assert!(
                full_set.contains(&(ranked.term.to_string(), ranked.weight.value().to_bits())),
                "truncated walk emitted {} which the full enumeration never produces",
                ranked.term
            );
        }
    }

    #[test]
    fn equal_fingerprints_share_preparation_and_answer_byte_identically(
        env in arb_env(),
        goal in arb_goal(),
        rotation in 0usize..8,
    ) {
        // The content-addressing contract. The identical declaration list
        // (a clone) shares one σ run and one graph build and answers
        // byte-identically — weight bits included. A rotation fingerprints
        // equal, but an engine already holding it answers `prepare(&env)`
        // exactly like a fresh engine does.
        let config = SynthesisConfig::unbounded().with_max_depth(3);
        let query = Query::new(goal).with_n(32);

        let engine = Engine::new(config.clone());
        let original = engine.prepare(&env);
        let cloned = engine.prepare(&env.clone());
        prop_assert_eq!(engine.prepare_count(), 1, "one σ run for both points");
        prop_assert_eq!(original.fingerprint(), cloned.fingerprint());
        let from_original = original.query(&query);
        let from_cloned = cloned.query(&query);
        prop_assert_eq!(engine.graph_build_count(), 1, "one graph for both points");
        prop_assert_eq!(result_key(&from_original), result_key(&from_cloned));
        prop_assert_eq!(stats_key(&from_original), stats_key(&from_cloned));

        let decls: Vec<Declaration> = env.iter().cloned().collect();
        let k = rotation % decls.len().max(1);
        let rotated: TypeEnv = decls[k..].iter().chain(&decls[..k]).cloned().collect();
        let seeded = Engine::new(config.clone());
        prop_assert_eq!(seeded.fingerprint(&env), seeded.fingerprint(&rotated));
        let _ = seeded.prepare(&rotated).query(&query);
        let from_seeded = seeded.prepare(&env).query(&query);
        let fresh = Engine::new(config).prepare(&env).query(&query);
        prop_assert_eq!(result_key(&from_seeded), result_key(&fresh));
        prop_assert_eq!(stats_key(&from_seeded), stats_key(&fresh));
    }

    #[test]
    fn session_update_is_byte_identical_to_fresh_preparation(
        env in arb_env(),
        goal in arb_goal(),
        adds in vec((arb_ty(), 0u8..3), 0..3),
        removes in vec(0usize..8, 0..2),
        reweights in vec((0usize..8, 0u32..88), 0..3),
    ) {
        // The delta contract: updating a warm session must answer exactly
        // like an independent engine preparing the edited environment from
        // scratch — including negative reweights, which flip the walk into
        // its best-first fallback, and removals, which stay incremental when
        // inert and take the fresh-prepare fallback otherwise.
        use insynth::succinct::TypeStore;

        let config = SynthesisConfig::unbounded().with_max_depth(3);
        let engine = Engine::new(config.clone());
        let session = engine.prepare(&env);
        // Warm the artifact cache so update() has something to carry over
        // or invalidate.
        let query = Query::new(goal).with_n(24);
        let _ = session.query(&query);

        let mut delta = EnvDelta::new();
        let added_tys: Vec<Ty> = adds.iter().map(|(ty, _)| ty.clone()).collect();
        for (i, (ty, kind)) in adds.into_iter().enumerate() {
            let kind = match kind {
                0 => DeclKind::Local,
                1 => DeclKind::Class,
                _ => DeclKind::Imported,
            };
            delta = delta.add(Declaration::simple(format!("new{i}"), ty, kind));
        }
        let removed_names: Vec<String> = removes
            .iter()
            .map(|idx| env.decls()[idx % env.len()].name.clone())
            .collect();
        for name in &removed_names {
            delta = delta.remove(name.clone());
        }
        for (idx, weight) in reweights {
            // Mapped to the -4.0..40.0 range, negatives included (they flip
            // the monotonicity regime and force the best-first fallback).
            delta = delta.reweight(
                env.decls()[idx % env.len()].name.clone(),
                f64::from(weight) / 2.0 - 4.0,
            );
        }

        let edited = delta.apply(session.env());
        // Adversarial seeding: the engine may already hold a *permuted*
        // ordering of the edited environment. Equal-weight ties emit in
        // declaration order, so update must prepare the edited list itself
        // rather than adopt the permuted point.
        if edited.len() > 1 {
            let rotated: TypeEnv = edited.decls()[1..]
                .iter()
                .chain(&edited.decls()[..1])
                .cloned()
                .collect();
            let _ = engine.prepare(&rotated);
        }

        let updated = session.update(&delta);
        let fresh = Engine::new(config).prepare(&edited);
        prop_assert_eq!(updated.fingerprint(), fresh.fingerprint());

        // When every removal is inert (the removed declaration interned no
        // type first and its σ class keeps a member) and no add brings a new
        // member into Γ, the incremental preparation must be the fresh one,
        // id for id — not merely answer like it.
        let base = session.prepared();
        let removed: Vec<usize> = (0..env.len())
            .filter(|&i| removed_names.contains(&env.decls()[i].name))
            .collect();
        let removals_inert = removed.iter().all(|&i| {
            !base.interned_new_type(i)
                && base
                    .select(base.decl_succ[i])
                    .iter()
                    .any(|j| !removed.contains(j))
        });
        let mut scratch = base.scratch();
        let adds_known = added_tys.iter().all(|ty| {
            let succ = scratch.sigma(ty);
            scratch.env_contains(base.init_env, succ)
        });
        if removals_inert && adds_known {
            prop_assert!(updated.prepared().identical_to(fresh.prepared()));
        }

        let from_updated = updated.query(&query);
        let from_fresh = fresh.query(&query);
        prop_assert_eq!(result_key(&from_updated), result_key(&from_fresh));
        prop_assert_eq!(stats_key(&from_updated), stats_key(&from_fresh));
    }

    #[test]
    fn inert_removals_stay_incremental_and_prepare_identically(
        env in arb_env(),
        goal in arb_goal(),
        copies in vec(0usize..8, 1..4),
        removes in vec(0usize..4, 1..3),
        adds in vec(0usize..8, 0..2),
    ) {
        // A declaration that repeats an earlier declaration's type interns
        // nothing, and the earlier one keeps its σ class alive: removing it
        // is inert. So is adding a type Γ already has. Such an update must
        // take the incremental path and still prepare to the fresh ids.
        let originals = env.len();
        let mut env = env;
        for (i, idx) in copies.iter().enumerate() {
            let ty = env.decls()[idx % originals].ty.clone();
            env.push(Declaration::simple(format!("copy{i}"), ty, DeclKind::Local));
        }
        let config = SynthesisConfig::unbounded().with_max_depth(3);
        let engine = Engine::new(config.clone());
        let session = engine.prepare(&env);
        let query = Query::new(goal).with_n(24);
        let _ = session.query(&query);

        let mut delta = EnvDelta::new();
        for idx in removes {
            delta = delta.remove(format!("copy{}", idx % copies.len()));
        }
        for (i, idx) in adds.iter().enumerate() {
            let ty = env.decls()[idx % originals].ty.clone();
            delta = delta.add(Declaration::simple(format!("new{i}"), ty, DeclKind::Class));
        }
        let updated = session.update(&delta);
        let stats = engine.stats();
        prop_assert_eq!(stats.prepare_count, 2);
        prop_assert_eq!(stats.incremental_prepare_count, 1);

        let fresh = Engine::new(config).prepare(&delta.apply(&env));
        prop_assert!(updated.prepared().identical_to(fresh.prepared()));
        prop_assert_eq!(result_key(&updated.query(&query)), result_key(&fresh.query(&query)));
    }

    #[test]
    fn argument_table_holds_the_sigma_of_each_uncurried_argument(
        env in arb_env(),
        copies in vec(0usize..8, 0..4),
        drop_mask in 0u8..16,
        adds in vec(arb_ty(), 0..3),
    ) {
        use insynth::succinct::TypeStore;

        // Copies repeat an earlier declaration's type, so dropping any of
        // them is inert; the appended declarations may bring new types.
        let weights = WeightConfig::default();
        let originals = env.len();
        let mut base_env = env;
        for (i, idx) in copies.iter().enumerate() {
            let ty = base_env.decls()[idx % originals].ty.clone();
            base_env.push(Declaration::simple(format!("copy{i}"), ty, DeclKind::Local));
        }
        let kept: Vec<usize> = (0..base_env.len())
            .filter(|&idx| idx < originals || drop_mask & (1 << (idx - originals)) == 0)
            .collect();
        let mut edited: TypeEnv = kept.iter().map(|&idx| base_env.decls()[idx].clone()).collect();
        for (i, ty) in adds.into_iter().enumerate() {
            edited.push(Declaration::simple(format!("new{i}"), ty, DeclKind::Class));
        }

        let base = PreparedEnv::prepare(&base_env, &weights);
        prop_assert!(base.removal_is_inert(&kept));
        let incremental = PreparedEnv::prepare_incremental(
            &base,
            &kept,
            &edited,
            &weights,
            PreparedEnv::fingerprint_of(&edited, &weights),
        );
        for prepared in [PreparedEnv::prepare(&edited, &weights), incremental] {
            let mut store = prepared.scratch();
            for (idx, decl) in edited.iter().enumerate() {
                let (args, _) = decl.ty.uncurry();
                let expected: Vec<_> = args.iter().map(|a| store.sigma(a)).collect();
                prop_assert_eq!(prepared.decl_arg_succs(idx), expected.as_slice());
            }
            // Each recorded id is a type the preparation itself interned.
            prop_assert_eq!(store.scratch_ty_count(), 0);
        }
    }

    #[test]
    fn resumed_pagination_is_byte_identical_to_one_shot_query(
        env in arb_env(),
        goal in arb_goal(),
        a in 0usize..10,
        b in 0usize..10,
        negative in 0u8..2,
    ) {
        // The resume contract: query(n=a) followed by query(n=a+b) on the
        // same session — which resumes the suspended walk and pops only the
        // delta — must answer exactly like a cold engine asking n=a+b in one
        // shot. Byte-identical terms and weights, and identical *cumulative*
        // search statistics, across random environments, random split
        // points, and both walk regimes (A* and, under negative weight
        // overrides, the non-monotone best-first fallback).
        let env: TypeEnv = if negative == 1 {
            env.iter()
                .enumerate()
                .map(|(i, decl)| {
                    let decl = decl.clone();
                    if i % 3 == 0 { decl.with_weight(-1.5 - i as f64) } else { decl }
                })
                .collect()
        } else {
            env
        };
        let config = SynthesisConfig::unbounded().with_max_depth(3);
        let query = |n: usize| Query::new(goal.clone()).with_n(n);

        let engine = Engine::new(config.clone());
        let session = engine.prepare(&env);
        let first = session.query(&query(a));
        prop_assert!(!first.stats.resumed);
        let resumed = session.query(&query(a + b));
        prop_assert!(resumed.stats.resumed, "the second query must resume the parked walk");
        prop_assert_eq!(engine.graph_build_count(), 1, "resume must not rebuild the graph");

        let oneshot = Engine::new(config).prepare(&env).query(&query(a + b));
        prop_assert!(!oneshot.stats.resumed);
        prop_assert_eq!(result_key(&resumed), result_key(&oneshot));
        prop_assert_eq!(stats_key(&resumed), stats_key(&oneshot));
        prop_assert_eq!(resumed.stats.has_more, oneshot.stats.has_more);
        if negative == 1 {
            prop_assert!(!resumed.stats.astar, "negative overrides must exercise the fallback");
        }

        // The first page is a prefix of the one-shot enumeration.
        let prefix_len = first.snippets.len();
        prop_assert_eq!(result_key(&first), result_key(&oneshot)[..prefix_len].to_vec());
    }

    #[test]
    fn no_weights_mode_finds_a_superset_of_goals(env in arb_env(), goal in arb_goal()) {
        // Whether *some* snippet exists must not depend on the weight mode.
        use insynth::core::WeightMode;
        let full = Engine::new(SynthesisConfig::unbounded().with_max_depth(3))
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(1000));
        let none = Engine::new(
            SynthesisConfig::unbounded()
                .with_max_depth(3)
                .with_weights(WeightConfig::new(WeightMode::NoWeights)),
        )
        .prepare(&env)
        .query(&Query::new(goal.clone()).with_n(1000));
        prop_assert_eq!(full.snippets.is_empty(), none.snippets.is_empty());
    }
}

proptest! {
    // Patching needs chains whose graphs keep their shape, which random
    // edits produce less often than not: more cases than the block above.
    #![proptest_config(ProptestConfig { cases: 160, rng_seed: 0x0001_5eed, ..ProptestConfig::default() })]

    #[test]
    fn patched_graphs_are_identical_to_fresh_builds_after_sigma_inert_edit_chains(
        env in arb_env(),
        goal in arb_goal(),
        leaves in 0usize..16,
        copies in vec(0usize..8, 0..4),
        edits in vec((0u8..3, 0usize..16, 0u8..4), 1..4),
    ) {
        // Leaves make goals inhabited, so graphs have nodes and edges to
        // patch; copies repeat a declaration's type, so removing one is inert
        // and weight ties are common.
        let originals = env.len();
        let mut env = env;
        for (bit, base) in BASE_TYPES.iter().enumerate() {
            if leaves & (1 << bit) != 0 {
                env.push(Declaration::simple(format!("leaf{base}"), Ty::base(*base), DeclKind::Class));
            }
        }
        for (i, idx) in copies.iter().enumerate() {
            let ty = env.decls()[idx % originals].ty.clone();
            env.push(Declaration::simple(format!("copy{i}"), ty, DeclKind::Local));
        }
        let weights = WeightConfig::default();
        let base = Arc::new(PreparedEnv::prepare(&env, &weights));
        let graph = build_graph(&base, &env, &goal);

        let config = SynthesisConfig::unbounded().with_max_depth(3);
        let engine = Engine::new(config.clone());
        let mut session = engine.prepare(&env);
        let query = Query::new(goal.clone()).with_n(24);
        let _ = session.query(&query);

        // Apply the chain with no query in between, composing the index map
        // from the graph's declarations to the edited list's.
        let (mut current, mut prepared) = (env.clone(), Arc::clone(&base));
        let mut old_to_new: Vec<u32> = (0..env.len() as u32).collect();
        for (step, edit) in edits.into_iter().enumerate() {
            let Some((delta, edited, kept)) = inert_edit(&current, &prepared, step, edit) else {
                continue;
            };
            let fingerprint = PreparedEnv::fingerprint_of(&edited, &weights);
            let next = Arc::new(PreparedEnv::prepare_incremental(
                &prepared, &kept, &edited, &weights, fingerprint,
            ));
            prop_assert!(next.same_sigma_space(&prepared), "the edit is σ-inert");
            let mut renumber = vec![DECL_REMOVED; current.len()];
            for (new, &old) in kept.iter().enumerate() {
                renumber[old] = new as u32;
            }
            for slot in &mut old_to_new {
                if *slot != DECL_REMOVED {
                    *slot = renumber[*slot as usize];
                }
            }
            session = session.update(&delta);
            current = edited;
            prepared = next;
        }

        let fresh_prepared = Arc::new(PreparedEnv::prepare(&current, &weights));
        prop_assert!(prepared.identical_to(&fresh_prepared));
        let fresh = build_graph(&fresh_prepared, &current, &goal);
        if let Some(patched) = graph.patch(&prepared, &current, &weights, &old_to_new) {
            prop_assert!(patched.identical_to(&fresh));
            prop_assert_eq!(walked(&patched, &current), walked(&fresh, &current));
        }

        // The session walks the same chain: one build for the warm-up, and
        // at most one build or patch for the edited point.
        let from_session = session.query(&query);
        let stats = engine.stats();
        prop_assert!(stats.graph_build_count + stats.graph_patch_count <= 2);
        let from_fresh = Engine::new(config).prepare(&current).query(&query);
        prop_assert_eq!(result_key(&from_session), result_key(&from_fresh));
        prop_assert_eq!(stats_key(&from_session), stats_key(&from_fresh));
    }
}

/// Deterministic companion to the frontier proptest: a frontier cap of one
/// entry on the `a : A, s : A → A` chain forces truncation immediately, and
/// the walk still drains what it managed to enqueue.
#[test]
fn frontier_cap_of_one_truncates_but_still_emits_enqueued_terms() {
    use insynth::succinct::TypeStore;

    let env: TypeEnv = vec![
        Declaration::simple("a", Ty::base("A"), DeclKind::Local),
        Declaration::simple(
            "s",
            Ty::fun(vec![Ty::base("A")], Ty::base("A")),
            DeclKind::Local,
        ),
    ]
    .into_iter()
    .collect();
    let goal = Ty::base("A");
    let weights = WeightConfig::default();
    let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(&goal);
    let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
    let patterns = generate_patterns(&mut store, &space);
    let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);

    let limits = GenerateLimits {
        max_frontier: 1,
        ..GenerateLimits::default()
    };
    let outcome = generate_terms(&graph, &env, 10, &limits);
    assert!(outcome.truncated, "a one-entry frontier must truncate");
    // The root expansion enqueues `a` (weight 5) and then hits the cap before
    // `s([])`; the drain still emits the enqueued completion.
    let rendered: Vec<String> = outcome.terms.iter().map(|r| r.term.to_string()).collect();
    assert_eq!(rendered, vec!["a"]);

    // The unindexed reference behaves identically under the same cap.
    let reference = generate_terms_unindexed(
        &prepared, &mut store, &patterns, &env, &weights, &goal, 10, &limits,
    );
    assert!(reference.truncated);
    let reference_rendered: Vec<String> =
        reference.terms.iter().map(|r| r.term.to_string()).collect();
    assert_eq!(reference_rendered, rendered);
}

/// Queries `goal` on `env`, applies `delta` and queries again; returns the
/// engine's graph builds and patches and whether the edited session
/// answered like a fresh engine.
fn edit_and_requery(env: TypeEnv, delta: EnvDelta, goal: Ty) -> (usize, usize, bool) {
    let config = SynthesisConfig::unbounded().with_max_depth(4);
    let engine = Engine::new(config.clone());
    let session = engine.prepare(&env);
    let query = Query::new(goal).with_n(10);
    let _ = session.query(&query);
    let updated = session.update(&delta);
    assert_eq!(
        engine.stats().incremental_prepare_count,
        1,
        "the edit stays incremental"
    );
    assert!(updated.prepared().same_sigma_space(session.prepared()));
    let edited = updated.query(&query);
    let fresh = Engine::new(config)
        .prepare(&delta.apply(&env))
        .query(&query);
    let stats = engine.stats();
    (
        stats.graph_build_count,
        stats.graph_patch_count,
        result_key(&edited) == result_key(&fresh),
    )
}

fn local(name: &str, ty: Ty) -> Declaration {
    Declaration::simple(name, ty, DeclKind::Local)
}

#[test]
fn a_negative_override_builds_instead_of_patching() {
    // Reweighting `s2` below zero makes the weights non-monotone: the A*
    // heuristic goes, so the graph is rebuilt.
    let a_to_a = Ty::fun(vec![Ty::base("A")], Ty::base("A"));
    let env: TypeEnv = vec![
        local("a", Ty::base("A")),
        local("s", a_to_a.clone()),
        local("s2", a_to_a),
    ]
    .into_iter()
    .collect();
    let delta = EnvDelta::new().reweight("s2", -1.0);
    assert_eq!(edit_and_requery(env, delta, Ty::base("A")), (2, 0, true));
}

#[test]
fn removing_a_declaration_that_interned_a_hole_type_builds_instead_of_patching() {
    // `k` interns every σ type first, so removing `d` is σ-inert and `d2`
    // keeps its σ class — but `d` is the first `{A} → C` declaration the
    // graph visits, so it interned the hole type `A`.
    let a_to_c = Ty::fun(vec![Ty::base("A")], Ty::base("C"));
    let env: TypeEnv = vec![
        local("k", Ty::fun(vec![a_to_c.clone()], Ty::base("D"))),
        local("a", Ty::base("A")),
        local("d", a_to_c.clone()),
        local("d2", a_to_c),
    ]
    .into_iter()
    .collect();
    let delta = EnvDelta::new().remove("d");
    assert_eq!(edit_and_requery(env, delta, Ty::base("C")), (2, 0, true));
}

#[test]
fn a_reweight_that_changes_a_sigma_class_weight_builds_instead_of_patching() {
    // `name` is one of two weight-5 `String` locals; at weight 1 it lowers
    // the class weight exploration orders its queue by.
    let env: TypeEnv = vec![
        local("name", Ty::base("String")),
        local("path", Ty::base("String")),
        Declaration::simple(
            "mkFile",
            Ty::fun(vec![Ty::base("String")], Ty::base("File")),
            DeclKind::Imported,
        ),
    ]
    .into_iter()
    .collect();
    let raised = EnvDelta::new().reweight("path", 20.0);
    assert_eq!(
        edit_and_requery(env.clone(), raised, Ty::base("File")),
        (1, 1, true),
        "a reweight that keeps the class weight patches"
    );
    let lowered = EnvDelta::new().reweight("name", 1.0);
    assert_eq!(
        edit_and_requery(env, lowered, Ty::base("File")),
        (2, 0, true)
    );
}
