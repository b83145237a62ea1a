//! Property-based tests for the parallel-preparation contracts.
//!
//! The sharded σ-lowering path (`PreparedEnv::prepare_sharded`) and the
//! parallel derivation-graph build (`DerivationGraph::build_with_threads`)
//! both promise **byte-identity**: for every shard/thread count — including
//! more shards than declarations and the degenerate 0/1-declaration
//! environments — the result must equal the sequential one id for id, weight
//! bit for weight bit. These tests hold random environments, random shard
//! counts and the engine-level knobs (`sigma_shards`, `graph_build_threads`)
//! to that contract, and check that the [`EnvFingerprint`] a preparation
//! carries never depends on how it was sharded. The argument table (σ of
//! each declaration's uncurried arguments) is part of the contract, and is
//! also checked against σ itself on every preparation path.

use proptest::collection::vec;
use proptest::prelude::*;

use insynth::core::{
    explore, generate_patterns, generate_terms, DeclKind, Declaration, DerivationGraph, Engine,
    ExploreLimits, GenerateLimits, PreparedEnv, Query, SynthesisConfig, SynthesisResult, TypeEnv,
    WeightConfig,
};
use insynth::lambda::Ty;
use insynth::succinct::TypeStore;

const BASE_TYPES: &[&str] = &["A", "B", "C", "D"];

/// A random simple type of bounded depth over a tiny base alphabet.
fn arb_ty() -> impl Strategy<Value = Ty> {
    let leaf = prop::sample::select(BASE_TYPES.to_vec()).prop_map(Ty::base);
    leaf.prop_recursive(2, 6, 2, |inner| {
        (vec(inner.clone(), 1..3), inner).prop_map(|(args, ret)| Ty::fun(args, ret))
    })
}

/// A random environment of up to eight declarations with varied kinds —
/// deliberately *smaller* than most tested shard counts, so the
/// more-shards-than-declarations regime is the common case, not the corner.
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

/// Walk output as comparable bytes: rendered term plus weight bit pattern.
fn walk_key(graph: &DerivationGraph, env: &TypeEnv) -> Vec<(String, u64)> {
    let limits = GenerateLimits {
        max_depth: Some(4),
        ..GenerateLimits::default()
    };
    generate_terms(graph, env, 64, &limits)
        .terms
        .iter()
        .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
        .collect()
}

proptest! {
    // Deterministic CI: pinned case count and RNG seed, as in
    // tests/properties.rs — the vendored proptest stand-in derives each
    // case's stream from (rng_seed, test name, case index).
    #![proptest_config(ProptestConfig { cases: 48, rng_seed: 0x0002_5eed, ..ProptestConfig::default() })]

    #[test]
    fn sharded_prepare_is_byte_identical_for_random_shard_counts(
        env in arb_env(),
        shards in 1usize..12,
    ) {
        // With up to 8 declarations and up to 11 shards this exercises both
        // regimes: several declarations per shard, and more shards than
        // declarations (where trailing shards get empty chunks).
        let weights = WeightConfig::default();
        let sequential = PreparedEnv::prepare(&env, &weights);
        let sharded = PreparedEnv::prepare_sharded(&env, &weights, shards);
        prop_assert_eq!(sharded.fingerprint, sequential.fingerprint);
        prop_assert!(
            sharded.identical_to(&sequential),
            "{} decls sharded {} ways diverged from the sequential preparation",
            env.len(),
            shards
        );
    }

    #[test]
    fn argument_table_holds_the_sigma_of_each_uncurried_argument(
        env in arb_env(),
        shards in 1usize..12,
        split in 0usize..8,
    ) {
        // Every preparation path — sequential, sharded, and appending the
        // declarations past `split` to a preparation of the ones before —
        // records, per declaration, σ of each uncurried argument in order.
        let weights = WeightConfig::default();
        let split = split.min(env.len());
        let prefix: TypeEnv = env.iter().take(split).cloned().collect();
        let kept: Vec<usize> = (0..split).collect();
        let appended = PreparedEnv::prepare_incremental(
            &PreparedEnv::prepare(&prefix, &weights),
            &kept,
            &env,
            &weights,
            PreparedEnv::fingerprint_of(&env, &weights),
        );
        let preparations = [
            PreparedEnv::prepare(&env, &weights),
            PreparedEnv::prepare_sharded(&env, &weights, shards),
            appended,
        ];
        for prepared in &preparations {
            let mut store = prepared.scratch();
            for (idx, decl) in env.iter().enumerate() {
                let (args, _) = decl.ty.uncurry();
                let expected: Vec<_> = args.iter().map(|a| store.sigma(a)).collect();
                prop_assert_eq!(prepared.decl_arg_succs(idx), expected.as_slice());
            }
            // Each recorded id is a type the preparation itself interned.
            prop_assert_eq!(store.scratch_ty_count(), 0);
        }
    }

    #[test]
    fn fingerprint_and_bytes_are_invariant_across_two_shardings(
        env in arb_env(),
        a in 1usize..12,
        b in 1usize..12,
    ) {
        // Not just sharded-vs-sequential: any two shard counts must agree
        // with each other, fingerprint included.
        let weights = WeightConfig::default();
        let first = PreparedEnv::prepare_sharded(&env, &weights, a);
        let second = PreparedEnv::prepare_sharded(&env, &weights, b);
        prop_assert_eq!(first.fingerprint, second.fingerprint);
        prop_assert!(first.identical_to(&second));
    }

    #[test]
    fn parallel_graph_build_is_byte_identical_to_sequential(
        env in arb_env(),
        goal in arb_goal(),
        threads in 2usize..10,
    ) {
        // The three-pass parallel build must produce the same graph as the
        // sequential one: same node/edge counts, same heuristic bound, and a
        // walk that emits the same ranked terms bit for bit.
        let weights = WeightConfig::default();
        let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));

        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let sequential =
            DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);

        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let parallel = DerivationGraph::build_with_threads(
            &prepared, &mut store, &patterns, &env, &weights, &goal, threads,
        );

        prop_assert_eq!(parallel.node_count(), sequential.node_count());
        prop_assert_eq!(parallel.edge_count(), sequential.edge_count());
        prop_assert_eq!(parallel.has_heuristic(), sequential.has_heuristic());
        prop_assert_eq!(parallel.completion_bound(), sequential.completion_bound());
        prop_assert_eq!(walk_key(&parallel, &env), walk_key(&sequential, &env));
    }

    #[test]
    fn engine_answers_are_invariant_under_parallelism_knobs(
        env in arb_env(),
        goal in arb_goal(),
        sigma_shards in 1usize..12,
        graph_build_threads in 1usize..12,
    ) {
        // End to end through the engine: a session configured with arbitrary
        // parallelism knobs must answer byte-identically to one pinned fully
        // sequential — the knobs may only change wall time, never output.
        let base = SynthesisConfig::unbounded().with_max_depth(3);
        let sequential_config = SynthesisConfig {
            sigma_shards: 1,
            graph_build_threads: 1,
            ..base.clone()
        };
        let parallel_config = SynthesisConfig {
            sigma_shards,
            graph_build_threads,
            ..base
        };
        let query = Query::new(goal).with_n(32);
        let sequential = Engine::new(sequential_config).prepare(&env).query(&query);
        let parallel = Engine::new(parallel_config).prepare(&env).query(&query);
        prop_assert_eq!(result_key(&parallel), result_key(&sequential));
    }
}

/// Deterministic companions covering the degenerate environments the random
/// generator cannot reach (it always emits at least one declaration).
#[test]
fn sharding_degenerate_environments_is_identical_to_sequential() {
    let weights = WeightConfig::default();

    let empty = TypeEnv::new();
    let sequential = PreparedEnv::prepare(&empty, &weights);
    for shards in [1usize, 2, 5, 64] {
        let sharded = PreparedEnv::prepare_sharded(&empty, &weights, shards);
        assert!(
            sharded.identical_to(&sequential),
            "empty env, {shards} shards"
        );
    }

    // One declaration, far more shards than work: every shard but the first
    // is an empty chunk, and the merge must still replay byte-identically.
    let single: TypeEnv = vec![Declaration::simple(
        "only",
        Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C")),
        DeclKind::Local,
    )]
    .into_iter()
    .collect();
    let sequential = PreparedEnv::prepare(&single, &weights);
    for shards in [1usize, 2, 7, 64] {
        let sharded = PreparedEnv::prepare_sharded(&single, &weights, shards);
        assert_eq!(sharded.fingerprint, sequential.fingerprint);
        assert!(
            sharded.identical_to(&sequential),
            "1-decl env, {shards} shards"
        );
    }
}
