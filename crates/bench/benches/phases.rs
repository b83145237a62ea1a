//! Phase breakdown, ablation and session-amortization benchmarks.
//!
//! * `explore/...`, `patterns/...` and `reconstruct/...` measure the three
//!   phases separately on a paper-scale environment (the Prove/Recon split of
//!   Table 2). The environment is prepared once; each phase runs against a
//!   query-local scratch overlay, as in the session API.
//! * `genp_ablation/...` compares the optimized (backward-map, §5.7) pattern
//!   generation against the naive PROD/TRANSFER saturation.
//! * `env_scaling/...` measures end-to-end synthesis (prepare + query) while
//!   the environment grows from a few hundred to several thousand
//!   declarations.
//! * `session_amortization/...` splits that end-to-end cost into its parts:
//!   preparing a session, querying an already prepared session, and
//!   preparing afresh for every query. The gap between the last two is the
//!   amortization the session API buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use insynth_bench::{build_graph, phases_environment as figure1_environment, scaled_environment};
use insynth_core::{
    explore, generate_patterns, generate_patterns_naive, generate_terms, generate_terms_best_first,
    generate_terms_unindexed, DerivationGraph, Engine, ExploreLimits, GenerateLimits, PreparedEnv,
    Query, SynthesisConfig, WeightConfig,
};
use insynth_lambda::Ty;
use insynth_succinct::TypeStore;

fn phase_breakdown(c: &mut Criterion) {
    let env = figure1_environment(4);
    let goal = Ty::base("SequenceInputStream");
    let weights = WeightConfig::default();
    let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));

    c.bench_function("explore/figure1", |bencher| {
        bencher.iter(|| {
            let mut store = prepared.scratch();
            let goal_succ = store.sigma(&goal);
            black_box(explore(
                &prepared,
                &mut store,
                goal_succ,
                &ExploreLimits::default(),
            ))
        })
    });

    // The patterns/reconstruct benches reuse the scratch that produced the
    // explored space: `space` references environments interned into that
    // overlay, so a fresh scratch per iteration would dangle those ids. The
    // interning is warm after the first iteration — these two therefore
    // measure the phase's algorithmic cost, not per-query intern traffic
    // (explore/figure1 above covers the cold-scratch path).
    c.bench_function("patterns/figure1", |bencher| {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        bencher.iter(|| black_box(generate_patterns(&mut store, &space)))
    });

    c.bench_function("graph_build/figure1", |bencher| {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        bencher.iter(|| {
            black_box(DerivationGraph::build(
                &prepared, &mut store, &patterns, &env, &weights, &goal,
            ))
        })
    });

    c.bench_function("reconstruct/figure1", |bencher| {
        let graph = build_graph(&env, &weights, &goal);
        bencher.iter(|| black_box(generate_terms(&graph, &env, 10, &GenerateLimits::default())))
    });

    // The A* vs plain best-first walk ablation on the same graph (the
    // heuristic's walk-level win; `reconstruct/figure1` above is the A* walk
    // end to end).
    c.bench_function("reconstruct_best_first/figure1", |bencher| {
        let graph = build_graph(&env, &weights, &goal);
        bencher.iter(|| {
            black_box(generate_terms_best_first(
                &graph,
                &env,
                10,
                &GenerateLimits::default(),
            ))
        })
    });

    c.bench_function("reconstruct_unindexed/figure1", |bencher| {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        bencher.iter(|| {
            black_box(generate_terms_unindexed(
                &prepared,
                &mut store,
                &patterns,
                &env,
                &weights,
                &goal,
                10,
                &GenerateLimits::default(),
            ))
        })
    });
}

fn genp_ablation(c: &mut Criterion) {
    // The naive saturation is quadratic, so the ablation runs on a moderate
    // environment (no filler).
    let env = figure1_environment(0);
    let goal = Ty::base("SequenceInputStream");
    let weights = WeightConfig::default();
    let prepared = PreparedEnv::prepare(&env, &weights);

    let mut group = c.benchmark_group("genp_ablation");
    group.bench_function("optimized_backward_map", |bencher| {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        bencher.iter(|| black_box(generate_patterns(&mut store, &space)))
    });
    group.bench_function("naive_saturation", |bencher| {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        bencher.iter(|| black_box(generate_patterns_naive(&mut store, &space)))
    });
    group.finish();
}

fn env_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("env_scaling");
    group.sample_size(10);
    // Filler rungs (hundreds to a few thousand declarations) followed by
    // synthetic-tier rungs up to IDE scale (~51k declarations).
    let rungs: Vec<_> = [0usize, 2, 4, 8]
        .iter()
        .map(|&filler| figure1_environment(filler))
        .chain(
            [12_000usize, 50_000]
                .iter()
                .map(|&target| scaled_environment(target)),
        )
        .collect();
    for env in &rungs {
        group.bench_with_input(
            BenchmarkId::new("synthesize_top10", env.len()),
            env,
            |bencher, env| {
                bencher.iter(|| {
                    let engine = Engine::new(SynthesisConfig::default());
                    let session = engine.prepare(env);
                    black_box(session.query(&Query::new(Ty::base("SequenceInputStream"))))
                })
            },
        );
    }
    group.finish();
}

fn session_amortization(c: &mut Criterion) {
    let env = figure1_environment(4);
    let query = Query::new(Ty::base("SequenceInputStream"));

    let mut group = c.benchmark_group("session_amortization");
    group.sample_size(10);
    // A fresh engine per iteration measures the true σ cost; a shared engine
    // would fingerprint-hit its point cache after the first iteration.
    group.bench_function("prepare_only", |bencher| {
        bencher.iter(|| black_box(Engine::new(SynthesisConfig::default()).prepare(&env)))
    });
    // The cross-point fast path: preparing the identical environment again
    // on a warm engine is a fingerprint hash + list comparison, no σ.
    let engine = Engine::new(SynthesisConfig::default());
    let _warm = engine.prepare(&env);
    group.bench_function("prepare_fingerprint_hit", |bencher| {
        bencher.iter(|| black_box(engine.prepare(&env)))
    });
    let session = engine.prepare(&env);
    group.bench_function("query_on_prepared_session", |bencher| {
        bencher.iter(|| black_box(session.query(&query)))
    });
    group.bench_function("prepare_per_query", |bencher| {
        bencher.iter(|| {
            black_box(
                Engine::new(SynthesisConfig::default())
                    .prepare(&env)
                    .query(&query),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    phase_breakdown,
    genp_ablation,
    env_scaling,
    session_amortization
);
criterion_main!(benches);
