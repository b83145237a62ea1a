//! Benchmark and table-regeneration crate.
//!
//! This crate hosts:
//!
//! * binaries that regenerate every table and figure of the paper's
//!   evaluation (`table1`, `table2`, `table3`, `figure1`, `compression`),
//! * Criterion micro-benchmarks for the phase breakdown, the prover
//!   comparison, the succinct-type compression and session amortization
//!   (`cargo bench -p insynth_bench`), and
//! * the `baseline` binary, which re-measures the `env_scaling` and
//!   `sigma_prepare` benchmarks outside the criterion harness and writes the
//!   reference numbers to `BENCH_BASELINE.json` at the workspace root.
//!
//! See `EXPERIMENTS.md` at the workspace root for the mapping from paper
//! tables/figures to these targets and for recorded paper-vs-measured results.

pub mod replay;

use insynth_apimodel::{extract, javaapi, ApiModel, ProgramPoint};
use insynth_core::{
    explore, generate_patterns, DerivationGraph, ExploreLimits, PreparedEnv, TypeEnv, WeightConfig,
};
use insynth_corpus::synthetic_corpus;
use insynth_lambda::Ty;
use insynth_succinct::TypeStore;

/// Re-exported so the binaries share one definition of the default corpus
/// seed used across all regenerated tables.
pub const DEFAULT_CORPUS_SEED: u64 = 42;

/// The Figure-1-style environment used by the `phases` benches
/// (`env_scaling`, phase breakdown, session amortization): java.lang +
/// java.io + java.util plus `filler` generated packages, with the two string
/// locals of the motivating example and corpus frequencies applied.
pub fn phases_environment(filler: usize) -> TypeEnv {
    let mut model = ApiModel::new();
    model.add_package(javaapi::java_lang());
    model.add_package(javaapi::java_io());
    model.add_package(javaapi::java_util());
    for i in 0..filler {
        model.add_package(javaapi::filler_package(i, 40, 12));
    }
    let mut point = ProgramPoint::new()
        .with_local("body", Ty::base("String"))
        .with_local("sig", Ty::base("String"));
    for package in model.packages() {
        point = point.with_import(package.name.clone());
    }
    let mut env = extract(&model, &point);
    let corpus = synthetic_corpus(&model, DEFAULT_CORPUS_SEED);
    corpus.apply(&mut env);
    env
}

/// Prepares `env` and compiles the derivation graph for `goal` — the
/// explore → patterns → graph build (incl. heuristic) pipeline a session
/// runs on a cache miss. One definition shared by the `baseline` binary,
/// the walk-ablation benches and the tests, so they all measure the same
/// graph.
pub fn build_graph(env: &TypeEnv, weights: &WeightConfig, goal: &Ty) -> DerivationGraph {
    let prepared = std::sync::Arc::new(PreparedEnv::prepare(env, weights));
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(goal);
    let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
    let patterns = generate_patterns(&mut store, &space);
    DerivationGraph::build(&prepared, &mut store, &patterns, env, weights, goal)
}

/// The IDE-scale environment used by the upper `env_scaling` rungs and the
/// growth-exponent gate: the standard model grown with synthetic API
/// tiers ([`javaapi::scaled_model`]) until it holds at least `target_decls`
/// declarations, everything imported, with the same two string locals and
/// corpus frequencies as [`phases_environment`]. Deterministic in
/// `target_decls`; the extracted environment is slightly larger than the
/// model's declaration count (imports add package/class declarations).
pub fn scaled_environment(target_decls: usize) -> TypeEnv {
    let model = javaapi::scaled_model(target_decls);
    let mut point = ProgramPoint::new()
        .with_local("body", Ty::base("String"))
        .with_local("sig", Ty::base("String"));
    for package in model.packages() {
        point = point.with_import(package.name.clone());
    }
    let mut env = extract(&model, &point);
    let corpus = synthetic_corpus(&model, DEFAULT_CORPUS_SEED);
    corpus.apply(&mut env);
    env
}

/// Least-squares fit of the growth exponent `k` in `time ≈ c · size^k` over a
/// benchmark ladder of `(size, nanoseconds)` rungs — the slope of log(time)
/// against log(size). Rungs with zero size or time are skipped; fewer than
/// two usable rungs fit no line and return 0. The `env_scaling` baseline
/// records the exponent fitted over the ladder up to each rung, and
/// `baseline --check` gates on the full-ladder fit staying near-linear.
pub fn growth_exponent(rungs: &[(usize, u128)]) -> f64 {
    let points: Vec<(f64, f64)> = rungs
        .iter()
        .filter(|(size, ns)| *size > 0 && *ns > 0)
        .map(|(size, ns)| ((*size as f64).ln(), (*ns as f64).ln()))
        .collect();
    if points.len() < 2 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let cov: f64 = points
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let var: f64 = points.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    if var == 0.0 {
        return 0.0;
    }
    cov / var
}

/// The environment used by the `compression` bench (`sigma_prepare`):
/// java.lang + java.io + javax.swing + java.awt plus `filler` generated
/// packages, everything imported, no locals and no corpus.
pub fn compression_environment(filler: usize) -> TypeEnv {
    let mut model = ApiModel::new();
    model.add_package(javaapi::java_lang());
    model.add_package(javaapi::java_io());
    model.add_package(javaapi::javax_swing());
    model.add_package(javaapi::java_awt());
    for i in 0..filler {
        model.add_package(javaapi::filler_package(i, 40, 12));
    }
    let mut point = ProgramPoint::new();
    for package in model.packages() {
        point = point.with_import(package.name.clone());
    }
    extract(&model, &point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_core::{generate_terms, generate_terms_best_first, GenerateLimits};

    #[test]
    fn bench_environments_grow_with_filler() {
        assert!(phases_environment(2).len() > phases_environment(0).len());
        assert!(compression_environment(4).len() > compression_environment(0).len());
    }

    #[test]
    fn scaled_environment_reaches_ide_scale() {
        let env = scaled_environment(12_000);
        assert!(env.len() >= 12_000, "got {}", env.len());
        // Deterministic: two extractions are byte-equal declaration lists.
        let again = scaled_environment(12_000);
        assert_eq!(env.decls(), again.decls());
    }

    #[test]
    fn growth_exponent_fits_known_power_laws() {
        let linear: Vec<(usize, u128)> = (1..=6).map(|i| (i * 1000, (i * 700) as u128)).collect();
        assert!((growth_exponent(&linear) - 1.0).abs() < 1e-9);
        let quadratic: Vec<(usize, u128)> =
            (1..=6).map(|i| (i * 1000, (i * i * 9) as u128)).collect();
        assert!((growth_exponent(&quadratic) - 2.0).abs() < 1e-9);
        // Degenerate ladders fit no line.
        assert_eq!(growth_exponent(&[]), 0.0);
        assert_eq!(growth_exponent(&[(1000, 5)]), 0.0);
        assert_eq!(growth_exponent(&[(1000, 5), (1000, 7)]), 0.0);
    }

    /// Builds the derivation graph the session benches walk, on the filler
    /// environment used across the paper-scale benchmarks.
    fn filler_graph(filler: usize) -> (TypeEnv, DerivationGraph) {
        let env = phases_environment(filler);
        let goal = Ty::base("SequenceInputStream");
        let graph = build_graph(&env, &WeightConfig::default(), &goal);
        (env, graph)
    }

    /// The A* heuristic is admissible on the paper-scale filler-4
    /// environment: the completion bound at the root never exceeds the
    /// weight of the best term the walk actually emits.
    #[test]
    fn astar_heuristic_is_admissible_on_the_filler_env() {
        let (env, graph) = filler_graph(4);
        assert!(graph.has_heuristic());
        let bound = graph
            .completion_bound()
            .expect("monotone graph has a bound");
        assert!(bound.is_finite(), "the benchmark goal is inhabited");
        let outcome = generate_terms(&graph, &env, 10, &GenerateLimits::default());
        assert!(!outcome.terms.is_empty());
        assert!(
            bound <= outcome.terms[0].weight,
            "h(root) = {:?} must not exceed the best emitted weight {:?}",
            bound,
            outcome.terms[0].weight
        );
    }

    /// The A* walk pops at least 2x fewer queue entries than the plain
    /// best-first walk on the filler-4 environment — the tentpole's perf
    /// contract, also enforced by `baseline --check` in CI — while emitting
    /// byte-identical terms.
    #[test]
    fn astar_walk_halves_queue_pops_on_filler4() {
        let (env, graph) = filler_graph(4);
        let limits = GenerateLimits::default();
        let astar = generate_terms(&graph, &env, 10, &limits);
        let best_first = generate_terms_best_first(&graph, &env, 10, &limits);
        assert!(astar.astar);
        assert!(!best_first.astar);
        let render = |o: &insynth_core::GenerateOutcome| {
            o.terms
                .iter()
                .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&astar), render(&best_first));
        assert!(
            astar.steps * 2 <= best_first.steps,
            "A* pops {} vs best-first {}: expected at least a 2x reduction",
            astar.steps,
            best_first.steps
        );
    }
}
