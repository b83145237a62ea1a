//! Regenerates `BENCH_BASELINE.json`: recorded reference numbers for the
//! `env_scaling` (benches/phases.rs), `sigma_prepare` (benches/compression.rs),
//! `session_amortization`, `gent_ablation`, `genp_ablation`,
//! `resume_walk`, `server_roundtrip`, `analysis` and `trace_replay`
//! benchmark workloads.
//!
//! The vendored criterion stand-in only prints to stdout, so this binary
//! re-measures the same workloads with the same scheme (warm-up calibration,
//! then fixed-size samples of batched iterations, min/median/mean per
//! iteration) and writes them as JSON that perf PRs can diff against.
//!
//! Recorded alongside the production numbers are two "before" workloads kept
//! alive for the paper's ablations:
//!
//! * `session_amortization/query_unindexed_pipeline` — a query answered by
//!   the pre-derivation-graph pipeline (explore + patterns + unindexed
//!   reconstruction on every call); the gap to
//!   `query_on_prepared_session` is what the graph refactor buys.
//! * `genp_ablation/naive_saturation` vs `optimized_backward_map` — the §5.7
//!   backward-map optimization at paper scale (the filler-4 environment).
//!
//! Newer A*-era entries sit alongside those:
//!
//! * `session_amortization/query_astar` — the `query_on_prepared_session`
//!   measurement recorded under a second id (same numbers, not re-measured)
//!   to pin that the prepared-session query has been the heuristic-guided
//!   (A*) pipeline since the heuristic landed; the bin asserts the query
//!   actually runs A* before recording.
//! * `gent_ablation/astar_walk` vs `best_first_walk` — reconstruction alone
//!   (no explore/patterns/graph build) on the same prebuilt filler-4 graph,
//!   with and without the completion-cost heuristic.
//!
//! Run with `cargo run --release -p insynth_bench --bin baseline` from the
//! workspace root; pass a path to write elsewhere. Numbers are wall-clock and
//! machine-specific: regenerate the file on the machine you compare on.
//!
//! Cross-point entries (the content-addressing PR):
//!
//! * `session_amortization/prepare_fingerprint_hit` — preparing the
//!   identical environment again on a warm engine (hash + declaration-list
//!   comparison, no σ).
//!
//! Resumable-enumeration entries (the streamed-walk PR):
//!
//! * `resume_walk/astar_scratch` vs `astar_resume` — an `n=20` query on a
//!   warm session with the suspended walk dropped every iteration (full
//!   walk replay) vs kept parked (the steady-state pagination path, which
//!   serves the emission log without popping the frontier).
//!
//! Server entries (the completion-server PR):
//!
//! * `server_roundtrip/complete_warm` — one warm `completion/complete`
//!   through the full `insynth_server` stack (line parse, dispatch, engine
//!   query, response serialization) on filler-4; the gap to
//!   `session_amortization/query_on_prepared_session` is the per-request
//!   protocol overhead.
//!
//! Trace-replay entries (the editor-trace PR):
//!
//! * `trace_replay/{library,server}_figure1` — one full replay of a seeded
//!   2000-event editor trace (8 points, Zipf-skewed, default delta mix)
//!   against the filler-4 environment, through the library path and the
//!   JSON server path respectively; the gap between the two ids is the
//!   protocol overhead integrated over a whole editing session rather than
//!   a single warm round trip.
//! * `trace_replay/{library,server}_scaled13k` — a shorter 300-event trace
//!   (4 points) against the ~13k-decl scaled model, the before-number for
//!   the tombstone/O(delta) update work.
//!
//! `--check [path]` instead runs the perf smoke test CI executes on every
//! push:
//!
//! 1. a **deterministic cross-point gate** — four sequential
//!    `Engine::prepare` + `query` calls over separately cloned copies of the
//!    filler-4 environment asking one goal (one of them with `n = 4`) must
//!    report exactly one σ run and exactly one derivation-graph build
//!    (`Engine::prepare_count` / `Engine::graph_build_count`); no timing
//!    involved, so no noise;
//! 2. a **deterministic pops gate** — the A* walk must pop at most half the
//!    queue entries of the plain best-first walk on the filler-4 graph;
//! 3. a **deterministic resume gate** — growing `n=10` into `n=20` on a warm
//!    session must resume the suspended walk: zero extra graph builds,
//!    strictly fewer new pops than a from-scratch `n=20`, byte-identical
//!    answers;
//! 4. a **deterministic scripted-session gate** — the server integration
//!    test's stdio script must replay byte-identically on two fresh servers
//!    and report exactly the expected cache-hit counters (2 σ runs, 1 graph
//!    build, 1 graph patch — the script's update is σ-inert — 2 resumed
//!    walks, 1 cancelled request) in its final `server/stats` reply;
//! 5. a **growth-exponent gate** — σ preparation re-measured along the
//!    scaled 12k/25k/51k-declaration ladder must fit a near-linear power
//!    law (exponent ≤ 1.5, re-measured once on a breach);
//! 6. an **environment-lint gate** — deterministic: `Engine::analyze` over
//!    the two shipped models (figure-1 filler-4 and the 13k scaled rung)
//!    must report exactly the pinned per-severity diagnostic counts and
//!    dead-declaration counts, and the committed `envlint.allow` must cover
//!    every warning — the library-level twin of the CI `env-lint` job;
//! 7. a **deterministic trace-replay gate** — a pinned seeded editor trace
//!    (400 events, 6 points, figure-1 filler-0) must replay to exactly the
//!    recorded event count, σ-run count, graph-build count and result
//!    digest, twice through the library path with byte-identical
//!    counters-only reports, and once through the JSON server path with
//!    the same digest; no timing involved;
//! 8. a **deterministic removal gate** — the same seeded trace with a
//!    removal-heavy update mix (update fraction 0.4, remove fraction 0.8)
//!    must prepare fresh no more often than it opens a point, i.e. every
//!    update, removals included, stays on the incremental σ path, must
//!    build and patch exactly the pinned numbers of derivation graphs, and
//!    must replay to the digest pinned while removals still prepared fresh;
//!    no timing involved;
//! 9. a **top-rung exploration gate** — exploring the 51k-decl
//!    `env_scaling` rung for the `env_scaling` goal under the default
//!    limits (500 ms prover time limit) must not be time-truncated and must
//!    process exactly as many requests as an unlimited run (re-measured
//!    once on a breach);
//! 10. a **timing-ratio gate** — re-measures the two `session_amortization`
//!     query workloads and fails if the graph pipeline's speedup over the
//!     unindexed pipeline shrank more than 25% against the recorded ratio.
//!     A single noisy measurement window must not fail CI, so a breach is
//!     re-measured once (both ratios are printed) and only a repeat breach
//!     fails. Comparing the *ratio*, with both sides measured on the current
//!     machine, makes the gate independent of how fast that machine is:
//!     absolute nanoseconds recorded here would be meaningless on a CI
//!     runner.

use std::time::{Duration, Instant};

use insynth_bench::replay::{replay_library, replay_server, trace_environment};
use insynth_bench::{
    build_graph, compression_environment, growth_exponent, phases_environment, scaled_environment,
    DEFAULT_CORPUS_SEED,
};
use insynth_core::{
    explore, generate_patterns, generate_patterns_naive, generate_terms, generate_terms_best_first,
    generate_terms_unindexed, Allowlist, DeclFacts, Engine, ExploreLimits, GenerateLimits,
    PreparedEnv, Query, SearchSpace, Severity, SynthesisConfig, TypeEnv, WeightConfig,
};
use insynth_corpus::trace::{generate_trace, Trace, TraceEnvSpec, TraceGenConfig};
use insynth_lambda::Ty;
use insynth_server::{env_to_json, serve_script, Json, Server, ServerConfig};
use insynth_succinct::TypeStore;

/// Rough wall-clock budget per sample (mirrors the vendored criterion).
const TARGET_SAMPLE: Duration = Duration::from_millis(20);

/// Maximum tolerated shrinkage of the graph-vs-unindexed query speedup, as a
/// factor of the recorded ratio.
const CHECK_TOLERANCE: f64 = 1.25;

/// Minimum factor by which the A* walk must cut queue pops against the plain
/// best-first walk on the filler-4 graph (the tentpole's perf contract;
/// deterministic, so checked without tolerance or re-measuring).
const POPS_RATIO_FLOOR: usize = 2;

/// Maximum tolerated growth exponent of σ preparation fitted along the
/// scaled 12k/25k/51k-declaration ladder. Preparation is interning-dominated
/// and near-linear (~1.1 measured); a breach means the environment axis
/// stopped scaling (e.g. something quadratic crept into the σ loop or the
/// index build).
const GROWTH_EXPONENT_CAP: f64 = 1.5;

/// The pinned counters of the deterministic trace-replay gate: replaying
/// [`trace_gate_trace`] must report exactly these, and the same result
/// digest on the library and server paths. The digest hashes term strings
/// and fingerprints only — no floats, no wall clock — so it is stable
/// across machines; drift means generation, replay semantics, or engine
/// cache accounting changed and the baseline must be re-recorded knowingly.
const TRACE_GATE_SEED: u64 = 1013;
const TRACE_GATE_EVENTS: usize = 400;
const TRACE_GATE_PREPARES: usize = 56;
const TRACE_GATE_GRAPH_BUILDS: usize = 32;
const TRACE_GATE_DIGEST: &str = "b2c25e7db777f25c";

/// The fixed editor trace the `--check` trace-replay gate replays: 400
/// events over 6 points against the filler-0 figure-1 environment — small
/// enough to replay three times inside the CI budget, busy enough to cover
/// opens, pages, deltas with removals, and closes.
fn trace_gate_trace() -> Trace {
    generate_trace(&TraceGenConfig {
        seed: TRACE_GATE_SEED,
        points: 6,
        events: TRACE_GATE_EVENTS as u64,
        env: TraceEnvSpec::Figure1 { filler: 0 },
        ..TraceGenConfig::default()
    })
}

/// The pinned digest of the deterministic removal gate: the
/// [`trace_gate_trace`] recipe with a removal-heavy update mix
/// ([`removal_gate_trace`]). Pinned while every removal still prepared
/// fresh, so the gate holds the incremental path to the fresh answers.
const REMOVAL_GATE_DIGEST: &str = "84ebbf87f8a112cc";
/// The removal gate's pinned graph builds and graph patches: its edits are
/// σ-inert, so most edited points patch an ancestor's graph.
const REMOVAL_GATE_GRAPH_BUILDS: usize = 64;
const REMOVAL_GATE_GRAPH_PATCHES: usize = 103;

/// The removal-heavy editor trace the `--check` removal gate replays: the
/// trace-replay gate's points, events and environment, with 40% of events
/// on open points updates and 80% of those updates removing a declaration
/// an earlier update added. Every removed declaration has type `String` or
/// `String -> String`, both interned by the ambient model and kept in Γ by
/// each point's stable locals, so every removal is inert.
fn removal_gate_trace() -> Trace {
    generate_trace(&TraceGenConfig {
        seed: TRACE_GATE_SEED,
        points: 6,
        events: TRACE_GATE_EVENTS as u64,
        env: TraceEnvSpec::Figure1 { filler: 0 },
        update_fraction: 0.4,
        remove_fraction: 0.8,
        ..TraceGenConfig::default()
    })
}

struct Measurement {
    bench: &'static str,
    group: &'static str,
    id: String,
    env_size: usize,
    samples: usize,
    iters_per_sample: u64,
    min_ns: u128,
    median_ns: u128,
    mean_ns: u128,
    /// For `env_scaling` entries: the growth exponent `k` of `time ≈ c·size^k`
    /// fitted (log-log least squares over the medians) across the ladder up
    /// to and including this rung. `None` for every other group, and for the
    /// first rung (one point fits no line).
    growth_exponent: Option<f64>,
}

/// Times `routine` the way the vendored criterion does: one warm-up call to
/// calibrate the per-sample iteration count, then `sample_size` samples.
fn measure<R>(
    sample_size: usize,
    mut routine: impl FnMut() -> R,
) -> (usize, u64, u128, u128, u128) {
    let start = Instant::now();
    std::hint::black_box(routine());
    let one = start.elapsed().max(Duration::from_nanos(1));
    let iters = (TARGET_SAMPLE.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut samples: Vec<u128> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        samples.push(start.elapsed().as_nanos() / iters as u128);
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<u128>() / samples.len() as u128;
    (sample_size, iters, min, median, mean)
}

/// One query through the pre-derivation-graph pipeline (explore + patterns +
/// unindexed reconstruction), as both the recorded baseline workload and the
/// `--check` reference measure it. Keeping a single definition is what makes
/// the recorded and measured ratios comparable.
fn unindexed_query(
    prepared: &PreparedEnv,
    env: &insynth_core::TypeEnv,
    weights: &WeightConfig,
    goal: &Ty,
) -> insynth_core::GenerateOutcome {
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(goal);
    let space = explore(prepared, &mut store, goal_succ, &ExploreLimits::default());
    let patterns = generate_patterns(&mut store, &space);
    generate_terms_unindexed(
        prepared,
        &mut store,
        &patterns,
        env,
        weights,
        goal,
        10,
        &GenerateLimits::default(),
    )
}

/// The query the session benches answer, on the filler-4 paper-scale
/// environment of `benches/phases.rs`.
fn amortization_goal() -> Ty {
    Ty::base("SequenceInputStream")
}

/// The scripted stdio session of `crates/server/tests/server.rs`, shared
/// verbatim (one source of truth): the `--check` scripted-session gate
/// replays it through the production transport and holds its final
/// `server/stats` counters to the expected cache economics.
const SESSION_SCRIPT: &str = include_str!("../../../server/tests/data/script.jsonl");

/// The committed allowlist of intentional lint findings, shared verbatim
/// with the CI `env-lint` job (`insynth-envlint --check --allowlist
/// envlint.allow`): the `--check` env-lint gate holds the shipped models to
/// zero non-allowlisted warnings under exactly this file.
const ENVLINT_ALLOWLIST: &str = include_str!("../../../../envlint.allow");

/// The env-lint gate's scaled-model declaration target — the 13k rung, the
/// same scale `insynth-envlint` defaults to.
const ENVLINT_SCALE: usize = 13_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_BASELINE.json".to_owned());

    if check {
        std::process::exit(run_check(&path));
    }

    let mut measurements: Vec<Measurement> = Vec::new();

    // env_scaling/synthesize_top10: end-to-end prepare + query, environment
    // growing with filler and then with synthetic API tiers up to IDE scale
    // (~51k declarations) — mirrors benches/phases.rs. Each rung records the
    // declaration count (env_size) and the growth exponent fitted over the
    // ladder up to that rung, so a perf diff can see *where* the curve bends,
    // not just that some wall time moved.
    let scaling_rungs: Vec<TypeEnv> = [0usize, 2, 4, 8]
        .iter()
        .map(|&filler| phases_environment(filler))
        .chain(
            [12_000usize, 25_000, 50_000]
                .iter()
                .map(|&target| scaled_environment(target)),
        )
        .collect();
    let mut ladder: Vec<(usize, u128)> = Vec::new();
    for env in &scaling_rungs {
        let env_size = env.len();
        eprintln!("measuring env_scaling/synthesize_top10/{env_size} …");
        let (samples, iters, min, median, mean) = measure(10, || {
            let engine = Engine::new(SynthesisConfig::default());
            let session = engine.prepare(env);
            session.query(&Query::new(amortization_goal()))
        });
        ladder.push((env_size, median));
        measurements.push(Measurement {
            bench: "phases",
            group: "env_scaling",
            id: format!("synthesize_top10/{env_size}"),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: (ladder.len() > 1).then(|| growth_exponent(&ladder)),
        });
    }

    // session_amortization: prepare once vs query on a prepared session
    // (derivation-graph pipeline, cache warm after the first call) vs the
    // pre-refactor pipeline re-run per query.
    {
        let env = phases_environment(4);
        let env_size = env.len();
        let engine = Engine::new(SynthesisConfig::default());
        let goal = amortization_goal();

        // A fresh engine per iteration measures the true σ cost; on a shared
        // engine every iteration after the first would be a fingerprint hit.
        eprintln!("measuring session_amortization/prepare_only/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(10, || Engine::new(SynthesisConfig::default()).prepare(&env));
        measurements.push(Measurement {
            bench: "phases",
            group: "session_amortization",
            id: "prepare_only".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        // The cross-point fast path: the engine already holds the point, so
        // preparing the identical environment is hash + list comparison.
        eprintln!("measuring session_amortization/prepare_fingerprint_hit/{env_size} …");
        let _warm = engine.prepare(&env);
        let (samples, iters, min, median, mean) = measure(10, || engine.prepare(&env));
        measurements.push(Measurement {
            bench: "phases",
            group: "session_amortization",
            id: "prepare_fingerprint_hit".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        eprintln!("measuring session_amortization/query_on_prepared_session/{env_size} …");
        let session = engine.prepare(&env);
        let query = Query::new(goal.clone());
        assert!(
            session.query(&query).stats.astar,
            "the prepared-session query is expected to run the A* walk"
        );
        let (samples, iters, min, median, mean) = measure(10, || session.query(&query));
        // One workload, two ids: `query_astar` pins that the prepared-session
        // query has been the heuristic-guided pipeline since PR 4 (asserted
        // above), while `query_on_prepared_session` keeps the longitudinal
        // series the --check gate reads. Recording the same measurement twice
        // avoids paying for the workload twice per regeneration.
        for id in ["query_on_prepared_session", "query_astar"] {
            measurements.push(Measurement {
                bench: "phases",
                group: "session_amortization",
                id: id.to_owned(),
                env_size,
                samples,
                iters_per_sample: iters,
                min_ns: min,
                median_ns: median,
                mean_ns: mean,
                growth_exponent: None,
            });
        }

        eprintln!("measuring session_amortization/query_unindexed_pipeline/{env_size} …");
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let (samples, iters, min, median, mean) =
            measure(10, || unindexed_query(&prepared, &env, &weights, &goal));
        measurements.push(Measurement {
            bench: "phases",
            group: "session_amortization",
            id: "query_unindexed_pipeline".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // gent_ablation: reconstruction alone on the same prebuilt filler-4
    // graph, with (A*) and without (plain best-first) the completion-cost
    // heuristic — the walk-level gap the heuristic buys.
    {
        let env = phases_environment(4);
        let env_size = env.len();
        let weights = WeightConfig::default();
        let goal = amortization_goal();
        let graph = build_graph(&env, &weights, &goal);
        let limits = GenerateLimits::default();

        eprintln!("measuring gent_ablation/astar_walk/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(10, || generate_terms(&graph, &env, 10, &limits));
        measurements.push(Measurement {
            bench: "phases",
            group: "gent_ablation",
            id: "astar_walk".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        eprintln!("measuring gent_ablation/best_first_walk/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(10, || generate_terms_best_first(&graph, &env, 10, &limits));
        measurements.push(Measurement {
            bench: "phases",
            group: "gent_ablation",
            id: "best_first_walk".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        let astar = generate_terms(&graph, &env, 10, &limits);
        let best_first = generate_terms_best_first(&graph, &env, 10, &limits);
        eprintln!(
            "  (A* pops {} of best-first {})",
            astar.steps, best_first.steps
        );
    }

    // resume_walk: the resumable-enumeration gap on a warm session. Both
    // workloads ask n=20 on the cached filler-4 graph; `astar_scratch`
    // drops the suspended walk every iteration (full replay), while
    // `astar_resume` keeps it parked — the steady-state pagination path,
    // which serves the emission log without popping the frontier.
    {
        let env = phases_environment(4);
        let env_size = env.len();
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env);
        let query = Query::new(amortization_goal()).with_n(20);
        assert!(
            session.query(&query).stats.astar,
            "the resume workloads are expected to run the A* walk"
        );

        eprintln!("measuring resume_walk/astar_scratch/{env_size} …");
        let (samples, iters, min, median, mean) = measure(10, || {
            engine.clear_suspended_walks();
            session.query(&query)
        });
        measurements.push(Measurement {
            bench: "phases",
            group: "resume_walk",
            id: "astar_scratch".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        eprintln!("measuring resume_walk/astar_resume/{env_size} …");
        let _park = session.query(&query);
        let (samples, iters, min, median, mean) = measure(10, || session.query(&query));
        measurements.push(Measurement {
            bench: "phases",
            group: "resume_walk",
            id: "astar_resume".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // genp_ablation at paper scale: the §5.7 backward map vs the naive
    // PROD/TRANSFER saturation, on the same explored space.
    {
        let env = phases_environment(4);
        let env_size = env.len();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&amortization_goal());
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());

        eprintln!("measuring genp_ablation/optimized_backward_map/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(10, || generate_patterns(&mut store, &space));
        measurements.push(Measurement {
            bench: "phases",
            group: "genp_ablation",
            id: "optimized_backward_map".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });

        eprintln!("measuring genp_ablation/naive_saturation/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(10, || generate_patterns_naive(&mut store, &space));
        measurements.push(Measurement {
            bench: "phases",
            group: "genp_ablation",
            id: "naive_saturation".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // server_roundtrip: one warm `completion/complete` through the full
    // server stack (line parse → dispatch → engine query resuming the
    // parked walk → response serialization) on the filler-4 environment.
    // The gap to session_amortization/query_on_prepared_session is the
    // protocol overhead an editor pays per keystroke.
    {
        let env = phases_environment(4);
        let env_size = env.len();
        let server = Server::new(
            Engine::new(SynthesisConfig::default()),
            ServerConfig::default(),
        );
        let open = Json::object([
            ("id", Json::from(1u64)),
            ("method", Json::from("env/open")),
            ("params", Json::object([("env", env_to_json(&env))])),
        ]);
        let opened = server.handle_line(&open.to_string());
        assert!(
            opened.get("result").is_some(),
            "env/open failed in server_roundtrip setup: {opened}"
        );
        let complete = Json::object([
            ("id", Json::from(2u64)),
            ("method", Json::from("completion/complete")),
            (
                "params",
                Json::object([
                    ("session", Json::from(1u64)),
                    ("goal", Json::from("SequenceInputStream")),
                ]),
            ),
        ])
        .to_string();
        // Warm the graph cache and park the walk, as in a live session.
        let warmed = server.handle_line(&complete);
        assert!(
            warmed.get("result").is_some(),
            "completion/complete failed in server_roundtrip setup: {warmed}"
        );
        eprintln!("measuring server_roundtrip/complete_warm/{env_size} …");
        let (samples, iters, min, median, mean) = measure(10, || server.handle_line(&complete));
        measurements.push(Measurement {
            bench: "server",
            group: "server_roundtrip",
            id: "complete_warm".to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // sigma_prepare: σ-lowering + index construction alone — mirrors
    // benches/compression.rs.
    for filler in [0usize, 4, 8, 16] {
        let env = compression_environment(filler);
        let env_size = env.len();
        eprintln!("measuring sigma_prepare/{env_size} …");
        let (samples, iters, min, median, mean) =
            measure(20, || PreparedEnv::prepare(&env, &WeightConfig::default()));
        measurements.push(Measurement {
            bench: "compression",
            group: "sigma_prepare",
            id: format!("{env_size}"),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // analysis: the static-analysis pass on both shipped models. The σ
    // preparation and the analyzer's per-declaration facts are built once,
    // outside the timed closure, so every iteration pays exactly the
    // producibility fixpoint + diagnostics pass.
    for (id, env) in [
        ("analyze_figure1", phases_environment(4)),
        ("analyze_scaled13k", scaled_environment(ENVLINT_SCALE)),
    ] {
        let env_size = env.len();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let facts: Vec<DeclFacts> = env
            .iter()
            .enumerate()
            .map(|(idx, decl)| DeclFacts {
                name: decl.name.clone(),
                rendered_ty: decl.ty.to_string(),
                kind: decl.kind.to_string(),
                succ: prepared.decl_succ[idx],
                weight: prepared.decl_weight[idx].value(),
            })
            .collect();
        let lambda_weight = weights.lambda_weight().value();
        eprintln!("measuring analysis/{id}/{env_size} …");
        let (samples, iters, min, median, mean) = measure(10, || {
            insynth_analysis::analyze(&prepared.store, &facts, lambda_weight)
        });
        measurements.push(Measurement {
            bench: "phases",
            group: "analysis",
            id: id.to_owned(),
            env_size,
            samples,
            iters_per_sample: iters,
            min_ns: min,
            median_ns: median,
            mean_ns: mean,
            growth_exponent: None,
        });
    }

    // trace_replay: one full editor-trace replay per iteration, library vs
    // server path on identical workloads. The figure-1 trace is the
    // steady-state interactive profile; the scaled-13k trace is the
    // before-number for the tombstone/O(delta) update work (updates at that
    // scale pay full incremental re-preparation today).
    {
        let workloads = [
            (
                "figure1",
                10usize,
                generate_trace(&TraceGenConfig {
                    seed: DEFAULT_CORPUS_SEED,
                    points: 8,
                    events: 2000,
                    env: TraceEnvSpec::Figure1 { filler: 4 },
                    ..TraceGenConfig::default()
                }),
            ),
            (
                "scaled13k",
                5usize,
                generate_trace(&TraceGenConfig {
                    seed: DEFAULT_CORPUS_SEED,
                    points: 4,
                    events: 300,
                    env: TraceEnvSpec::Scaled {
                        target_decls: ENVLINT_SCALE,
                    },
                    ..TraceGenConfig::default()
                }),
            ),
        ];
        for (name, sample_size, trace) in &workloads {
            let ambient = trace_environment(trace.env);
            let env_size = ambient.len();
            for mode in ["library", "server"] {
                let id = format!("{mode}_{name}");
                eprintln!("measuring trace_replay/{id}/{env_size} …");
                let (samples, iters, min, median, mean) = measure(*sample_size, || match mode {
                    "library" => replay_library(trace, &ambient, 1),
                    _ => replay_server(trace, &ambient, 1),
                });
                measurements.push(Measurement {
                    bench: "trace",
                    group: "trace_replay",
                    id,
                    env_size,
                    samples,
                    iters_per_sample: iters,
                    min_ns: min,
                    median_ns: median,
                    mean_ns: mean,
                    growth_exponent: None,
                });
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"_note\": \"Reference timings for the env_scaling, session_amortization, gent_ablation, genp_ablation, resume_walk, server_roundtrip, sigma_prepare, analysis and trace_replay benchmark workloads. Wall-clock, machine-specific; regenerate on the machine you compare on with: cargo run --release -p insynth_bench --bin baseline. CI perf smoke: baseline --check runs ten gates and fails when (1) four sequential prepare + query calls over separately cloned equal filler-4 lists stop reporting exactly 1 prepare + 1 graph build, (2) the A* walk stops cutting filler-4 queue pops 2x vs the best-first walk, (3) growing n=10 into n=20 on a warm session stops resuming the suspended walk (extra graph builds, or not strictly fewer pops than a from-scratch n=20, or diverging answers), (4) the scripted server session stops being byte-stable or stops reporting its expected cache-hit counters (2 prepares, 1 graph build, 1 graph patch, 2 resumed walks, 1 cancelled request), (5) the σ-prepare growth exponent over the 12k/25k/51k ladder exceeds its cap, (6) Engine::analyze over the shipped models drifts from the pinned diagnostic counts or a warning escapes envlint.allow, (7) the pinned seeded editor trace stops replaying to its recorded event/prepare/graph-build counts and result digest (byte-identically across two library runs, with the server path digesting identically), (8) the removal-heavy variant of that trace prepares fresh more often than it opens a point or drifts from its pinned graph-build and graph-patch counts or digest, (9) exploring the 51k rung under the default limits is time-truncated or processes fewer requests than an unlimited run in two consecutive windows, or (10) the session_amortization query speedup regresses >25% vs this file in two consecutive measurement windows.\",\n",
    );
    out.push_str(
        "  \"_measurement\": \"per-iteration nanoseconds; warm-up-calibrated samples of batched iterations, as in vendor/criterion (min/median/mean only)\",\n",
    );
    out.push_str("  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let exponent = m
            .growth_exponent
            .map(|k| format!(", \"growth_exponent\": {k:.3}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"group\": \"{}\", \"id\": \"{}\", \"env_size\": {}, \"samples\": {}, \"iters_per_sample\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}{}}}{}\n",
            m.bench,
            m.group,
            m.id,
            m.env_size,
            m.samples,
            m.iters_per_sample,
            m.min_ns,
            m.median_ns,
            m.mean_ns,
            exponent,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {} measurements to {path}", measurements.len());
    for m in &measurements {
        println!(
            "  {}/{:<28} min {:>12} ns  median {:>12} ns  mean {:>12} ns",
            m.group, m.id, m.min_ns, m.median_ns, m.mean_ns
        );
    }
}

/// Extracts the recorded `median_ns` of a `(group, id)` entry from the
/// baseline file. The file is written by this binary with one benchmark per
/// line, so a line-oriented scan is enough — no JSON dependency needed. The
/// check compares medians rather than means: they are markedly more stable
/// across re-measurements of the ~27 ms unindexed workload.
fn recorded_median_ns(content: &str, group: &str, id: &str) -> Option<u128> {
    let group_needle = format!("\"group\": \"{group}\"");
    let id_needle = format!("\"id\": \"{id}\"");
    for line in content.lines() {
        if line.contains(&group_needle) && line.contains(&id_needle) {
            let rest = line.split("\"median_ns\": ").nth(1)?;
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            return digits.parse().ok();
        }
    }
    None
}

/// One timing window of the `--check` ratio gate: measures the
/// graph-pipeline query and the unindexed reference pipeline on the current
/// machine and returns `(graph median, unindexed median, speedup ratio)`.
fn measure_query_ratio(env: &TypeEnv, goal: &Ty) -> (u128, u128, f64) {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(env);
    let query = Query::new(goal.clone());
    eprintln!("measuring session_amortization/query_on_prepared_session …");
    let (_, _, _, query_median, _) = measure(20, || session.query(&query));

    eprintln!("measuring session_amortization/query_unindexed_pipeline …");
    let weights = WeightConfig::default();
    let prepared = PreparedEnv::prepare(env, &weights);
    let (_, _, _, unindexed_median, _) =
        measure(20, || unindexed_query(&prepared, env, &weights, goal));
    let ratio = unindexed_median as f64 / query_median.max(1) as f64;
    (query_median, unindexed_median, ratio)
}

/// The `--check` mode: the ten gates listed in the module docs, in order —
/// the deterministic cross-point, pops, resume and scripted-session gates,
/// the growth-exponent gate, the env-lint, trace-replay and removal gates,
/// the top-rung exploration gate, then the timing-ratio gate against the
/// recorded baseline. Timing compares the
/// speedup *ratio* with both sides measured on the current machine — a
/// machine being uniformly slower (a CI runner) scales both medians and
/// leaves the ratio unchanged; only a real regression of the production
/// query path shrinks it. A breached ratio is re-measured once and both
/// ratios are printed; only a repeat breach fails, so a single noisy
/// measurement window cannot fail CI. Returns the process exit code.
fn run_check(path: &str) -> i32 {
    let content = match std::fs::read_to_string(path) {
        Ok(content) => content,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let recorded_query = recorded_median_ns(
        &content,
        "session_amortization",
        "query_on_prepared_session",
    );
    let recorded_unindexed =
        recorded_median_ns(&content, "session_amortization", "query_unindexed_pipeline");
    let (Some(recorded_query), Some(recorded_unindexed)) = (recorded_query, recorded_unindexed)
    else {
        eprintln!(
            "{path} is missing the session_amortization query entries; \
             regenerate it with: cargo run --release -p insynth_bench --bin baseline"
        );
        return 2;
    };
    let recorded_ratio = recorded_unindexed as f64 / recorded_query.max(1) as f64;
    let floor = recorded_ratio / CHECK_TOLERANCE;

    let env = phases_environment(4);
    let goal = amortization_goal();

    // Gate 1 — cross-point reuse, deterministic: four sequential prepares
    // over separately cloned copies of one program point, each queried for
    // one goal (the last with n = 4), must run σ exactly once and build
    // exactly one derivation graph.
    let engine = Engine::new(SynthesisConfig::default());
    let copies = 4;
    let answers: Vec<_> = (0..copies)
        .map(|i| {
            let n = if i + 1 == copies { 4 } else { 10 };
            engine
                .prepare(&env.clone())
                .query(&Query::new(goal.clone()).with_n(n))
        })
        .collect();
    let cross_point_stats = engine.stats();
    println!(
        "cross-point prepares over {copies} equal copies: {} σ run(s), {} graph build(s) \
         (gate requires exactly 1 of each)",
        cross_point_stats.prepare_count, cross_point_stats.graph_build_count,
    );
    if cross_point_stats.prepare_count != 1 || cross_point_stats.graph_build_count != 1 {
        println!(
            "PERF REGRESSION: equal program points no longer share one preparation and one \
             derivation graph"
        );
        return 1;
    }
    if answers[0].snippets.is_empty() {
        println!("PERF REGRESSION: the cross-point queries returned no snippets");
        return 1;
    }

    // Gate 2 — queue pops, deterministic: the A* walk must pop at most
    // 1/POPS_RATIO_FLOOR of the best-first walk's entries on the same graph.
    let weights = WeightConfig::default();
    let graph = build_graph(&env, &weights, &goal);
    let limits = GenerateLimits::default();
    let astar = generate_terms(&graph, &env, 10, &limits);
    let best_first = generate_terms_best_first(&graph, &env, 10, &limits);
    println!(
        "A* walk pops {} vs best-first pops {}: {:.2}x fewer (gate requires >= {POPS_RATIO_FLOOR}x)",
        astar.steps,
        best_first.steps,
        best_first.steps as f64 / astar.steps.max(1) as f64,
    );
    if astar.steps * POPS_RATIO_FLOOR > best_first.steps {
        println!(
            "PERF REGRESSION: the A* walk no longer cuts filler-4 queue pops by at least \
             {POPS_RATIO_FLOOR}x against the best-first walk"
        );
        return 1;
    }

    // Gate 3 — resumable enumeration, deterministic: growing n=10 into n=20
    // on a warm session must resume the suspended walk — zero extra graph
    // builds, the `resumed` stat set, strictly fewer new pops than a
    // from-scratch n=20 on the same cached graph, and byte-identical
    // answers (cumulative pop counts included).
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&env);
    let ten = session.query(&Query::new(goal.clone()).with_n(10));
    let builds_after_ten = engine.stats().graph_build_count;
    let resumed = session.query(&Query::new(goal.clone()).with_n(20));
    engine.clear_suspended_walks();
    let scratch = session.query(&Query::new(goal.clone()).with_n(20));
    println!(
        "resume n=10→20: {} new pops over {} already paid vs {} from scratch, \
         {} extra graph build(s) (gate requires resume, 0 extra builds, strictly fewer pops)",
        resumed.stats.reconstruction_new_steps,
        ten.stats.reconstruction_steps,
        scratch.stats.reconstruction_steps,
        engine.stats().graph_build_count - builds_after_ten,
    );
    if engine.stats().graph_build_count != builds_after_ten {
        println!("PERF REGRESSION: growing n rebuilt the derivation graph instead of reusing it");
        return 1;
    }
    if !resumed.stats.resumed || scratch.stats.resumed {
        println!(
            "PERF REGRESSION: the grown query no longer resumes the suspended walk \
             (or clearing suspended walks stopped working)"
        );
        return 1;
    }
    if resumed.stats.reconstruction_new_steps >= scratch.stats.reconstruction_steps {
        println!(
            "PERF REGRESSION: resuming n=10→20 no longer pops strictly fewer entries \
             than a from-scratch n=20 walk"
        );
        return 1;
    }
    let render = |result: &insynth_core::SynthesisResult| -> Vec<(String, u64)> {
        result
            .snippets
            .iter()
            .map(|s| (s.raw_term.to_string(), s.weight.value().to_bits()))
            .collect()
    };
    if render(&resumed) != render(&scratch)
        || resumed.stats.reconstruction_steps != scratch.stats.reconstruction_steps
    {
        println!("PERF REGRESSION: resumed enumeration diverged from the from-scratch walk");
        return 1;
    }

    // Gate 4 — scripted server session, deterministic: the stdio script the
    // server integration test drives (open → complete → paginate → update →
    // complete → cancel → stats → close) must produce a byte-identical
    // transcript on two fresh servers, and its final `server/stats` reply
    // must report exactly the expected cache economics — 2 σ runs and 2
    // graph builds for the whole session (the paginated continuation and
    // the post-cancel query ride the caches), 2 resumed walks, 1 cancelled
    // request. Counter drift here means a cache stopped being hit on the
    // server path even if the library-level gates above still pass.
    let serve = || {
        let server = Server::new(
            Engine::new(SynthesisConfig::default()),
            ServerConfig::default(),
        );
        serve_script(&server, SESSION_SCRIPT)
    };
    let transcript = serve();
    if transcript != serve() {
        println!("PERF REGRESSION: the scripted server session is no longer byte-stable");
        return 1;
    }
    let stats_line = &transcript[transcript.len() - 3]; // stats precedes close + parse error
    let stats = insynth_server::parse_json(stats_line).expect("stats reply is JSON");
    let counter = |path: &[&str]| -> Option<u64> {
        let mut cur = stats.get("result")?;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_u64()
    };
    let observed = [
        (
            "engine prepare_count",
            counter(&["engine", "prepare_count"]),
            2,
        ),
        (
            "engine graph_build_count",
            counter(&["engine", "graph_build_count"]),
            1,
        ),
        (
            "engine graph_patch_count",
            counter(&["engine", "graph_patch_count"]),
            1,
        ),
        (
            "resumed completions",
            counter(&["completions", "resumed"]),
            2,
        ),
        (
            "cancelled completions",
            counter(&["completions", "cancelled"]),
            1,
        ),
    ];
    println!(
        "scripted server session: prepare {:?}, graph builds {:?}, graph patches {:?}, \
         resumed {:?}, cancelled {:?} (gate requires 2/1/1/2/1)",
        observed[0].1, observed[1].1, observed[2].1, observed[3].1, observed[4].1,
    );
    for (what, got, want) in observed {
        if got != Some(want) {
            println!(
                "PERF REGRESSION: the scripted server session reports {what} = {got:?}, \
                 expected {want} — a server-path cache stopped being hit"
            );
            return 1;
        }
    }

    // Gate 5 — growth exponent, re-measured once on a breach: σ preparation
    // along the 12k/25k/51k scaled ladder must stay near-linear. The
    // exponent is fitted on this machine (log-log least squares over the
    // medians), so the gate transfers across runner speeds the same way the
    // ratio gate below does.
    let scaled_rungs: Vec<TypeEnv> = vec![
        scaled_environment(12_000),
        scaled_environment(25_000),
        scaled_environment(50_000),
    ];
    let sizes: Vec<usize> = scaled_rungs.iter().map(TypeEnv::len).collect();
    let measure_exponent = |rungs: &[TypeEnv]| -> f64 {
        let ladder: Vec<(usize, u128)> = rungs
            .iter()
            .map(|env| {
                let (_, _, _, median, _) = measure(5, || PreparedEnv::prepare(env, &weights));
                (env.len(), median)
            })
            .collect();
        growth_exponent(&ladder)
    };
    let top_rung = scaled_rungs.last().expect("ladder is non-empty");
    let mut exponent = measure_exponent(&scaled_rungs);
    println!(
        "σ prepare growth exponent over {sizes:?} decls: {exponent:.2} \
         (cap {GROWTH_EXPONENT_CAP})"
    );
    if exponent > GROWTH_EXPONENT_CAP {
        println!("exponent above the cap — re-measuring once to rule out a noisy window …");
        exponent = measure_exponent(&scaled_rungs);
        println!("re-measured σ prepare growth exponent: {exponent:.2}");
        if exponent > GROWTH_EXPONENT_CAP {
            println!(
                "PERF REGRESSION: σ preparation no longer scales near-linearly along the \
                 environment axis in both measurement windows"
            );
            return 1;
        }
    }

    // Gate 6 — environment lint, deterministic: `Engine::analyze` over the
    // two shipped models must report exactly the pinned diagnostic counts,
    // and the committed allowlist must cover every warning — the
    // library-level twin of the CI env-lint job (which drives the
    // insynth-envlint binary over the same models with the same allowlist).
    // Reports are deterministic, so exact counts are safe to pin; drift
    // means the API model or the analyzer changed without the lint baseline
    // being re-recorded.
    {
        let allowlist =
            Allowlist::parse(ENVLINT_ALLOWLIST).expect("committed envlint.allow parses");
        let lint_engine = Engine::new(SynthesisConfig::default());
        let expectations = [
            (
                "figure1",
                phases_environment(4),
                2usize,
                67usize,
                [0usize, 2, 65],
            ),
            (
                "scaled13k",
                scaled_environment(ENVLINT_SCALE),
                16,
                365,
                [0, 16, 349],
            ),
        ];
        for (name, lint_env, dead, total, [errors, warnings, infos]) in expectations {
            let report = lint_engine.analyze(&lint_env);
            let failing = report.failing(Severity::Warning, &allowlist).len();
            println!(
                "env-lint {name}: {} diagnostics ({} error, {} warning, {} info), {} dead, \
                 {failing} non-allowlisted (gate requires {total} = {errors}/{warnings}/{infos}, \
                 {dead} dead, 0 non-allowlisted)",
                report.diagnostics.len(),
                report.count_at(Severity::Error),
                report.count_at(Severity::Warning),
                report.count_at(Severity::Info),
                report.dead_decls.len(),
            );
            let pinned = report.diagnostics.len() == total
                && report.count_at(Severity::Error) == errors
                && report.count_at(Severity::Warning) == warnings
                && report.count_at(Severity::Info) == infos
                && report.dead_decls.len() == dead;
            if !pinned || failing != 0 {
                println!(
                    "PERF REGRESSION: the {name} model's analysis report drifted from the \
                     pinned counts (or a warning escaped the allowlist) — re-record the lint \
                     baseline if the model change is intentional"
                );
                return 1;
            }
        }
    }

    // Gate 7 — trace replay, deterministic: the pinned seeded editor trace
    // must replay to exactly the recorded event/prepare/graph-build counts
    // and result digest, byte-identically across two library runs, and the
    // JSON server path must digest identically to the library path on the
    // same workload. Everything compared is integer counters and a
    // float-free digest, so the gate is safe on a noisy 1-core runner.
    {
        let trace = trace_gate_trace();
        let ambient = trace_environment(trace.env);
        let first = replay_library(&trace, &ambient, 1);
        let second = replay_library(&trace, &ambient, 1);
        let server = replay_server(&trace, &ambient, 1);
        println!(
            "trace replay: {} events, {} prepares, {} graph builds ({} patches), digest {} \
             (gate requires {TRACE_GATE_EVENTS}/{TRACE_GATE_PREPARES}/{TRACE_GATE_GRAPH_BUILDS}/{TRACE_GATE_DIGEST}); \
             server path digest {}",
            first.summary.events,
            first.prepares,
            first.graph_builds,
            first.graph_patches,
            first.digest_hex(),
            server.digest_hex(),
        );
        let pinned = first.summary.events == TRACE_GATE_EVENTS
            && first.prepares == TRACE_GATE_PREPARES
            && first.graph_builds == TRACE_GATE_GRAPH_BUILDS
            && first.digest_hex() == TRACE_GATE_DIGEST
            && first.errors == 0;
        let reproducible = first.to_json(true) == second.to_json(true);
        let server_matches = server.digest_hex() == first.digest_hex() && server.errors == 0;
        if !pinned || !reproducible || !server_matches {
            if !reproducible {
                println!("first and second library replays diverged:");
                println!(
                    "--- first\n{}\n--- second\n{}",
                    first.to_json(true),
                    second.to_json(true)
                );
            }
            println!(
                "PERF REGRESSION: the pinned editor trace no longer replays to its recorded \
                 counters/digest (or library and server paths diverged) — if the change to \
                 generation or replay semantics is intentional, re-pin the TRACE_GATE_* \
                 constants and re-record BENCH_BASELINE.json"
            );
            return 1;
        }
    }

    // Gate 8 — removals stay incremental, deterministic: the removal-heavy
    // trace must prepare fresh only when it opens a point (every update,
    // removals included, takes the incremental path) and must still digest
    // to the value pinned while every removal prepared fresh.
    {
        let trace = removal_gate_trace();
        let ambient = trace_environment(trace.env);
        let report = replay_library(&trace, &ambient, 1);
        let fresh = report.prepares - report.incremental_prepares;
        println!(
            "removal-heavy trace: {} updates ({} removals), {} opens, {} prepares ({} fresh), \
             {} graph builds, {} graph patches, digest {} (gate requires fresh <= opens, \
             {REMOVAL_GATE_GRAPH_BUILDS} builds, {REMOVAL_GATE_GRAPH_PATCHES} patches and digest \
             {REMOVAL_GATE_DIGEST})",
            report.summary.updates,
            report.summary.removals,
            report.summary.opens,
            report.prepares,
            fresh,
            report.graph_builds,
            report.graph_patches,
            report.digest_hex(),
        );
        if fresh > report.summary.opens
            || report.graph_builds != REMOVAL_GATE_GRAPH_BUILDS
            || report.graph_patches != REMOVAL_GATE_GRAPH_PATCHES
            || report.digest_hex() != REMOVAL_GATE_DIGEST
            || report.errors != 0
        {
            println!(
                "PERF REGRESSION: the removal-heavy trace left the incremental path (more fresh \
                 prepares than opens), its graph builds or patches drifted from the pinned \
                 counts, or its answers drifted from the pinned digest"
            );
            return 1;
        }
    }

    // Gate 9 — exploration at the top rung: under the default limits,
    // exploring the 51k-decl rung for the env_scaling goal must finish
    // inside the prover time limit and process exactly as many requests as
    // an unlimited run. While MATCH scanned all of Γ per request, the time
    // limit cut this exploration short after 60–70% of its requests on a
    // 2-vCPU machine. The outcome depends on the wall clock, so a
    // truncation is re-measured once.
    {
        let config = SynthesisConfig::default();
        let prepared = PreparedEnv::prepare(top_rung, &config.weights);
        let explore_with = |limits: &ExploreLimits| {
            let mut store = prepared.scratch();
            let goal_succ = store.sigma(&goal);
            let start = Instant::now();
            let space = explore(&prepared, &mut store, goal_succ, limits);
            (space, start.elapsed())
        };
        let default_limits = ExploreLimits {
            max_requests: config.max_explore_requests,
            time_limit: config.prover_time_limit,
        };
        let (unlimited, _) = explore_with(&ExploreLimits {
            max_requests: usize::MAX,
            time_limit: None,
        });
        let complete = |space: &SearchSpace| {
            !space.time_truncated && space.requests_processed == unlimited.requests_processed
        };
        let report = |space: &SearchSpace, elapsed: Duration| {
            println!(
                "explore at {} decls under the default limits: {} of {} requests in {:.1} ms, \
                 time-truncated: {} (gate requires all requests, untruncated)",
                top_rung.len(),
                space.requests_processed,
                unlimited.requests_processed,
                elapsed.as_secs_f64() * 1e3,
                space.time_truncated,
            );
        };
        let (mut bounded, elapsed) = explore_with(&default_limits);
        report(&bounded, elapsed);
        if !complete(&bounded) {
            println!("exploration incomplete — re-measuring once to rule out a noisy window …");
            let (second, elapsed) = explore_with(&default_limits);
            report(&second, elapsed);
            bounded = second;
        }
        if !complete(&bounded) {
            println!(
                "PERF REGRESSION: exploration of the top env_scaling rung no longer completes \
                 under the default prover time limit in both measurement windows"
            );
            return 1;
        }
    }

    // Gate 10 — query-time ratio, re-measured once on a breach.
    let (query_median, unindexed_median, first_ratio) = measure_query_ratio(&env, &goal);
    println!(
        "graph query median {query_median} ns, unindexed reference median {unindexed_median} ns: \
         speedup {first_ratio:.2}x (recorded {recorded_ratio:.2}x, floor {floor:.2}x)"
    );
    if first_ratio >= floor {
        println!("OK: speedup within 25% of the recorded baseline");
        return 0;
    }
    println!("speedup below the floor — re-measuring once to rule out a noisy window …");
    let (second_query, second_unindexed, second_ratio) = measure_query_ratio(&env, &goal);
    println!(
        "graph query median {second_query} ns, unindexed reference median {second_unindexed} ns: \
         speedup {second_ratio:.2}x (first window {first_ratio:.2}x, floor {floor:.2}x)"
    );
    if second_ratio < floor {
        println!(
            "PERF REGRESSION: the graph pipeline's speedup over the unindexed reference \
             shrank by more than 25% vs the recorded baseline in both measurement windows"
        );
        1
    } else {
        println!(
            "OK: the re-measured speedup is within 25% of the recorded baseline \
             (the first window was noise)"
        );
        0
    }
}
