//! Pins the shape of the cold explore → patterns → graph pipeline on the
//! 14k-declaration editing model.
//!
//! The environment is the first program point the `edit_heavy` benchmark
//! workload opens at seed 42: the scaled 13,982-declaration model plus the
//! locals of the trace's first `Open` event. Each of the trace generator's
//! default goals is explored to exhaustion, then patterns and the derivation
//! graph are built from it. The request count, the pattern count and the
//! graph's node, edge and hole-type counts are pinned per goal, so an
//! optimisation that changes what the pipeline builds fails here, not only
//! in a timing. (On this model every goal reaches the same 4,000 requests
//! and builds graphs of the same size.)

use std::sync::Arc;

use insynth::bench::scaled_environment;
use insynth::core::{
    explore, generate_patterns, DerivationGraph, ExploreLimits, PreparedEnv, SynthesisConfig,
    TypeEnv,
};
use insynth::corpus::trace::{generate_trace, TraceEnvSpec, TraceEventKind, TraceGenConfig};
use insynth::succinct::TypeStore;

/// The `edit_heavy` trace configuration at seed 42.
fn edit_heavy_trace() -> TraceGenConfig {
    TraceGenConfig {
        seed: 42,
        points: 4,
        events: 200,
        env: TraceEnvSpec::Scaled {
            target_decls: 13_000,
        },
        update_fraction: 0.4,
        remove_fraction: 0.8,
        ..TraceGenConfig::default()
    }
}

/// The scaled model plus the locals of the trace's first `Open`.
fn first_point(config: &TraceGenConfig) -> TypeEnv {
    let mut env = scaled_environment(13_000);
    let trace = generate_trace(config);
    let locals = trace
        .events
        .iter()
        .find_map(|event| match &event.kind {
            TraceEventKind::Open { locals } => Some(locals.clone()),
            _ => None,
        })
        .expect("the trace opens a point");
    for decl in locals {
        env.push(decl);
    }
    env
}

#[test]
fn cold_pipeline_shape_on_the_edit_heavy_point_is_pinned() {
    let config = edit_heavy_trace();
    let env = first_point(&config);
    assert_eq!(env.len(), 13_984);

    let synthesis = SynthesisConfig::default();
    let weights = &synthesis.weights;
    let prepared = Arc::new(PreparedEnv::prepare(&env, weights));
    // No wall clock, so the counts do not depend on the speed of the
    // machine.
    let limits = ExploreLimits {
        max_requests: synthesis.max_explore_requests,
        time_limit: None,
    };

    // (goal, requests, patterns, graph nodes, graph edges, hole types)
    let mut measured = Vec::new();
    for goal in &config.goals {
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(goal);
        let space = explore(&prepared, &mut store, goal_succ, &limits);
        assert!(!space.truncated, "{goal}: exploration was cut short");
        let patterns = generate_patterns(&mut store, &space);
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, weights, goal);
        measured.push((
            goal.to_string(),
            space.requests_processed,
            patterns.len(),
            graph.node_count(),
            graph.edge_count(),
            graph.hole_ty_count(),
        ));
    }
    let expected: Vec<(String, usize, usize, usize, usize, usize)> = EXPECTED
        .iter()
        .map(|&(goal, r, p, n, e, h)| (goal.to_owned(), r, p, n, e, h))
        .collect();
    assert_eq!(measured, expected);
}

/// The pinned counts. A pipeline change that moves any of them changes what
/// the pipeline builds, and must say why.
const EXPECTED: [(&str, usize, usize, usize, usize, usize); 4] = [
    ("SequenceInputStream", 4_000, 30_756, 3_960, 55_760, 1_642),
    ("String", 4_000, 30_756, 3_960, 55_760, 1_642),
    ("BufferedReader", 4_000, 30_756, 3_960, 55_760, 1_642),
    ("FileInputStream", 4_000, 30_756, 3_960, 55_760, 1_642),
];
