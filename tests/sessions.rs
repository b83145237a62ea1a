//! Integration tests of the session API: prepare once / query many, several
//! program points on one engine, and concurrent use of a shared session.
//!
//! The determinism contract under test: a session prepared on a shared,
//! warm engine must answer byte-identically to a fresh engine preparing the
//! same declaration list, and a single `Arc<Session>` must serve identical
//! answers from any number of threads.

use std::sync::Arc;
use std::thread;

use insynth::apimodel::{extract, javaapi, ProgramPoint};
use insynth::core::{
    DeclKind, Declaration, Engine, EnvDelta, Query, Session, SynthesisConfig, SynthesisResult,
    TypeEnv,
};
use insynth::corpus::synthetic_corpus;
use insynth::lambda::Ty;

fn motivating_env(point: ProgramPoint) -> TypeEnv {
    let model = javaapi::standard_model();
    let mut env = extract(&model, &point);
    let corpus = synthetic_corpus(&model, 42);
    corpus.apply(&mut env);
    env
}

fn io_point_env() -> TypeEnv {
    motivating_env(
        ProgramPoint::new()
            .with_local("body", Ty::base("String"))
            .with_local("sig", Ty::base("String"))
            .with_import("java.io")
            .with_import("java.lang"),
    )
}

fn tree_point_env() -> TypeEnv {
    motivating_env(
        ProgramPoint::new()
            .with_local("tree", Ty::base("Tree"))
            .with_local("p", Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")))
            .with_import("scala.tools.eclipse.javaelements")
            .with_import("java.lang"),
    )
}

fn tiny_env() -> TypeEnv {
    vec![
        Declaration::simple("a", Ty::base("A"), DeclKind::Local),
        Declaration::simple(
            "s",
            Ty::fun(vec![Ty::base("A")], Ty::base("A")),
            DeclKind::Local,
        ),
    ]
    .into_iter()
    .collect()
}

/// Byte-precise fingerprint of a result: rendered terms, raw terms, and the
/// exact bit patterns of the ranking weights.
fn fingerprint(result: &SynthesisResult) -> Vec<(String, String, u64, usize, usize)> {
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

#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Engine>();
    assert_send_sync::<Arc<Session>>();
}

#[test]
fn mixed_program_points_on_one_engine_answer_like_fresh_engines() {
    let engine = Engine::new(SynthesisConfig::default());
    let io = io_point_env();
    let tree = tree_point_env();
    let tiny = tiny_env();

    // Mixed program points, interleaved, with repeated points and varying N:
    // the engine prepares each distinct point once, and every answer equals
    // a fresh engine's.
    let requests = [
        (&io, Query::new(Ty::base("SequenceInputStream")).with_n(10)),
        (&tiny, Query::new(Ty::base("A")).with_n(7)),
        (
            &tree,
            Query::new(Ty::base("FilterTypeTreeTraverser")).with_n(5),
        ),
        (&io, Query::new(Ty::base("BufferedReader")).with_n(8)),
        (&tiny, Query::new(Ty::base("A")).with_n(3).with_max_depth(2)),
        (&io, Query::new(Ty::base("FileInputStream")).with_n(4)),
        (&tree, Query::new(Ty::base("Boolean")).with_n(6)),
    ];
    let answer = |engine: &Engine| -> Vec<_> {
        requests
            .iter()
            .map(|(env, query)| fingerprint(&engine.prepare(env).query(query)))
            .collect()
    };

    let shared = answer(&engine);
    assert_eq!(engine.prepare_count(), 3, "one σ run per distinct point");
    for (i, (env, query)) in requests.iter().enumerate() {
        let fresh = Engine::new(SynthesisConfig::default())
            .prepare(env)
            .query(query);
        assert_eq!(
            shared[i],
            fingerprint(&fresh),
            "shared-engine result {i} diverged from a fresh engine"
        );
    }

    // Re-running on the warm engine is deterministic too.
    assert_eq!(answer(&engine), shared);
    assert_eq!(engine.prepare_count(), 3);
}

#[test]
fn one_arc_session_serves_identical_results_from_many_threads() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = Arc::new(engine.prepare(&io_point_env()));

    let reference = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(10));
    let expected = fingerprint(&reference);

    let handles: Vec<_> = (0..6)
        .map(|worker| {
            let session = Arc::clone(&session);
            thread::spawn(move || {
                // Each thread issues several queries, including a goal of its
                // own, to interleave scratch interning across threads.
                let shared = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(10));
                let own_goal = if worker % 2 == 0 {
                    Ty::base("BufferedReader")
                } else {
                    Ty::base("FileInputStream")
                };
                let own = session.query(&Query::new(own_goal).with_n(5));
                (fingerprint(&shared), fingerprint(&own))
            })
        })
        .collect();

    for handle in handles {
        let (shared, own) = handle.join().expect("worker thread must not panic");
        assert_eq!(shared, expected, "concurrent query diverged");
        assert!(!own.is_empty());
    }
}

#[test]
fn repeated_queries_reuse_the_cached_graph_and_return_identical_results() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    assert_eq!(session.cached_graph_count(), 0);

    let query = Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let first = session.query(&query);
    assert_eq!(
        session.cached_graph_count(),
        1,
        "first query builds the graph"
    );
    let second = session.query(&query);
    assert_eq!(session.cached_graph_count(), 1, "repeat query reuses it");

    // Identical snippets, weights and search statistics on the cached path.
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(
        first.stats.requests_processed,
        second.stats.requests_processed
    );
    assert_eq!(first.stats.patterns, second.stats.patterns);
    assert_eq!(
        first.stats.reconstruction_steps,
        second.stats.reconstruction_steps
    );

    // A different n on the same goal shares the graph and returns a prefix.
    let top3 = session.query(&Query::new(Ty::base("SequenceInputStream")).with_n(3));
    assert_eq!(session.cached_graph_count(), 1);
    assert_eq!(fingerprint(&top3), fingerprint(&first)[..3].to_vec());

    // A new goal builds (and caches) its own graph.
    let _ = session.query(&Query::new(Ty::base("BufferedReader")).with_n(5));
    assert_eq!(session.cached_graph_count(), 2);
}

#[test]
fn equal_points_share_preparation_and_graphs_and_permutations_answer_in_their_own_order() {
    // The cross-point contract at paper scale: separately cloned copies of
    // one program point run σ once and build each queried goal's graph
    // once; a permutation of it is prepared privately and answers exactly
    // as a fresh engine does on that permutation.
    let engine = Engine::new(SynthesisConfig::default());
    let env = io_point_env();
    let reversed: TypeEnv = env.iter().rev().cloned().collect();

    let goal = || Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let first = engine.prepare(&env.clone()).query(&goal());
    let second = engine.prepare(&env.clone()).query(&goal());
    let top4 = engine.prepare(&env.clone()).query(&goal().with_n(4));
    assert_eq!(engine.prepare_count(), 1, "one σ run for three copies");
    assert_eq!(
        engine.graph_build_count(),
        1,
        "one derivation graph for three queries over one goal"
    );
    assert_eq!(fingerprint(&second), fingerprint(&first));
    assert_eq!(fingerprint(&top4), fingerprint(&first)[..4]);

    let permuted = engine.prepare(&reversed).query(&goal());
    assert_eq!(
        engine.prepare_count(),
        2,
        "the permutation prepares privately"
    );
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&reversed)
        .query(&goal());
    assert_eq!(fingerprint(&permuted), fingerprint(&fresh));
}

#[test]
fn interactive_edit_loop_updates_incrementally_and_matches_fresh_preparation() {
    // The paper's interactive loop: prepare, query, the user edits, query
    // again. The updated session must answer exactly like a from-scratch
    // preparation of the edited environment.
    let engine = Engine::new(SynthesisConfig::default());
    let env = io_point_env();
    let session = engine.prepare(&env);
    let query = Query::new(Ty::base("SequenceInputStream")).with_n(10);
    let before = session.query(&query);

    // Edit 1: a new String local appears (its type is already in Γ).
    let delta = EnvDelta::new().add(Declaration::simple(
        "header",
        Ty::base("String"),
        DeclKind::Local,
    ));
    let edited_session = session.update(&delta);
    let after = edited_session.query(&query);
    // The new local is cheap and shows up in the suggestions.
    assert!(
        after
            .snippets
            .iter()
            .any(|s| s.term.to_string().contains("header")),
        "the added local must appear in the edited point's suggestions"
    );

    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));

    // Edit 2: remove it again — the session round-trips back to the
    // original point's fingerprint and results.
    let back = edited_session.update(&EnvDelta::new().remove("header"));
    assert_eq!(back.fingerprint(), session.fingerprint());
    assert_eq!(fingerprint(&back.query(&query)), fingerprint(&before));

    // The original session was never disturbed.
    assert_eq!(fingerprint(&session.query(&query)), fingerprint(&before));
}

#[test]
fn prepare_time_is_paid_once_per_session() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let prepare_once = session.prepare_time();

    // Many queries later, the session reports the same one-off prepare cost.
    for _ in 0..3 {
        let _ = session.query(&Query::new(Ty::base("FileInputStream")).with_n(5));
    }
    assert_eq!(session.prepare_time(), prepare_once);
}

#[test]
fn sessions_prepared_from_one_engine_are_independent() {
    let engine = Engine::new(SynthesisConfig::default());
    let io = engine.prepare(&io_point_env());
    let tiny = engine.prepare(&tiny_env());

    let io_result = io.query(&Query::new(Ty::base("FileInputStream")).with_n(5));
    let tiny_result = tiny.query(&Query::new(Ty::base("A")).with_n(5));

    assert!(io_result
        .snippets
        .iter()
        .any(|s| s.term.to_string().contains("FileInputStream")));
    assert_eq!(tiny_result.snippets[0].term.to_string(), "a");
    // Distinct program points, distinct prepared sizes.
    assert_ne!(
        io_result.stats.initial_declarations,
        tiny_result.stats.initial_declarations
    );
}

#[test]
fn growing_n_resumes_the_suspended_walk_without_replaying() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let query = |n| Query::new(Ty::base("SequenceInputStream")).with_n(n);

    let ten = session.query(&query(10));
    assert!(!ten.stats.resumed, "first query starts from scratch");
    assert_eq!(
        ten.stats.reconstruction_new_steps,
        ten.stats.reconstruction_steps
    );
    assert!(
        ten.stats.has_more,
        "the IO point offers more than ten terms"
    );
    assert_eq!(engine.suspended_walk_count(), 1);

    let twenty = session.query(&query(20));
    assert!(
        twenty.stats.resumed,
        "the grown query resumes the parked walk"
    );
    assert_eq!(engine.graph_build_count(), 1, "resume rebuilds nothing");
    assert!(
        twenty.stats.reconstruction_new_steps < twenty.stats.reconstruction_steps,
        "a resumed walk pays only the delta"
    );

    // Byte-identical to a from-scratch n=20 on a cold engine, cumulative
    // search statistics included.
    let scratch = Engine::new(SynthesisConfig::default())
        .prepare(&io_point_env())
        .query(&query(20));
    assert!(!scratch.stats.resumed);
    assert_eq!(fingerprint(&twenty), fingerprint(&scratch));
    assert_eq!(
        twenty.stats.reconstruction_steps,
        scratch.stats.reconstruction_steps
    );
    assert_eq!(fingerprint(&ten), fingerprint(&scratch)[..10].to_vec());
}

#[test]
fn term_streams_paginate_deterministically_and_match_query() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&io_point_env());
    let query = Query::new(Ty::base("SequenceInputStream")).with_n(4);

    let first: Vec<_> = session.query_stream(&query).take(4).collect();
    assert_eq!(first.len(), 4);

    // A second stream resumes the suspended walk and replays the identical
    // prefix; dropping streams mid-iteration never perturbs later answers.
    let mut second_stream = session.query_stream(&query);
    assert!(second_stream.resumed());
    assert!(second_stream.has_more());
    let second: Vec<_> = second_stream.by_ref().take(4).collect();
    assert_eq!(first, second);
    assert!(
        second_stream.has_more(),
        "the IO point offers more than four terms"
    );
    drop(second_stream);

    // The classic API sees the same terms, weights and order.
    let result = session.query(&query);
    assert_eq!(result.snippets.len(), 4);
    for (ranked, snippet) in first.iter().zip(&result.snippets) {
        assert_eq!(ranked.term.to_string(), snippet.raw_term.to_string());
        assert_eq!(
            ranked.weight.value().to_bits(),
            snippet.weight.value().to_bits()
        );
    }
    assert!(result.stats.resumed);
    assert_eq!(
        result.stats.reconstruction_new_steps, 0,
        "a fully warmed walk serves n=4 from its emission log"
    );
}

#[test]
fn unrelated_edit_patches_the_graph_and_starts_a_fresh_walk() {
    let mut env = tiny_env();
    env.push(Declaration::simple(
        "gadget",
        Ty::base("Gadget"),
        DeclKind::Local,
    ));
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&env);
    let query = Query::new(Ty::base("A")).with_n(6);
    let before = session.query(&query);
    assert!(!before.stats.resumed);
    assert_eq!(engine.graph_build_count(), 1);
    assert_eq!(engine.suspended_walk_count(), 1);

    // Appending another Gadget is σ-inert and cannot reach the A-walk, but
    // an edit does no graph work: the edited point's first A query patches
    // the parent's graph, and a patched graph parks no walk to resume.
    let delta = EnvDelta::new().add(Declaration::simple(
        "gadget2",
        Ty::base("Gadget"),
        DeclKind::Imported,
    ));
    let updated = session.update(&delta);
    let after = updated.query(&query);
    assert_eq!(engine.graph_build_count(), 1, "patched, not rebuilt");
    assert_eq!(engine.graph_patch_count(), 1);
    assert!(
        !after.stats.resumed,
        "the patched graph starts a fresh walk"
    );
    assert_eq!(fingerprint(&after), fingerprint(&before));

    // Identical to a fresh preparation of the edited environment.
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));
}

#[test]
fn reaching_edit_drops_the_suspended_walk() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&tiny_env());
    let query = Query::new(Ty::base("A")).with_n(5);
    let before = session.query(&query);
    assert_eq!(engine.graph_build_count(), 1);
    assert_eq!(engine.suspended_walk_count(), 1);

    // A new producer of the walk's goal type reaches the graph. Its σ class
    // `{A} → A` is already in Γ (`s`), so the edit is σ-inert: the edited
    // session patches the cached graph instead of rebuilding it, and must
    // NOT resume the stale frontier.
    let delta = EnvDelta::new().add(Declaration::simple(
        "t",
        Ty::fun(vec![Ty::base("A")], Ty::base("A")),
        DeclKind::Local,
    ));
    let updated = session.update(&delta);
    let after = updated.query(&query);
    assert_eq!(
        engine.graph_build_count(),
        1,
        "the σ-inert edit builds nothing"
    );
    assert_eq!(
        engine.graph_patch_count(),
        1,
        "it patches the parent's graph"
    );
    assert!(
        !after.stats.resumed,
        "no stale resume across a reaching edit"
    );
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));
    assert_ne!(
        fingerprint(&after),
        fingerprint(&before),
        "the new producer changes the suggestions"
    );

    // The original session's walk is untouched and still resumes.
    let again = session.query(&query);
    assert!(again.stats.resumed);
    assert_eq!(fingerprint(&again), fingerprint(&before));
}

#[test]
fn type_interning_reaching_edit_rebuilds_and_drops_the_suspended_walk() {
    let engine = Engine::new(SynthesisConfig::default());
    let session = engine.prepare(&tiny_env());
    let query = Query::new(Ty::base("A")).with_n(5);
    let before = session.query(&query);
    assert_eq!(engine.graph_build_count(), 1);

    // `b : B` and `u : B -> A` intern `B` and `{B} -> A`: the edit changes
    // the σ-level space, so the graph is rebuilt, not patched.
    let delta = EnvDelta::new()
        .add(Declaration::simple("b", Ty::base("B"), DeclKind::Local))
        .add(Declaration::simple(
            "u",
            Ty::fun(vec![Ty::base("B")], Ty::base("A")),
            DeclKind::Local,
        ));
    let updated = session.update(&delta);
    let after = updated.query(&query);
    assert_eq!(
        engine.graph_build_count(),
        2,
        "the reaching edit forces a rebuild"
    );
    assert_eq!(engine.graph_patch_count(), 0);
    assert!(
        !after.stats.resumed,
        "no stale resume across a reaching edit"
    );
    let fresh = Engine::new(SynthesisConfig::default())
        .prepare(&delta.apply(session.env()))
        .query(&query);
    assert_eq!(fingerprint(&after), fingerprint(&fresh));
    assert_ne!(fingerprint(&after), fingerprint(&before));

    let again = session.query(&query);
    assert!(again.stats.resumed);
    assert_eq!(fingerprint(&again), fingerprint(&before));
}
