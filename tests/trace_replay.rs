//! Property tests for the editor-trace replay harness.
//!
//! These pin the determinism contract of the trace subsystem on arbitrary
//! generator knobs:
//!
//! * generation — the same seed and knobs always yield a byte-identical
//!   trace, and the text codec round-trips every generated trace exactly,
//! * replay identity — replaying a trace through the library path
//!   (`Engine`/`Session` calls), the live server path (`handle_line` per
//!   event), and a scripted-server transcript (`serve_script` over the
//!   rendered request lines) produces the same result digest and, at one
//!   worker, the same engine counters — including traces whose updates
//!   remove declarations, which exercise the removal path,
//! * schedule independence — adding workers changes only the interleaving,
//!   never the digest or the completion counts.

use proptest::prelude::*;

use insynth::bench::replay::{
    digest_responses, render_server_script, replay_config, replay_library, replay_server,
    replay_server_config, trace_environment,
};
use insynth::core::Engine;
use insynth::corpus::trace::{generate_trace, Trace, TraceEnvSpec, TraceGenConfig};
use insynth::server::{serve_script, Server};

/// Random generator knobs over the small Figure-1 environment (filler 0, so
/// each replay case stays fast). Fractions are drawn as integer percentages
/// because the vendored proptest stand-in only implements range strategies
/// for unsigned integers; `remove_fraction` ranges up to 90% so a healthy
/// share of cases drive the removal path.
fn arb_gen_config() -> impl Strategy<Value = TraceGenConfig> {
    (
        (1u64..1_000_000, 1u32..6, 40u64..140, 1u32..5),
        (0u32..41, 0u32..91, 0u32..51, 0u32..11),
        (60u32..220, 1usize..8),
    )
        .prop_map(
            |(
                (seed, points, events, burst),
                (update_pct, remove_pct, page_pct, close_pct),
                (zipf_centi, max_n),
            )| TraceGenConfig {
                seed,
                points,
                events,
                env: TraceEnvSpec::Figure1 { filler: 0 },
                zipf_exponent: f64::from(zipf_centi) / 100.0,
                update_fraction: f64::from(update_pct) / 100.0,
                remove_fraction: f64::from(remove_pct) / 100.0,
                page_fraction: f64::from(page_pct) / 100.0,
                close_fraction: f64::from(close_pct) / 100.0,
                burst,
                max_n,
                ..TraceGenConfig::default()
            },
        )
}

proptest! {
    // Deterministic CI, same contract as tests/properties.rs: pinned case
    // count and RNG seed, so every run replays the identical knob sequence.
    #![proptest_config(ProptestConfig { cases: 40, rng_seed: 0x7ace_5eed, ..ProptestConfig::default() })]

    /// The generator is a pure function of its config, and the text codec
    /// loses nothing: parse(to_text(t)) == t, byte-for-byte on re-render.
    #[test]
    fn generation_is_deterministic_and_text_codec_roundtrips(config in arb_gen_config()) {
        let trace = generate_trace(&config);
        let again = generate_trace(&config);
        prop_assert_eq!(&trace, &again);
        let text = trace.to_text();
        prop_assert_eq!(&again.to_text(), &text);

        let parsed = Trace::parse(&text)
            .unwrap_or_else(|e| panic!("generated trace failed to parse: {e}"));
        prop_assert_eq!(&parsed, &trace);
        prop_assert_eq!(parsed.to_text(), text);

        // The summary agrees with the event list it was computed from.
        let summary = trace.summary();
        prop_assert_eq!(summary.events as u64, config.events);
        prop_assert!(summary.points <= config.points as usize);
    }
}

proptest! {
    // Replay cases each run the full trace three ways against real engines,
    // so the case count stays low; the knob strategy above still covers
    // removal-heavy and page-heavy mixes within these cases.
    #![proptest_config(ProptestConfig { cases: 8, rng_seed: 0x7ace_5eed, ..ProptestConfig::default() })]

    /// One trace, three execution paths, one digest: direct library calls,
    /// the live server loop, and a pre-rendered scripted transcript all
    /// produce identical result digests, and at one worker the engine
    /// counters (prepares, graph builds) match across paths exactly.
    #[test]
    fn replay_paths_digest_identically(config in arb_gen_config()) {
        let trace = generate_trace(&config);
        let ambient = trace_environment(trace.env);

        let lib = replay_library(&trace, &ambient, 1);
        prop_assert_eq!(lib.errors, 0, "library replay hit errors");

        let srv = replay_server(&trace, &ambient, 1);
        prop_assert_eq!(srv.errors, 0, "server replay hit errors");
        prop_assert_eq!(&srv.digest_hex(), &lib.digest_hex());
        prop_assert_eq!(srv.completions, lib.completions);
        prop_assert_eq!(srv.values, lib.values);
        prop_assert_eq!(srv.prepares, lib.prepares);
        prop_assert_eq!(srv.graph_builds, lib.graph_builds);
        prop_assert_eq!(srv.graph_patches, lib.graph_patches);
        prop_assert_eq!(srv.graph_evictions, lib.graph_evictions);

        // Scripted transcript: render every request up front, feed the batch
        // through `serve_script`, digest the response lines.
        let script = render_server_script(&trace, &ambient);
        let server = Server::new(Engine::new(replay_config(&trace)), replay_server_config(&trace));
        let responses = serve_script(&server, &script);
        let digest = digest_responses(&trace, &responses).expect("transcript digests cleanly");
        prop_assert_eq!(format!("{digest:016x}"), lib.digest_hex());

        // Re-running the library path is byte-identical down to the
        // counters-only JSON report.
        let again = replay_library(&trace, &ambient, 1);
        prop_assert_eq!(again.to_json(true), lib.to_json(true));

        // Extra workers reshuffle the schedule, never the answers.
        let wide = replay_library(&trace, &ambient, 2);
        prop_assert_eq!(wide.digest_hex(), lib.digest_hex());
        prop_assert_eq!(wide.completions, lib.completions);
        prop_assert_eq!(wide.values, lib.values);
    }
}
