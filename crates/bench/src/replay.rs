//! Replay driver for editor traces ([`insynth_corpus::trace`]).
//!
//! A trace can be replayed two ways against the *same* workload:
//!
//! * **library path** ([`replay_library`]) — events drive
//!   `Engine::prepare` / `Session::query` / `Session::update` directly,
//!   measuring the engine with zero protocol overhead;
//! * **server path** ([`replay_server`]) — events are rendered to the JSON
//!   protocol and driven through [`Server::handle_line`], measuring the full
//!   service stack (parsing, session table, admission, metrics).
//!
//! Both report the same [`ReplayReport`]: per-kind event counts, engine
//! cache observability (prepares, graph builds), completion accounting, a
//! result **digest**, throughput, and p50/p90/p99 latency from the shared
//! [`insynth_stats::Histogram`].
//!
//! # Determinism
//!
//! The digest is an XOR-fold of one FNV-1a hash per event, over the event's
//! index and its *visible results* — returned term strings for
//! queries/pages, the session fingerprint for opens/updates. The fold makes
//! it order-insensitive across worker interleavings while the per-event
//! index keeps it position-sensitive, and it deliberately excludes weights
//! and wall-clock fields, so the library and server paths digest identically
//! and a replay is byte-reproducible across runs and worker counts. Engine
//! *counters* (prepares, graph builds, resumes) are additionally exact —
//! run-to-run identical — at `workers = 1`, the default and what the CI
//! gates pin; with more workers LRU eviction order depends on thread
//! interleaving, so counters may wobble while the digest stays fixed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use insynth_core::{
    Engine, EngineStatsSnapshot, EnvDelta, Query, Session, SynthesisConfig, TypeEnv,
};
use insynth_corpus::trace::{Trace, TraceEnvSpec, TraceEvent, TraceEventKind, TraceSummary};
use insynth_server::{
    decl_to_json, env_to_json, ty_to_json, Json, Server, ServerConfig, MAX_PAGE_VALUES,
};
use insynth_stats::Histogram;

use crate::{phases_environment, scaled_environment};

/// Which execution path a replay drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    Library,
    Server,
}

impl ReplayMode {
    pub fn name(self) -> &'static str {
        match self {
            ReplayMode::Library => "library",
            ReplayMode::Server => "server",
        }
    }
}

/// Resolves a trace's environment recipe to the ambient declarations every
/// program point opens on top of.
pub fn trace_environment(spec: TraceEnvSpec) -> TypeEnv {
    match spec {
        TraceEnvSpec::Figure1 { filler } => phases_environment(filler),
        TraceEnvSpec::Scaled { target_decls } => scaled_environment(target_decls),
    }
}

/// The engine configuration a replay runs under: the default synthesis
/// config with the point and graph caches sized to the trace's working set
/// (one live fingerprint per point, a few graphs per point), so the hot set
/// never thrashes regardless of how many points the trace touches.
pub fn replay_config(trace: &Trace) -> SynthesisConfig {
    let points = trace.summary().points.max(1);
    let mut config = SynthesisConfig::default();
    config.point_cache_capacity = config.point_cache_capacity.max(points * 2);
    config.graph_cache_capacity = config.graph_cache_capacity.max(points * 8);
    config
}

/// Everything one replay produces.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    pub mode: ReplayMode,
    pub workers: usize,
    /// Ambient declarations under every point (before point locals).
    pub env_decls: usize,
    /// Per-kind event counts of the replayed trace.
    pub summary: TraceSummary,
    /// Completion requests served (queries + pages that reached a session).
    pub completions: u64,
    /// Total completion values returned across all pages.
    pub values: u64,
    /// Completions served by resuming a suspended walk.
    pub resumed: u64,
    /// Events that failed (query on an unopened point, server error
    /// response). Always 0 for a well-formed trace.
    pub errors: u64,
    /// σ-lowering runs the engine performed ([`Engine::stats`]).
    pub prepares: usize,
    /// The part of `prepares` that took the incremental delta path; the
    /// rest prepared fresh. Reported by the human summary only, so the JSON
    /// report keeps its shape.
    pub incremental_prepares: usize,
    /// Derivation-graph builds the engine performed.
    pub graph_builds: usize,
    /// Derivation graphs the engine patched from an ancestor revision's
    /// graph instead of building.
    pub graph_patches: usize,
    /// Order-insensitive result digest (see module docs).
    pub digest: u64,
    pub elapsed: Duration,
    /// Per-completion latency (library: around `Session::query`; server:
    /// around `Server::handle_line` for `completion/complete`).
    pub latency: Histogram,
}

impl ReplayReport {
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Events replayed per second of wall clock.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.summary.events as f64 / secs
        }
    }

    /// Renders the report as a JSON object. With `counters_only` the
    /// wall-clock section is omitted, leaving exactly the deterministic
    /// fields — two replays of the same trace must render byte-identically,
    /// which is what the CI smoke job diffs.
    pub fn to_json(&self, counters_only: bool) -> String {
        let s = &self.summary;
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", self.mode.name()));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"env_decls\": {},\n", self.env_decls));
        out.push_str(&format!(
            "  \"trace\": {{\"events\": {}, \"opens\": {}, \"queries\": {}, \"pages\": {}, \"updates\": {}, \"removals\": {}, \"closes\": {}, \"points\": {}}},\n",
            s.events, s.opens, s.queries, s.pages, s.updates, s.removals, s.closes, s.points
        ));
        out.push_str(&format!(
            "  \"engine\": {{\"prepares\": {}, \"graph_builds\": {}, \"graph_patches\": {}}},\n",
            self.prepares, self.graph_builds, self.graph_patches
        ));
        out.push_str(&format!(
            "  \"results\": {{\"completions\": {}, \"values\": {}, \"resumed\": {}, \"errors\": {}, \"digest\": \"{}\"}}",
            self.completions,
            self.values,
            self.resumed,
            self.errors,
            self.digest_hex()
        ));
        if !counters_only {
            out.push_str(&format!(
                ",\n  \"timing\": {{\"elapsed_ms\": {}, \"events_per_sec\": {:.1}, \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"mean\": {}, \"count\": {}}}}}",
                self.elapsed.as_millis(),
                self.events_per_sec(),
                self.latency.quantile_us(0.50),
                self.latency.quantile_us(0.90),
                self.latency.quantile_us(0.99),
                self.latency.mean_us(),
                self.latency.count()
            ));
        }
        out.push_str("\n}");
        out
    }
}

// ---------------------------------------------------------------------------
// Result digest
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over one event's index, opcode, point, and payload strings.
struct EventDigest(u64);

impl EventDigest {
    fn new(index: u64, op: char, point: u32) -> EventDigest {
        let mut d = EventDigest(FNV_OFFSET);
        d.bytes(&index.to_le_bytes());
        d.bytes(&[op as u8]);
        d.bytes(&point.to_le_bytes());
        d
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        // Separator so ["ab","c"] and ["a","bc"] hash differently.
        self.bytes(&[0xff]);
    }

    fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Library path
// ---------------------------------------------------------------------------

/// What one worker accumulated; merged across workers into the report.
#[derive(Default)]
struct WorkerOutcome {
    digest: u64,
    completions: u64,
    values: u64,
    resumed: u64,
    errors: u64,
    latency: Histogram,
}

impl WorkerOutcome {
    fn merge(mut self, other: WorkerOutcome) -> WorkerOutcome {
        self.digest ^= other.digest;
        self.completions += other.completions;
        self.values += other.values;
        self.resumed += other.resumed;
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self
    }
}

/// The point-local environment an `Open` event establishes: the ambient
/// declarations with the event's locals pushed on top.
fn open_environment(ambient: &TypeEnv, locals: &[insynth_core::Declaration]) -> TypeEnv {
    let mut env = ambient.clone();
    for decl in locals {
        env.push(decl.clone());
    }
    env
}

fn delta_of(
    adds: &[insynth_core::Declaration],
    removes: &[String],
    reweights: &[(String, f64)],
) -> EnvDelta {
    let mut delta = EnvDelta::new();
    for decl in adds {
        delta = delta.add(decl.clone());
    }
    for name in removes {
        delta = delta.remove(name.clone());
    }
    for (name, weight) in reweights {
        delta = delta.reweight(name.clone(), *weight);
    }
    delta
}

fn run_library_worker(
    ambient: &TypeEnv,
    engine: &Engine,
    events: &[(usize, &TraceEvent)],
) -> WorkerOutcome {
    let mut sessions: HashMap<u32, Session> = HashMap::new();
    let mut out = WorkerOutcome::default();
    for &(index, event) in events {
        match &event.kind {
            TraceEventKind::Open { locals } => {
                let session = engine.prepare(&open_environment(ambient, locals));
                let mut d = EventDigest::new(index as u64, 'o', event.point);
                d.text(&format!("{}", session.fingerprint()));
                out.digest ^= d.finish();
                sessions.insert(event.point, session);
            }
            TraceEventKind::Update {
                adds,
                removes,
                reweights,
            } => match sessions.remove(&event.point) {
                Some(session) => {
                    let updated = session.update(&delta_of(adds, removes, reweights));
                    let mut d = EventDigest::new(index as u64, 'u', event.point);
                    d.text(&format!("{}", updated.fingerprint()));
                    out.digest ^= d.finish();
                    sessions.insert(event.point, updated);
                }
                None => out.errors += 1,
            },
            TraceEventKind::Query { goal, n } | TraceEventKind::Page { goal, n, .. } => {
                let cursor = match &event.kind {
                    TraceEventKind::Page { cursor, .. } => *cursor,
                    _ => 0,
                };
                match sessions.get(&event.point) {
                    Some(session) => {
                        // Mirror the server's `completion/complete`: cap the
                        // page, ask for cursor + n, serve the page past the
                        // cursor.
                        let n = (*n).min(MAX_PAGE_VALUES);
                        let query = Query::new(goal.clone()).with_n(cursor.saturating_add(n));
                        let started = Instant::now();
                        let result = session.query(&query);
                        out.latency.record(started.elapsed());
                        out.completions += 1;
                        if result.stats.resumed {
                            out.resumed += 1;
                        }
                        let mut d = EventDigest::new(index as u64, event.kind.op(), event.point);
                        for snippet in result.snippets.iter().skip(cursor) {
                            out.values += 1;
                            d.text(&snippet.term.to_string());
                        }
                        out.digest ^= d.finish();
                    }
                    None => out.errors += 1,
                }
            }
            TraceEventKind::Close => {
                sessions.remove(&event.point);
            }
        }
    }
    out
}

/// Replays a trace against the library path on `workers` threads. Points are
/// sharded across workers (`point % workers`), so each point's events run in
/// trace order while distinct points proceed concurrently — the same
/// contract an editor gives the engine.
pub fn replay_library(trace: &Trace, ambient: &TypeEnv, workers: usize) -> ReplayReport {
    let workers = workers.max(1);
    let engine = Engine::new(replay_config(trace));
    let started = Instant::now();
    let outcome = run_sharded(trace, workers, |events| {
        run_library_worker(ambient, &engine, events)
    });
    let elapsed = started.elapsed();
    report(
        ReplayMode::Library,
        workers,
        ambient.len(),
        trace,
        outcome,
        engine.stats(),
        elapsed,
    )
}

/// Runs `worker` over each point-shard of the trace, on `workers` threads.
fn run_sharded<F>(trace: &Trace, workers: usize, worker: F) -> WorkerOutcome
where
    F: Fn(&[(usize, &TraceEvent)]) -> WorkerOutcome + Sync,
{
    let mut shards: Vec<Vec<(usize, &TraceEvent)>> = vec![Vec::new(); workers];
    for (index, event) in trace.events.iter().enumerate() {
        shards[event.point as usize % workers].push((index, event));
    }
    if workers == 1 {
        return worker(&shards[0]);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| scope.spawn(|| worker(shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .fold(WorkerOutcome::default(), WorkerOutcome::merge)
    })
}

fn report(
    mode: ReplayMode,
    workers: usize,
    env_decls: usize,
    trace: &Trace,
    outcome: WorkerOutcome,
    stats: EngineStatsSnapshot,
    elapsed: Duration,
) -> ReplayReport {
    ReplayReport {
        mode,
        workers,
        env_decls,
        summary: trace.summary(),
        completions: outcome.completions,
        values: outcome.values,
        resumed: outcome.resumed,
        errors: outcome.errors,
        prepares: stats.prepare_count,
        incremental_prepares: stats.incremental_prepare_count,
        graph_builds: stats.graph_build_count,
        graph_patches: stats.graph_patch_count,
        digest: outcome.digest,
        elapsed,
        latency: outcome.latency,
    }
}

// ---------------------------------------------------------------------------
// Server path
// ---------------------------------------------------------------------------

/// The server configuration a replay drives: sessions sized to the trace's
/// points, and the widest page the protocol allows (the library path caps
/// pages at the same [`MAX_PAGE_VALUES`], and digests must match).
pub fn replay_server_config(trace: &Trace) -> ServerConfig {
    ServerConfig {
        max_sessions: trace.summary().points + 8,
        max_n: MAX_PAGE_VALUES,
        ..ServerConfig::default()
    }
}

/// Renders one trace event as a protocol request line. `session` is the
/// server-side session id addressing the event's point.
fn render_request(event: &TraceEvent, index: usize, session: u64, ambient: &TypeEnv) -> String {
    let id = Json::from(index as u64 + 1);
    let request = match &event.kind {
        TraceEventKind::Open { locals } => Json::object([
            ("id", id),
            ("method", Json::from("env/open")),
            (
                "params",
                Json::object([("env", env_to_json(&open_environment(ambient, locals)))]),
            ),
        ]),
        TraceEventKind::Update {
            adds,
            removes,
            reweights,
        } => Json::object([
            ("id", id),
            ("method", Json::from("env/update")),
            (
                "params",
                Json::object([
                    ("session", Json::from(session)),
                    (
                        "delta",
                        Json::object([
                            ("add", Json::Arr(adds.iter().map(decl_to_json).collect())),
                            (
                                "remove",
                                Json::Arr(removes.iter().map(|n| Json::from(n.as_str())).collect()),
                            ),
                            (
                                "reweight",
                                Json::Arr(
                                    reweights
                                        .iter()
                                        .map(|(name, weight)| {
                                            Json::object([
                                                ("name", Json::from(name.as_str())),
                                                ("weight", Json::from(*weight)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    ),
                ]),
            ),
        ]),
        TraceEventKind::Query { goal, n } => Json::object([
            ("id", id),
            ("method", Json::from("completion/complete")),
            (
                "params",
                Json::object([
                    ("session", Json::from(session)),
                    ("goal", ty_to_json(goal)),
                    ("n", Json::from(*n)),
                ]),
            ),
        ]),
        TraceEventKind::Page { goal, n, cursor } => Json::object([
            ("id", id),
            ("method", Json::from("completion/complete")),
            (
                "params",
                Json::object([
                    ("session", Json::from(session)),
                    ("goal", ty_to_json(goal)),
                    ("n", Json::from(*n)),
                    ("cursor", Json::from(*cursor)),
                ]),
            ),
        ]),
        TraceEventKind::Close => Json::object([
            ("id", id),
            ("method", Json::from("session/close")),
            ("params", Json::object([("session", Json::from(session))])),
        ]),
    };
    request.to_string()
}

/// Digests one server response for `event` at `index`; returns the
/// accounting the response carries. `None` means an error response.
struct ResponseAccount {
    digest: u64,
    values: u64,
    resumed: bool,
    is_completion: bool,
}

fn digest_response(
    event: &TraceEvent,
    index: usize,
    response: &Json,
) -> Result<Option<ResponseAccount>, String> {
    let Some(result) = response.get("result") else {
        return if response.get("error").is_some() {
            Ok(None)
        } else {
            Err(format!("response for event {index} has no result or error"))
        };
    };
    match &event.kind {
        TraceEventKind::Open { .. } | TraceEventKind::Update { .. } => {
            let fingerprint = result
                .get("fingerprint")
                .and_then(|f| f.as_str())
                .ok_or_else(|| {
                    format!("open/update response for event {index} lacks fingerprint")
                })?;
            let mut d = EventDigest::new(index as u64, event.kind.op(), event.point);
            d.text(fingerprint);
            Ok(Some(ResponseAccount {
                digest: d.finish(),
                values: 0,
                resumed: false,
                is_completion: false,
            }))
        }
        TraceEventKind::Query { .. } | TraceEventKind::Page { .. } => {
            let values = result
                .get("values")
                .and_then(|v| v.as_arr())
                .ok_or_else(|| format!("completion response for event {index} lacks values"))?;
            let mut d = EventDigest::new(index as u64, event.kind.op(), event.point);
            for value in values {
                let term = value
                    .get("term")
                    .and_then(|t| t.as_str())
                    .ok_or_else(|| format!("completion value for event {index} lacks term"))?;
                d.text(term);
            }
            Ok(Some(ResponseAccount {
                digest: d.finish(),
                values: values.len() as u64,
                resumed: result
                    .get("resumed")
                    .and_then(|r| r.as_bool())
                    .unwrap_or(false),
                is_completion: true,
            }))
        }
        TraceEventKind::Close => Ok(Some(ResponseAccount {
            digest: 0,
            values: 0,
            resumed: false,
            is_completion: false,
        })),
    }
}

fn run_server_worker(
    ambient: &TypeEnv,
    server: &Server,
    events: &[(usize, &TraceEvent)],
) -> WorkerOutcome {
    let mut session_ids: HashMap<u32, u64> = HashMap::new();
    let mut out = WorkerOutcome::default();
    for &(index, event) in events {
        let session = session_ids.get(&event.point).copied().unwrap_or(0);
        let line = render_request(event, index, session, ambient);
        let started = Instant::now();
        let response = server.handle_line(&line);
        let latency = started.elapsed();
        if let TraceEventKind::Open { .. } = event.kind {
            // The server assigns session ids; adopt its answer.
            if let Some(id) = response
                .get("result")
                .and_then(|r| r.get("session"))
                .and_then(|s| s.as_u64())
            {
                session_ids.insert(event.point, id);
            }
        }
        match digest_response(event, index, &response) {
            Ok(Some(account)) => {
                out.digest ^= account.digest;
                out.values += account.values;
                if account.is_completion {
                    out.completions += 1;
                    out.latency.record(latency);
                    if account.resumed {
                        out.resumed += 1;
                    }
                }
            }
            Ok(None) | Err(_) => out.errors += 1,
        }
        if let TraceEventKind::Close = event.kind {
            session_ids.remove(&event.point);
        }
    }
    out
}

/// Replays a trace through the JSON protocol (`Server::handle_line`) on
/// `workers` threads, sharded by point like [`replay_library`]. The server
/// owns a fresh engine under [`replay_config`], so engine counters are
/// directly comparable to the library path's.
pub fn replay_server(trace: &Trace, ambient: &TypeEnv, workers: usize) -> ReplayReport {
    let workers = workers.max(1);
    let server = Server::new(
        Engine::new(replay_config(trace)),
        replay_server_config(trace),
    );
    let started = Instant::now();
    let outcome = run_sharded(trace, workers, |events| {
        run_server_worker(ambient, &server, events)
    });
    let elapsed = started.elapsed();
    report(
        ReplayMode::Server,
        workers,
        ambient.len(),
        trace,
        outcome,
        server.engine().stats(),
        elapsed,
    )
}

// ---------------------------------------------------------------------------
// Scripted-transcript rendering (tests, offline inspection)
// ---------------------------------------------------------------------------

/// Renders the whole trace as a sequential protocol script — one request
/// line per event, request ids `1..`, with session ids *predicted* (the
/// server assigns `1, 2, 3, …` in open order). Only valid against a fresh
/// single-worker server, e.g. via [`insynth_server::serve_script`]; the live
/// [`replay_server`] path reads assigned ids from responses instead.
pub fn render_server_script(trace: &Trace, ambient: &TypeEnv) -> String {
    let mut next_session = 0u64;
    let mut session_ids: HashMap<u32, u64> = HashMap::new();
    let mut out = String::new();
    for (index, event) in trace.events.iter().enumerate() {
        if let TraceEventKind::Open { .. } = event.kind {
            next_session += 1;
            session_ids.insert(event.point, next_session);
        }
        let session = session_ids.get(&event.point).copied().unwrap_or(0);
        out.push_str(&render_request(event, index, session, ambient));
        out.push('\n');
        if let TraceEventKind::Close = event.kind {
            session_ids.remove(&event.point);
        }
    }
    out
}

/// Computes the replay digest from a transcript of response lines (one per
/// trace event, in event order) — what [`insynth_server::serve_script`]
/// returns for a script rendered by [`render_server_script`]. Byte-identical
/// responses therefore imply an identical digest to a live replay.
pub fn digest_responses(trace: &Trace, responses: &[String]) -> Result<u64, String> {
    if responses.len() != trace.events.len() {
        return Err(format!(
            "expected {} responses, got {}",
            trace.events.len(),
            responses.len()
        ));
    }
    let mut digest = 0u64;
    for (index, (event, line)) in trace.events.iter().zip(responses).enumerate() {
        let response =
            insynth_server::parse_json(line).map_err(|e| format!("response {index}: {e}"))?;
        match digest_response(event, index, &response)? {
            Some(account) => digest ^= account.digest,
            None => return Err(format!("event {index} got an error response: {line}")),
        }
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_corpus::trace::{generate_trace, TraceGenConfig};

    fn small_trace() -> Trace {
        generate_trace(&TraceGenConfig {
            seed: 7,
            points: 4,
            events: 120,
            env: TraceEnvSpec::Figure1 { filler: 0 },
            ..TraceGenConfig::default()
        })
    }

    #[test]
    fn library_and_server_paths_digest_identically() {
        let trace = small_trace();
        let ambient = trace_environment(trace.env);
        let lib = replay_library(&trace, &ambient, 1);
        let srv = replay_server(&trace, &ambient, 1);
        assert_eq!(lib.errors, 0, "library replay hit errors");
        assert_eq!(srv.errors, 0, "server replay hit errors");
        assert_eq!(lib.digest_hex(), srv.digest_hex());
        assert_eq!(lib.values, srv.values);
        assert_eq!(lib.completions, srv.completions);
        assert_eq!(lib.prepares, srv.prepares);
        assert_eq!(lib.incremental_prepares, srv.incremental_prepares);
        assert_eq!(lib.graph_builds, srv.graph_builds);
        assert_eq!(lib.graph_patches, srv.graph_patches);

        // Re-running is counter- and digest-identical (workers = 1).
        let again = replay_library(&trace, &ambient, 1);
        assert_eq!(again.to_json(true), lib.to_json(true));

        // More workers never change the digest, only the schedule.
        let wide = replay_library(&trace, &ambient, 2);
        assert_eq!(wide.digest_hex(), lib.digest_hex());
        assert_eq!(wide.values, lib.values);
    }

    #[test]
    fn scripted_transcript_digest_matches_live_replay() {
        let trace = small_trace();
        let ambient = trace_environment(trace.env);
        let script = render_server_script(&trace, &ambient);
        let server = Server::new(
            Engine::new(replay_config(&trace)),
            replay_server_config(&trace),
        );
        let responses = insynth_server::serve_script(&server, &script);
        let digest = digest_responses(&trace, &responses).expect("transcript digests");
        let live = replay_server(&trace, &ambient, 1);
        assert_eq!(format!("{digest:016x}"), live.digest_hex());
    }
}
