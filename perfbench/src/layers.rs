//! The traced run's per-layer accounting.
//!
//! Spans are taken by the benchmark around each public call it makes: the
//! server's `parse_line` / `execute` / JSON serialization, `Engine::prepare`,
//! `Session::update`, `Session::query`, and term rendering. The phases inside
//! `Session::query` (explore, pattern generation, graph build, walk) and the
//! σ run inside `Engine::prepare` / `Session::update` are not reachable from
//! outside, so the tracer re-runs the public cold pipeline for each call
//! whose engine counter moved (a graph build or a σ run) and times that. The
//! re-runs happen after the call, outside every measured interval. No time or
//! count is read from `SynthesisResult::timings`, nor from its explore and
//! pattern statistics, which repeat build-time values on cache hits.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use insynth_core::{
    explore, generate_patterns, generate_terms, DerivationGraph, ExploreLimits, GenerateLimits,
    PreparedEnv, Query, Session, SynthesisConfig, SynthesisResult,
};
use insynth_succinct::TypeStore;

/// Per-layer totals over the traced passes of one run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Traced passes these totals cover (library-side and server-side
    /// totals are normalized by their own pass counts).
    pub lib_passes: u32,
    pub server_passes: u32,

    pub server_parse: Duration,
    pub server_execute: Duration,
    pub server_serialize: Duration,

    /// `Engine::prepare` spans, and the part of them the σ re-runs cover.
    pub open_prepare: Duration,
    pub open_sigma: Duration,
    /// `Session::update` spans (their σ runs included).
    pub update: Duration,
    /// `Session::query` spans.
    pub query: Duration,
    /// Rendering of the served terms.
    pub render: Duration,

    pub fingerprint: Duration,
    pub sigma: Duration,
    pub explore: Duration,
    pub genp: Duration,
    pub graph: Duration,
    pub walk: Duration,

    pub prepare_calls: u64,
    pub sigma_runs: u64,
    pub completions: u64,
    pub graph_builds: u64,
    pub resumed: u64,
    pub explore_requests: u64,
    pub explore_time_truncated: u64,
    pub patterns: u64,
    pub graph_nodes: u64,
    pub graph_edges: u64,
    pub walk_steps: u64,
    pub walk_new_steps: u64,
    pub walk_pruned: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The share of `calls` that did not pay a miss (0 when nothing was called).
fn hit_ratio(misses: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        1.0 - ratio(misses.min(calls), calls)
    }
}

impl Layers {
    /// Per-pass self time summed over every layer, in ms: each layer's span
    /// minus the child spans attributed inside it (never below zero).
    fn self_time_ms(&self) -> f64 {
        let lib = f64::from(self.lib_passes.max(1));
        let children = self.explore + self.genp + self.graph + self.walk;
        let session_self = self.query.saturating_sub(children);
        let prepare_self = self.open_prepare.saturating_sub(self.open_sigma);
        let library = ms(session_self
            + children
            + prepare_self
            + self.open_sigma
            + self.update
            + self.render)
            / lib;
        if self.server_passes == 0 {
            return library;
        }
        // Engine work inside `execute` is attributed from the library pass
        // of the same trace, which performs identical engine work.
        let srv = f64::from(self.server_passes);
        let engine = ms(self.open_prepare + self.update + self.query + self.render) / lib;
        let execute_self = (ms(self.server_execute) / srv - engine).max(0.0);
        ms(self.server_parse + self.server_serialize) / srv + execute_self + library
    }

    /// The per-layer metrics, per pass. `elapsed_ms` is the mean traced pass
    /// (of the path the workload measures) and `overhead` the tracing
    /// overhead share.
    pub fn metrics(
        &self,
        elapsed_ms: f64,
        overhead: f64,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let lib = f64::from(self.lib_passes.max(1));
        let srv = f64::from(self.server_passes.max(1));
        let per = |d: Duration| ms(d) / lib;
        let count = |c: u64| c as f64 / lib;
        let unattributed = if elapsed_ms > 0.0 {
            1.0 - self.self_time_ms() / elapsed_ms
        } else {
            0.0
        };
        vec![
            ("server.parse_ms", ms(self.server_parse) / srv, "ms"),
            ("server.execute_ms", ms(self.server_execute) / srv, "ms"),
            ("server.serialize_ms", ms(self.server_serialize) / srv, "ms"),
            ("session.query_ms", per(self.query), "ms"),
            (
                "session.graph_hit_ratio",
                hit_ratio(self.graph_builds, self.completions),
                "ratio",
            ),
            (
                "session.point_hit_ratio",
                hit_ratio(self.sigma_runs, self.prepare_calls),
                "ratio",
            ),
            (
                "session.resumed_ratio",
                ratio(self.resumed, self.completions),
                "ratio",
            ),
            ("prepare.fingerprint_ms", per(self.fingerprint), "ms"),
            ("prepare.sigma_ms", per(self.sigma), "ms"),
            ("prepare.runs", count(self.sigma_runs), "count"),
            ("update.ms", per(self.update), "ms"),
            ("explore.ms", per(self.explore), "ms"),
            ("explore.requests", count(self.explore_requests), "count"),
            (
                "explore.us_per_request",
                if self.explore_requests == 0 {
                    0.0
                } else {
                    self.explore.as_secs_f64() * 1e6 / self.explore_requests as f64
                },
                "us",
            ),
            (
                "explore.time_truncated",
                count(self.explore_time_truncated),
                "count",
            ),
            ("genp.ms", per(self.genp), "ms"),
            ("genp.patterns", count(self.patterns), "count"),
            ("graph.build_ms", per(self.graph), "ms"),
            ("graph.builds", count(self.graph_builds), "count"),
            ("graph.nodes", count(self.graph_nodes), "count"),
            ("graph.edges", count(self.graph_edges), "count"),
            ("walk.ms", per(self.walk), "ms"),
            ("walk.steps", count(self.walk_steps), "count"),
            ("walk.new_steps", count(self.walk_new_steps), "count"),
            ("walk.pruned_enqueues", count(self.walk_pruned), "count"),
            ("render.ms", per(self.render), "ms"),
            ("trace.overhead_share", overhead, "ratio"),
            ("trace.unattributed_share", unattributed, "ratio"),
        ]
    }
}

/// Re-runs the cold pipeline behind engine calls whose counters moved.
pub struct Tracer {
    pub layers: Layers,
    config: SynthesisConfig,
    /// The latest re-prepared environment per trace point, reused by the
    /// graph re-runs of that point's queries.
    prepared: HashMap<u32, Arc<PreparedEnv>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            layers: Layers::default(),
            config: SynthesisConfig::default(),
            prepared: HashMap::new(),
        }
    }

    /// Times `fingerprint_of` + σ for a σ run the engine performed for
    /// `session` (a fresh `Engine::prepare` when `from_open`, else a
    /// `Session::update`).
    pub fn sigma_run(&mut self, point: u32, session: &Session, from_open: bool) {
        let weights = &self.config.weights;
        let started = Instant::now();
        let fingerprint = PreparedEnv::fingerprint_of(session.env(), weights);
        let hashed = Instant::now();
        let prepared = PreparedEnv::prepare_with_fingerprint(session.env(), weights, fingerprint);
        let done = Instant::now();
        self.layers.fingerprint += hashed - started;
        self.layers.sigma += done - hashed;
        if from_open {
            self.layers.open_sigma += done - started;
        }
        self.prepared.insert(point, Arc::new(prepared));
    }

    /// Times explore → patterns → graph build → walk for a query that built
    /// its graph, and checks the cold pipeline's terms equal the session's.
    /// Returns a description of any disagreement.
    pub fn graph_build(
        &mut self,
        point: u32,
        session: &Session,
        query: &Query,
        result: &SynthesisResult,
    ) -> Option<String> {
        let config = &self.config;
        let prepared = match self.prepared.get(&point) {
            Some(p) if p.fingerprint == session.fingerprint() => Arc::clone(p),
            _ => {
                let p = Arc::new(PreparedEnv::prepare(session.env(), &config.weights));
                self.prepared.insert(point, Arc::clone(&p));
                p
            }
        };
        let layers = &mut self.layers;
        let mut store = prepared.scratch();
        let goal = store.sigma(query.goal());

        let started = Instant::now();
        let space = explore(
            &prepared,
            &mut store,
            goal,
            &ExploreLimits {
                max_requests: config.max_explore_requests,
                time_limit: config.prover_time_limit,
            },
        );
        let explored = Instant::now();
        let patterns = generate_patterns(&mut store, &space);
        let generated = Instant::now();
        let graph = DerivationGraph::build(
            &prepared,
            &mut store,
            &patterns,
            session.env(),
            &config.weights,
            query.goal(),
        );
        let built = Instant::now();
        let outcome = generate_terms(
            &graph,
            session.env(),
            query.n(),
            &GenerateLimits {
                max_steps: config.max_reconstruction_steps,
                time_limit: config.reconstruction_time_limit,
                max_depth: config.max_depth,
                ..GenerateLimits::default()
            },
        );
        let walked = Instant::now();

        layers.explore += explored - started;
        layers.genp += generated - explored;
        layers.graph += built - generated;
        layers.walk += walked - built;
        layers.explore_requests += space.requests_processed as u64;
        layers.explore_time_truncated += u64::from(space.time_truncated);
        layers.patterns += patterns.len() as u64;
        layers.graph_nodes += graph.node_count() as u64;
        layers.graph_edges += graph.edge_count() as u64;
        layers.walk_steps += outcome.steps as u64;
        layers.walk_pruned += outcome.pruned_enqueues as u64;

        let cold: Vec<(String, u64)> = outcome
            .terms
            .iter()
            .map(|t| (t.term.to_string(), t.weight.value().to_bits()))
            .collect();
        let served: Vec<(String, u64)> = result
            .snippets
            .iter()
            .map(|s| (s.raw_term.to_string(), s.weight.value().to_bits()))
            .collect();
        (cold != served).then(|| {
            format!(
                "cold pipeline disagrees with Session::query for {} at point {point}: {} vs {} terms",
                query.goal(),
                cold.len(),
                served.len()
            )
        })
    }
}
