//! The session-based query API: content-addressed program points, prepared
//! once, queried many times, and re-prepared incrementally when the user
//! edits.
//!
//! The paper's interactive deployment (§7.5) answers many completion queries
//! against the same program point — and, across edits, against program points
//! that are *slightly changed* or *identical* versions of one another. This
//! module makes environment identity first-class:
//!
//! * [`Engine`] — immutable configuration holder plus the engine-level
//!   caches (`Send + Sync`, cheap to clone — clones share the caches).
//! * Every environment has an [`EnvFingerprint`]: an order-insensitive
//!   content address over its declaration multiset and effective weights
//!   (see [`PreparedEnv::fingerprint_of`]). [`Engine::prepare`] keys its
//!   prepared-point cache on it, and shares a cached point only with a
//!   request for the *identical* declaration list. Equal-weight completions
//!   emit in declaration order, so a permutation is a different answer: it
//!   is prepared and queried privately, exactly as a fresh engine would, and
//!   a hash collision likewise degrades to an uncached preparation.
//! * [`Session`] — one *prepared* program point: [`Engine::prepare`] lowers a
//!   [`TypeEnv`] through σ at most once per cached declaration list and
//!   freezes the result. A session is `Send + Sync`; wrap it in an `Arc` and
//!   serve queries from as many threads as you like.
//! * [`Query`] — a builder-style request: goal type, `N`, and optional
//!   per-query overrides of the engine's budgets and depth bound.
//! * The **artifact cache** — derivation graphs (with their A* heuristics)
//!   are cached on the *engine*, keyed `(environment fingerprint, goal,
//!   prover budgets)`, so sessions over one program point share graphs no
//!   matter which session queried first. Builds are single-flight: any
//!   number of concurrent queries for one key perform exactly one build.
//! * [`Session::update`] — the edit-time delta path: apply an [`EnvDelta`]
//!   (add / remove / reweight declarations) and get a session for the edited
//!   point whose results are byte-identical to a fresh [`Engine::prepare`]
//!   of the edited environment. Appends, reweights and removals of
//!   declarations whose types the rest of the environment already interns
//!   re-run σ only on the appended declarations; appends and reweights also
//!   carry over every cached graph the change provably cannot affect. An
//!   edit that leaves the σ-level space alone does no graph work at all: a
//!   graph-cache miss on the edited point patches the nearest ancestor
//!   revision's graph ([`DerivationGraph::patch`]) instead of re-running
//!   exploration and pattern generation. Other removals and oversized
//!   deltas fall back to a fresh preparation.
//!
//! # Example
//!
//! ```
//! use insynth_core::{Declaration, DeclKind, Engine, EnvDelta, Query, SynthesisConfig, TypeEnv};
//! use insynth_lambda::Ty;
//!
//! let env: TypeEnv = vec![
//!     Declaration::simple("name", Ty::base("String"), DeclKind::Local),
//!     Declaration::simple(
//!         "mkFile",
//!         Ty::fun(vec![Ty::base("String")], Ty::base("File")),
//!         DeclKind::Imported,
//!     ),
//! ]
//! .into_iter()
//! .collect();
//!
//! let engine = Engine::new(SynthesisConfig::default());
//! let session = engine.prepare(&env); // σ runs once, here
//! let result = session.query(&Query::new(Ty::base("File")).with_n(5));
//! assert_eq!(result.snippets[0].term.to_string(), "mkFile(name)");
//!
//! // The user edits: a new local appears. Only the delta is re-prepared.
//! let edited = session.update(
//!     &EnvDelta::new().add(Declaration::simple("path", Ty::base("String"), DeclKind::Local)),
//! );
//! let result = edited.query(&Query::new(Ty::base("File")).with_n(5));
//! assert_eq!(result.snippets[1].term.to_string(), "mkFile(path)");
//!
//! // Preparing the same declaration list again is a point-cache hit.
//! let again = engine.prepare(&env);
//! assert_eq!(again.fingerprint(), session.fingerprint());
//! assert_eq!(engine.prepare_count(), 2); // env + edited env, not 3
//! ```

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak};
use std::time::{Duration, Instant};

use insynth_analysis::{analyze, AnalysisReport, DeclFacts};
use insynth_lambda::Ty;
use insynth_succinct::EnvFingerprint;

use crate::coerce::{count_coercions, erase_coercions};
use crate::decl::{Declaration, TypeEnv};
use crate::explore::{explore, ExploreLimits};
use crate::genp::generate_patterns;
use crate::gent::{CancelToken, GenerateLimits, RankedTerm};
use crate::graph::{lock_recovering, DerivationGraph, WalkState, DECL_REMOVED};
use crate::prepare::PreparedEnv;
use crate::synth::{PhaseTimings, Snippet, SynthesisConfig, SynthesisResult, SynthesisStats};

/// The immutable synthesis engine: configuration plus the engine-level
/// caches of prepared program points and derivation graphs.
///
/// `Engine` is `Send + Sync`; one instance can serve every thread of a
/// deployment. Cloning is cheap and clones **share the caches** — a cloned
/// engine is another handle onto the same content-addressed state, which is
/// what lets independent [`Engine::prepare`] calls reuse each other's work.
/// Engines created with [`Engine::new`] start with fresh, empty caches.
#[derive(Debug, Clone)]
pub struct Engine {
    config: SynthesisConfig,
    cache: Arc<ArtifactCache>,
}

/// One coherent snapshot of the engine's counters and cache sizes, as
/// returned by [`Engine::stats`].
///
/// The six cumulative fields (σ runs, incremental σ runs, σ time, graph
/// builds, graph patches and analyses) count over the engine's lifetime
/// (shared across clones); the three cache sizes are instantaneous.
/// Comparing snapshots taken before and after a workload gives the cache
/// economics of exactly that workload: `prepare` calls minus the
/// `prepare_count` delta is the point-cache hit count, and completions minus
/// the graph build and patch deltas is the graph-cache hit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStatsSnapshot {
    /// σ-lowering runs performed (full preparations plus incremental delta
    /// re-preparations).
    pub prepare_count: usize,
    /// The part of `prepare_count` that took the incremental delta path
    /// ([`PreparedEnv::prepare_incremental`]); the rest prepared fresh.
    pub incremental_prepare_count: usize,
    /// Cumulative wall time of all σ-lowering runs, in nanoseconds.
    pub prepare_time_ns: u64,
    /// Derivation-graph builds (exploration, pattern generation and graph
    /// build) across every session of this engine.
    pub graph_build_count: usize,
    /// Derivation graphs patched from an ancestor revision's graph instead
    /// of built (see [`Session::update`]).
    pub graph_patch_count: usize,
    /// Prepared program points currently cached.
    pub cached_point_count: usize,
    /// Derivation-graph artifacts currently cached.
    pub cached_graph_count: usize,
    /// Suspended walk states currently parked across the cached graphs.
    pub suspended_walk_count: usize,
    /// Environment analyses performed: [`Session::analyze`] runs the
    /// analysis once per prepared point, so the difference between `analyze`
    /// calls issued and this count is the number answered from a point that
    /// was already analyzed.
    pub analysis_count: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(SynthesisConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given configuration and empty caches.
    pub fn new(config: SynthesisConfig) -> Self {
        Engine {
            config,
            cache: Arc::new(ArtifactCache::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// The content address this engine assigns to `env` (under the engine's
    /// weight configuration). The digest ignores declaration order, so a
    /// permutation fingerprints identically; it is the key of the engine's
    /// caches, but only the identical declaration list shares what they
    /// hold (see [`Engine::prepare`]).
    pub fn fingerprint(&self, env: &TypeEnv) -> EnvFingerprint {
        PreparedEnv::fingerprint_of(env, &self.config.weights)
    }

    /// Lowers `env` into succinct form, returning a reusable, shareable
    /// [`Session`] for that program point.
    ///
    /// Content-addressed: if the identical declaration list was prepared
    /// before and is still cached, the existing preparation is shared and σ
    /// does not run again. Any other list — a permutation with the same
    /// [`EnvFingerprint`] included — is prepared (and its graphs built)
    /// privately, so every session answers exactly as a fresh engine would on
    /// the list it was given: equal-weight ties emit in declaration order.
    pub fn prepare(&self, env: &TypeEnv) -> Session {
        let fingerprint = self.fingerprint(env);
        let capacity = self.config.point_cache_capacity;
        if capacity > 0 {
            if let Some(point) = self.cache.lookup_point(fingerprint, env) {
                return self.session_for(point);
            }
        }
        let started = Instant::now();
        let prepared = Arc::new(PreparedEnv::prepare_with_fingerprint(
            env,
            &self.config.weights,
            fingerprint,
        ));
        // prepare_time covers only the σ-lowering and index construction —
        // the quantity queries amortize — not the bookkeeping copies below.
        let prepare_time = started.elapsed();
        self.cache.record_prepare(false, prepare_time);
        let point = Arc::new(PreparedPoint::new(env.clone(), prepared, prepare_time));
        let point = if capacity > 0 {
            self.cache.insert_point(point, capacity)
        } else {
            point
        };
        self.session_for(point)
    }

    fn session_for(&self, point: Arc<PreparedPoint>) -> Session {
        Session {
            point,
            config: self.config.clone(),
            cache: Arc::clone(&self.cache),
            graph_builds: AtomicUsize::new(0),
        }
    }

    /// Number of σ-lowering runs this engine (and its clones) performed —
    /// full preparations plus incremental delta re-preparations. The
    /// difference between `prepare`/`update` calls issued and this count is
    /// the point cache's hit count.
    pub fn prepare_count(&self) -> usize {
        self.cache.prepares.load(Ordering::Relaxed)
    }

    /// Number of derivation-graph builds across every session this engine
    /// prepared. With warm caches, N sessions over one declaration list
    /// asking one goal perform exactly one build.
    pub fn graph_build_count(&self) -> usize {
        self.cache.graph_builds.load(Ordering::Relaxed)
    }

    /// Number of derivation graphs patched from an ancestor revision's
    /// graph after σ-inert edits, instead of built (see [`Session::update`]).
    /// Patches are not counted in [`Engine::graph_build_count`].
    pub fn graph_patch_count(&self) -> usize {
        self.cache.graph_patches.load(Ordering::Relaxed)
    }

    /// Number of prepared program points currently cached (bounded by
    /// [`SynthesisConfig::point_cache_capacity`]).
    pub fn cached_point_count(&self) -> usize {
        self.cache.read_points().len()
    }

    /// Number of suspended walk states currently parked across the engine's
    /// cached graphs (each graph parks at most four, least recently parked
    /// evicted first).
    pub fn suspended_walk_count(&self) -> usize {
        self.cache
            .read_graphs()
            .values()
            .filter_map(|slot| slot.value.cell.get())
            .map(|artifacts| artifacts.suspended_walk_count())
            .sum()
    }

    /// Number of derivation-graph artifacts currently cached (bounded by
    /// [`SynthesisConfig::graph_cache_capacity`]).
    pub fn cached_graph_count(&self) -> usize {
        self.cache.read_graphs().len()
    }

    /// Statically analyzes `env`: prepares it (or reuses the cached point),
    /// runs the goal-independent producibility fixpoint over the σ-lowered
    /// signatures, and reports dead declarations, uninhabitable types,
    /// ambiguous overload groups, duplicates and weight anomalies — see
    /// [`insynth_analysis::analyze`] for the diagnostic semantics.
    ///
    /// The report lives on the prepared point, so re-analyzing a declaration
    /// list the point cache still holds is a lookup. The diagnostics are
    /// deterministic: equal environments yield byte-equal reports on every
    /// run.
    pub fn analyze(&self, env: &TypeEnv) -> Arc<AnalysisReport> {
        self.prepare(env).analyze()
    }

    /// Number of environment analyses this engine (and its clones) actually
    /// performed; the difference between [`Engine::analyze`] calls issued
    /// and this count is the number answered from an analyzed point.
    pub fn analysis_count(&self) -> usize {
        self.cache.analyses_run.load(Ordering::Relaxed)
    }

    /// One coherent snapshot of every engine-level counter and cache size.
    ///
    /// The work counters (`prepare_count`, `graph_build_count`) are
    /// monotone; the cache sizes are instantaneous and bounded by the
    /// corresponding [`SynthesisConfig`] capacities. Gates that compare
    /// cache economics across runs (the bench harness, the server's
    /// `server/stats` reply) should read this struct rather than stitching
    /// together individual getters, which could interleave with concurrent
    /// queries.
    pub fn stats(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            prepare_count: self.prepare_count(),
            incremental_prepare_count: self.cache.incremental_prepares.load(Ordering::Relaxed),
            prepare_time_ns: self.cache.prepare_time_ns.load(Ordering::Relaxed),
            graph_build_count: self.graph_build_count(),
            graph_patch_count: self.graph_patch_count(),
            cached_point_count: self.cached_point_count(),
            cached_graph_count: self.cached_graph_count(),
            suspended_walk_count: self.suspended_walk_count(),
            analysis_count: self.analysis_count(),
        }
    }

    /// Drops every suspended walk state parked on the engine's cached
    /// graphs. A memory/benchmarking lever only: the next query on any goal
    /// replays its walk from scratch and returns identical results.
    pub fn clear_suspended_walks(&self) {
        for slot in self.cache.read_graphs().values() {
            if let Some(artifacts) = slot.value.cell.get() {
                artifacts.clear_suspended();
            }
        }
    }
}

/// An edit to a type environment: declarations to remove (by name), weight
/// overrides to set (by name), and declarations to add.
///
/// Applied by [`Session::update`] (or directly via [`EnvDelta::apply`]) in
/// that order: removals first, then reweights over the surviving original
/// declarations, then additions appended at the end. Removals and reweights
/// affect *every* declaration sharing the name (overload families edit
/// together); reweights do not touch declarations added by the same delta.
///
/// # Example
///
/// ```
/// use insynth_core::{Declaration, DeclKind, EnvDelta, TypeEnv};
/// use insynth_lambda::Ty;
///
/// let env: TypeEnv = vec![
///     Declaration::simple("a", Ty::base("A"), DeclKind::Local),
///     Declaration::simple("b", Ty::base("B"), DeclKind::Local),
/// ]
/// .into_iter()
/// .collect();
/// let delta = EnvDelta::new()
///     .remove("b")
///     .reweight("a", 2.5)
///     .add(Declaration::simple("c", Ty::base("C"), DeclKind::Local));
/// let edited = delta.apply(&env);
/// assert_eq!(edited.len(), 2);
/// assert_eq!(edited.decls()[0].weight_override, Some(2.5));
/// assert_eq!(edited.decls()[1].name, "c");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EnvDelta {
    adds: Vec<Declaration>,
    removes: Vec<String>,
    reweights: Vec<(String, f64)>,
}

impl EnvDelta {
    /// An empty delta (applying it is the identity).
    pub fn new() -> Self {
        EnvDelta::default()
    }

    /// Appends a declaration to the environment.
    // The builder name mirrors the edit it describes; EnvDelta is not a
    // numeric type, so `std::ops::Add` would be the confusing choice here.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, decl: Declaration) -> Self {
        self.adds.push(decl);
        self
    }

    /// Removes every declaration with the given name.
    pub fn remove(mut self, name: impl Into<String>) -> Self {
        self.removes.push(name.into());
        self
    }

    /// Sets an explicit weight override on every declaration with the given
    /// name (see [`Declaration::with_weight`]).
    pub fn reweight(mut self, name: impl Into<String>, weight: f64) -> Self {
        self.reweights.push((name.into(), weight));
        self
    }

    /// `true` if the delta contains no edits.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty() && self.reweights.is_empty()
    }

    /// The edited environment: removals, then reweights, then additions.
    ///
    /// The result shares every declaration the delta does not reweight with
    /// `env` (see [`TypeEnv`]); a reweight copies only the declarations it
    /// changes.
    pub fn apply(&self, env: &TypeEnv) -> TypeEnv {
        self.apply_kept(env, &self.kept(env))
    }

    /// The ascending indices of the declarations of `env` this delta keeps
    /// (every declaration whose name it does not remove). [`EnvDelta::apply`]
    /// and [`Session::update`] both derive the removal from it, so the
    /// edited list and the incremental preparation agree on which
    /// declarations went.
    fn kept(&self, env: &TypeEnv) -> Vec<usize> {
        env.iter()
            .enumerate()
            .filter(|(_, d)| !self.removes.iter().any(|r| r == &d.name))
            .map(|(idx, _)| idx)
            .collect()
    }

    /// [`EnvDelta::apply`] with the kept indices already computed.
    fn apply_kept(&self, env: &TypeEnv, kept: &[usize]) -> TypeEnv {
        let mut decls: Vec<Arc<Declaration>> = kept
            .iter()
            .map(|&idx| Arc::clone(&env.decls()[idx]))
            .collect();
        for (name, weight) in &self.reweights {
            for decl in decls.iter_mut().filter(|d| &d.name == name) {
                Arc::make_mut(decl).weight_override = Some(*weight);
            }
        }
        decls.extend(self.adds.iter().cloned().map(Arc::new));
        decls.into_iter().collect()
    }
}

/// A builder-style synthesis request: the goal type, how many snippets to
/// return, and optional per-query overrides of the session's configuration.
///
/// Unset fields inherit from the [`SynthesisConfig`] the engine was built
/// with; `n` defaults to 10, the paper's interactive `N`.
///
/// # Example
///
/// ```
/// use insynth_core::Query;
/// use insynth_lambda::Ty;
/// use std::time::Duration;
///
/// let query = Query::new(Ty::base("File"))
///     .with_n(3)
///     .with_max_depth(4)
///     .with_prover_time_limit(Some(Duration::from_millis(100)));
/// assert_eq!(query.n(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    goal: Ty,
    n: usize,
    prover_time_limit: Option<Option<Duration>>,
    reconstruction_time_limit: Option<Option<Duration>>,
    max_explore_requests: Option<usize>,
    max_reconstruction_steps: Option<usize>,
    max_depth: Option<Option<usize>>,
    erase_coercions: Option<bool>,
    cancel: Option<CancelToken>,
}

impl Query {
    /// A request for the 10 best snippets of type `goal` under the session's
    /// configuration.
    pub fn new(goal: Ty) -> Self {
        Query {
            goal,
            n: 10,
            prover_time_limit: None,
            reconstruction_time_limit: None,
            max_explore_requests: None,
            max_reconstruction_steps: None,
            max_depth: None,
            erase_coercions: None,
            cancel: None,
        }
    }

    /// The goal type.
    pub fn goal(&self) -> &Ty {
        &self.goal
    }

    /// The number of snippets requested.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets the number of snippets to return (the paper's `N`).
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Overrides the exploration + pattern generation wall-clock budget
    /// (`None` removes the limit).
    pub fn with_prover_time_limit(mut self, limit: Option<Duration>) -> Self {
        self.prover_time_limit = Some(limit);
        self
    }

    /// Overrides the reconstruction wall-clock budget (`None` removes the
    /// limit).
    pub fn with_reconstruction_time_limit(mut self, limit: Option<Duration>) -> Self {
        self.reconstruction_time_limit = Some(limit);
        self
    }

    /// Overrides the hard cap on exploration requests.
    pub fn with_max_explore_requests(mut self, max: usize) -> Self {
        self.max_explore_requests = Some(max);
        self
    }

    /// Overrides the hard cap on reconstruction steps.
    pub fn with_max_reconstruction_steps(mut self, max: usize) -> Self {
        self.max_reconstruction_steps = Some(max);
        self
    }

    /// Bounds the depth of synthesized terms for this query.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(Some(depth));
        self
    }

    /// Removes the session's depth bound for this query.
    pub fn without_max_depth(mut self) -> Self {
        self.max_depth = Some(None);
        self
    }

    /// Overrides whether coercion applications are erased from the reported
    /// snippets.
    pub fn with_erase_coercions(mut self, erase: bool) -> Self {
        self.erase_coercions = Some(erase);
        self
    }

    /// Attaches a cooperative cancellation token, checked between
    /// reconstruction pops. A query whose token fires stops early and
    /// reports `truncated`; the interrupted walk state is discarded rather
    /// than parked, so later queries under the same budgets start clean.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The session configuration with this query's overrides applied.
    fn effective_config(&self, base: &SynthesisConfig) -> SynthesisConfig {
        // The weights (baked into the prepared point) and the cache bounds
        // are engine-level; a query cannot override them.
        SynthesisConfig {
            prover_time_limit: self.prover_time_limit.unwrap_or(base.prover_time_limit),
            reconstruction_time_limit: self
                .reconstruction_time_limit
                .unwrap_or(base.reconstruction_time_limit),
            max_explore_requests: self
                .max_explore_requests
                .unwrap_or(base.max_explore_requests),
            max_reconstruction_steps: self
                .max_reconstruction_steps
                .unwrap_or(base.max_reconstruction_steps),
            max_depth: self.max_depth.unwrap_or(base.max_depth),
            erase_coercions: self.erase_coercions.unwrap_or(base.erase_coercions),
            ..base.clone()
        }
    }
}

/// One prepared program point, shared by every session that addresses it:
/// the declaration list, the σ-lowered environment, the σ cost that was paid
/// for it, and its environment analysis once one was asked for.
#[derive(Debug)]
pub(crate) struct PreparedPoint {
    env: TypeEnv,
    prepared: Arc<PreparedEnv>,
    prepare_time: Duration,
    /// The [`Session::analyze`] report, computed at most once per point. Its
    /// diagnostic indices resolve against `env`.
    analysis: OnceLock<Arc<AnalysisReport>>,
    /// The point this one was edited from, when the edit was σ-inert
    /// ([`PreparedEnv::same_sigma_space`]): a graph-cache miss patches the
    /// nearest ancestor's graph instead of building (see
    /// [`Session::query_stream`]).
    parent: Option<ParentLink>,
}

/// A σ-inert edit's link from the edited point back to the point it edited.
/// Weak, so a chain of edits never keeps old revisions alive.
#[derive(Debug)]
struct ParentLink {
    point: Weak<PreparedPoint>,
    /// The ascending indices of the parent's declarations the edit kept: the
    /// edited point's declaration `j < kept.len()` is the parent's
    /// `kept[j]`, and the rest were added.
    kept: Vec<usize>,
}

impl PreparedPoint {
    fn new(env: TypeEnv, prepared: Arc<PreparedEnv>, prepare_time: Duration) -> Self {
        PreparedPoint {
            env,
            prepared,
            prepare_time,
            analysis: OnceLock::new(),
            parent: None,
        }
    }
}

/// The inputs that determine a derivation graph: the program point's
/// fingerprint and the goal, plus every configuration knob that can change
/// what exploration and pattern generation produce. Anything else (`n`,
/// reconstruction budgets, coercion erasure) only affects the walk and
/// shares the cached graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ArtifactKey {
    fingerprint: EnvFingerprint,
    goal: Ty,
    max_explore_requests: usize,
    prover_time_limit: Option<Duration>,
}

/// Everything a query needs that does not depend on `n` or the reconstruction
/// budgets: the derivation graph plus the statistics and timings of the
/// phases that built it. Cached per [`ArtifactKey`] on the engine, so
/// repeated queries — from any session addressing the same program point —
/// replay the recorded stats and walk the same graph. Artifacts patched from
/// an ancestor revision's keep its exploration and pattern statistics (the
/// patch proves exploration replays identically); their explore time is zero
/// and their pattern time is the patch's.
#[derive(Debug)]
pub(crate) struct QueryArtifacts {
    graph: DerivationGraph,
    /// The program point the graph was built (or patched) for. The graph's
    /// `Head::Decl` edges are indices into *this* point's declaration list,
    /// so term rendering always resolves against it — never against the
    /// querying session's (possibly permuted, possibly delta-extended)
    /// environment.
    point: Arc<PreparedPoint>,
    explore_time: Duration,
    patterns_time: Duration,
    reachability_terms: usize,
    requests_processed: usize,
    patterns: usize,
    explore_truncated: bool,
    /// `true` when the exploration truncation was wall-clock-driven — a
    /// nondeterministic outcome that must not be cached.
    time_truncated: bool,
    /// Sorted names of every base type exploration requested. A declaration
    /// can influence this graph — as a match, a queue weight or a `Select`
    /// edge — only if its return-type name appears here; the delta path
    /// carries an artifact across an edit exactly when no changed
    /// declaration's return type does.
    touched_rets: Box<[String]>,
    /// Suspended walk states parked on this graph by finished streams, so a
    /// follow-up query under the same reconstruction budgets resumes the
    /// walk — popping only the delta — instead of replaying it. Because the
    /// walks live *on* the artifact, they inherit its lifecycle for free:
    /// evicting or dropping the artifact drops them, and the delta
    /// carry-over path carries them exactly when it carries the graph —
    /// which it does only when the edit provably cannot reach it. A patched
    /// artifact starts with none: the edit changed the graph's edges, so no
    /// ancestor's frontier is valid on it.
    suspended: Mutex<SuspendedWalks>,
}

/// How many suspended walks one cached graph parks at most; the least
/// recently parked is evicted first.
const SUSPENDED_WALK_CAPACITY: usize = 4;

/// The suspended walks parked on one cached graph, keyed by the
/// reconstruction budgets that shaped their trajectories, with a local LRU
/// clock. Together with the artifact cache's own key this realises the full
/// `(fingerprint, goal, budgets)` resume key: artifacts are already cached
/// per `(fingerprint, goal, explore budgets)`, and the weights are fixed per
/// engine, so a walk can never be resumed across differing weights.
#[derive(Default)]
struct SuspendedWalks {
    clock: u64,
    walks: HashMap<StreamKey, Stamped<WalkState>>,
}

impl fmt::Debug for SuspendedWalks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SuspendedWalks")
            .field("walks", &self.walks.len())
            .finish()
    }
}

/// The reconstruction budgets that shape a walk's trajectory — the
/// per-graph key under which suspended walks are parked and resumed. Two
/// queries agreeing on every component walk identical trajectories, so the
/// later one may adopt the earlier one's state; any differing budget starts
/// fresh. (`max_frontier` is a fixed default on the session path and needs
/// no component.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct StreamKey {
    max_steps: usize,
    time_limit: Option<Duration>,
    max_depth: Option<usize>,
}

impl StreamKey {
    fn of(config: &SynthesisConfig) -> StreamKey {
        StreamKey {
            max_steps: config.max_reconstruction_steps,
            time_limit: config.reconstruction_time_limit,
            max_depth: config.max_depth,
        }
    }
}

impl QueryArtifacts {
    /// Removes (checks out) the suspended walk parked under `key`, if any.
    /// Removal makes checkout race-free: of two concurrent streams, one
    /// resumes the walk and the other starts fresh — both byte-identical.
    fn checkout_walk(&self, key: &StreamKey) -> Option<WalkState> {
        lock_recovering(&self.suspended)
            .walks
            .remove(key)
            .map(|parked| parked.value)
    }

    /// Parks (checks in) a suspended walk under `key`, evicting the least
    /// recently parked walks beyond [`SUSPENDED_WALK_CAPACITY`]. Callers must
    /// withhold wall-clock-truncated states — those may have lost a partially
    /// expanded frontier entry and are not safe to resume.
    fn checkin_walk(&self, key: StreamKey, state: WalkState) {
        let mut suspended = lock_recovering(&self.suspended);
        suspended.clock += 1;
        let parked = Stamped {
            value: state,
            last_used: AtomicU64::new(suspended.clock),
        };
        suspended.walks.insert(key, parked);
        evict_lru(&mut suspended.walks, SUSPENDED_WALK_CAPACITY);
    }

    fn clear_suspended(&self) {
        lock_recovering(&self.suspended).walks.clear();
    }

    fn suspended_walk_count(&self) -> usize {
        lock_recovering(&self.suspended).walks.len()
    }
}

/// A cached value together with its LRU recency stamp (atomic so hits can
/// refresh it under the shared read lock).
#[derive(Debug)]
struct Stamped<T> {
    value: T,
    last_used: AtomicU64,
}

/// The single-flight build slot of one artifact key: concurrent queries for
/// one key all wait on (and share) exactly one build.
type GraphCell = Arc<OnceLock<Arc<QueryArtifacts>>>;

/// A cached derivation-graph slot: the build cell plus the prepared point
/// this cache line serves. Every lookup verifies its session's point against
/// it (pointer-fast for sessions sharing the point, by list equality
/// otherwise), so a graph whose `Head::Decl` indices were resolved against
/// one declaration order can never be rendered through another — and a
/// fingerprint collision degrades to a private, uncached build.
#[derive(Debug)]
struct GraphSlot {
    cell: GraphCell,
    point: Arc<PreparedPoint>,
}

type PointMap = HashMap<EnvFingerprint, Stamped<Arc<PreparedPoint>>>;
type GraphMap = HashMap<ArtifactKey, Stamped<GraphSlot>>;

/// Evicts least-recently-used entries until `map` fits `capacity`. The entry
/// a caller just stamped carries the newest stamp, so it is never the victim.
fn evict_lru<K: Clone + Eq + std::hash::Hash, T>(
    map: &mut HashMap<K, Stamped<T>>,
    capacity: usize,
) {
    while map.len() > capacity {
        let victim = map
            .iter()
            .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
            .map(|(key, _)| key.clone());
        match victim {
            Some(victim) => {
                map.remove(&victim);
            }
            None => break,
        }
    }
}

/// The engine-level content-addressed caches: prepared program points keyed
/// by [`EnvFingerprint`], and query artifacts (derivation graphs) keyed by
/// `(fingerprint, goal, prover budgets)`. Shared — behind one `Arc` — by the
/// engine, its clones, and every session it prepares.
///
/// Both caches survive panics: they only ever hold fully built values, so
/// poisoned locks are recovered (`into_inner`) rather than propagated, and
/// one panicking query thread can never brick the other threads sharing the
/// engine.
#[derive(Debug)]
pub(crate) struct ArtifactCache {
    points: RwLock<PointMap>,
    graphs: RwLock<GraphMap>,
    /// Monotone stamp source for both caches' LRU recency ordering.
    clock: AtomicU64,
    /// σ-lowering runs (full and incremental preparations).
    prepares: AtomicUsize,
    /// The incremental part of `prepares`.
    incremental_prepares: AtomicUsize,
    /// Cumulative wall time of all σ-lowering runs, in nanoseconds.
    prepare_time_ns: AtomicU64,
    /// Derivation-graph builds across every session of the engine.
    graph_builds: AtomicUsize,
    /// Derivation graphs patched from an ancestor's instead of built.
    graph_patches: AtomicUsize,
    /// Environment analyses performed (at most one per prepared point).
    analyses_run: AtomicUsize,
}

impl ArtifactCache {
    fn new() -> Self {
        ArtifactCache {
            points: RwLock::new(HashMap::new()),
            graphs: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
            prepares: AtomicUsize::new(0),
            incremental_prepares: AtomicUsize::new(0),
            prepare_time_ns: AtomicU64::new(0),
            graph_builds: AtomicUsize::new(0),
            graph_patches: AtomicUsize::new(0),
            analyses_run: AtomicUsize::new(0),
        }
    }

    /// Accounts one σ-lowering run: the work counter, its wall time, and —
    /// when it was incremental — the path counter the stats snapshot reports.
    fn record_prepare(&self, incremental: bool, elapsed: Duration) {
        self.prepares.fetch_add(1, Ordering::Relaxed);
        if incremental {
            self.incremental_prepares.fetch_add(1, Ordering::Relaxed);
        }
        self.prepare_time_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Acquires a cache map for reading, recovering from a poisoned lock (the
    /// maps only ever hold fully built values, so the state is safe to
    /// adopt).
    fn read_points(&self) -> RwLockReadGuard<'_, PointMap> {
        self.points.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_points(&self) -> RwLockWriteGuard<'_, PointMap> {
        self.points.write().unwrap_or_else(|e| e.into_inner())
    }

    fn read_graphs(&self) -> RwLockReadGuard<'_, GraphMap> {
        self.graphs.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_graphs(&self) -> RwLockWriteGuard<'_, GraphMap> {
        self.graphs.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up a prepared point by fingerprint, sharing it only when it
    /// holds the identical declaration list: equal-weight ties emit in
    /// declaration order, so a permutation answers differently, and a
    /// fingerprint collision must never share either.
    fn lookup_point(
        &self,
        fingerprint: EnvFingerprint,
        env: &TypeEnv,
    ) -> Option<Arc<PreparedPoint>> {
        let points = self.read_points();
        let entry = points.get(&fingerprint)?;
        if entry.value.env != *env {
            return None;
        }
        entry.last_used.store(self.stamp(), Ordering::Relaxed);
        Some(Arc::clone(&entry.value))
    }

    /// Inserts a freshly prepared point, adopting an identical entry another
    /// thread raced in first, and evicting the least recently used points
    /// beyond `capacity`. A different occupant (a permutation or a
    /// collision) is left alone and the caller's point is returned uncached.
    fn insert_point(&self, point: Arc<PreparedPoint>, capacity: usize) -> Arc<PreparedPoint> {
        let mut points = self.write_points();
        let stamp = self.stamp();
        match points.entry(point.prepared.fingerprint) {
            std::collections::hash_map::Entry::Occupied(entry) => {
                return if entry.get().value.env == point.env {
                    entry.get().last_used.store(stamp, Ordering::Relaxed);
                    Arc::clone(&entry.get().value)
                } else {
                    point
                };
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Stamped {
                    value: Arc::clone(&point),
                    last_used: AtomicU64::new(stamp),
                });
            }
        }
        evict_lru(&mut points, capacity);
        point
    }

    /// The single-flight build slot for `key`, serving `point`: existing
    /// entries are stamped and shared after verifying they serve the same
    /// program point (pointer-fast when the session shares the cached point,
    /// structural otherwise), a missing entry is created empty (the caller
    /// initializes it outside the lock), and the cache is bounded to
    /// `capacity` by LRU eviction. Returns `None` when the key is occupied
    /// by a *different* program point — a fingerprint collision — in which
    /// case the caller must build privately and cache nothing.
    fn graph_cell(
        &self,
        key: ArtifactKey,
        point: &Arc<PreparedPoint>,
        capacity: usize,
    ) -> Option<GraphCell> {
        // Pointer equality covers every session sharing the cached point
        // (the common case); the fallback comparison is *exact* — a permuted
        // environment emits equal-weight ties in a different order, so
        // sharing its graphs would leak the other ordering into this
        // session's results.
        let serves =
            |slot: &GraphSlot| Arc::ptr_eq(&slot.point, point) || slot.point.env == point.env;
        if let Some(entry) = self.read_graphs().get(&key) {
            if !serves(&entry.value) {
                return None;
            }
            entry.last_used.store(self.stamp(), Ordering::Relaxed);
            return Some(Arc::clone(&entry.value.cell));
        }
        let mut graphs = self.write_graphs();
        let stamp = self.stamp();
        let entry = graphs.entry(key).or_insert_with(|| Stamped {
            value: GraphSlot {
                cell: Arc::new(OnceLock::new()),
                point: Arc::clone(point),
            },
            last_used: AtomicU64::new(0),
        });
        if !serves(&entry.value) {
            return None;
        }
        entry.last_used.store(stamp, Ordering::Relaxed);
        let cell = Arc::clone(&entry.value.cell);
        evict_lru(&mut graphs, capacity);
        Some(cell)
    }

    /// The built artifacts cached under `key` for `point`, if any — a peek
    /// that neither creates an entry nor refreshes its recency.
    fn built_artifacts(
        &self,
        key: &ArtifactKey,
        point: &Arc<PreparedPoint>,
    ) -> Option<Arc<QueryArtifacts>> {
        let graphs = self.read_graphs();
        let slot = &graphs.get(key)?.value;
        if !Arc::ptr_eq(&slot.point, point) && slot.point.env != point.env {
            return None;
        }
        slot.cell.get().cloned()
    }

    /// Removes `key` if it still maps to `cell` — used to drop
    /// wall-clock-truncated builds, which are a property of the moment and
    /// must not stay cached.
    fn discard_graph(&self, key: &ArtifactKey, cell: &GraphCell) {
        let mut graphs = self.write_graphs();
        if let Some(entry) = graphs.get(key) {
            if Arc::ptr_eq(&entry.value.cell, cell) {
                graphs.remove(key);
            }
        }
    }

    /// Copies every fully built artifact of `old_point` that `keep` accepts
    /// to the same key under `new_point`'s fingerprint — the delta path's
    /// selective carry-over. The new entries serve (and verify against) the
    /// edited point; the shared artifacts keep referencing their original
    /// build point, whose declaration prefix the edited environment extends.
    fn carry_over(
        &self,
        old_point: &Arc<PreparedPoint>,
        new_point: &Arc<PreparedPoint>,
        capacity: usize,
        keep: impl Fn(&QueryArtifacts) -> bool,
    ) {
        let old_fp = old_point.prepared.fingerprint;
        let new_fp = new_point.prepared.fingerprint;
        let survivors: Vec<(ArtifactKey, GraphCell)> = {
            let graphs = self.read_graphs();
            graphs
                .iter()
                .filter_map(|(key, entry)| {
                    if key.fingerprint != old_fp || !Arc::ptr_eq(&entry.value.point, old_point) {
                        return None;
                    }
                    // Only fully built cells can be judged (and shared).
                    let artifacts = entry.value.cell.get()?;
                    keep(artifacts).then(|| {
                        let mut new_key = key.clone();
                        new_key.fingerprint = new_fp;
                        (new_key, Arc::clone(&entry.value.cell))
                    })
                })
                .collect()
        };
        if survivors.is_empty() {
            return;
        }
        let mut graphs = self.write_graphs();
        for (key, cell) in survivors {
            let stamp = self.stamp();
            graphs.entry(key).or_insert(Stamped {
                value: GraphSlot {
                    cell,
                    point: Arc::clone(new_point),
                },
                last_used: AtomicU64::new(stamp),
            });
        }
        evict_lru(&mut graphs, capacity);
    }
}

/// One prepared program point: the σ-lowered environment plus the engine
/// configuration it was prepared under.
///
/// Sessions are `Send + Sync`: queries borrow the prepared environment
/// read-only and keep all mutable search state (priority queues, visited
/// sets, newly interned types) in per-query scratch space, so an
/// `Arc<Session>` can answer queries from many threads concurrently.
///
/// Sessions addressing the identical declaration list — prepared through one
/// [`Engine`] (or its clones) — share the prepared point *and* the
/// derivation-graph cache: the first query for a goal builds the graph (and
/// its A* completion bounds), every later query for it, from any such
/// session, goes straight to reconstruction. Builds are single-flight, so
/// concurrent first queries perform exactly one build. Only completely
/// explored graphs stay cached — a build whose exploration hit the prover's
/// wall-clock budget serves its queries and is discarded, so a transiently
/// slow machine can never pin incomplete results onto the engine. Cached
/// queries are byte-identical to what an uncached run of the same
/// (untruncated) build returns.
///
/// The cache is **bounded**: at most
/// [`SynthesisConfig::graph_cache_capacity`] graphs (default 64) are kept
/// across the engine, and the least recently used graph is evicted when a
/// new key would exceed the bound. The cache also survives panics: a query
/// thread that panics mid-cache-access (poisoning a lock) never bricks the
/// other threads sharing the engine, because the caches only ever hold fully
/// built values and the locks are recovered on the next access.
///
/// [`Session::update`] derives a session for an *edited* environment,
/// re-running σ only on the changed declarations and carrying the cached
/// graphs the edit provably cannot affect; after a σ-inert edit, a graph the
/// edited session misses is patched from the parent's — see [`EnvDelta`]
/// and [`Session::update`].
#[derive(Debug)]
pub struct Session {
    point: Arc<PreparedPoint>,
    config: SynthesisConfig,
    cache: Arc<ArtifactCache>,
    /// Number of derivation-graph builds this session has performed (cache
    /// misses and non-cacheable builds).
    graph_builds: AtomicUsize,
}

impl Session {
    /// The declaration list of this session's program point: equal,
    /// declaration for declaration and in order, to the environment passed to
    /// [`Engine::prepare`] (or produced by [`Session::update`]).
    pub fn env(&self) -> &TypeEnv {
        &self.point.env
    }

    /// The configuration queries inherit (before per-query overrides).
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// The σ-lowered environment.
    pub fn prepared(&self) -> &PreparedEnv {
        &self.point.prepared
    }

    /// The content address of this session's program point.
    pub fn fingerprint(&self) -> EnvFingerprint {
        self.point.prepared.fingerprint
    }

    /// How long the σ-lowering of this program point took — the cost that is
    /// paid once per distinct declaration list (point-cache hits and
    /// incremental updates pay less) instead of once per query.
    pub fn prepare_time(&self) -> Duration {
        self.point.prepare_time
    }

    fn count_build(&self) {
        self.graph_builds.fetch_add(1, Ordering::Relaxed);
        self.cache.graph_builds.fetch_add(1, Ordering::Relaxed);
    }

    fn count_patch(&self) {
        self.cache.graph_patches.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers one query against this program point.
    ///
    /// Does not re-run σ, and reuses the engine-cached derivation graph when
    /// the goal was queried before — by this session or any session sharing
    /// its point — the repeated-query fast path that skips exploration and
    /// pattern generation entirely.
    pub fn query(&self, query: &Query) -> SynthesisResult {
        self.query_stream(query).into_result(query.n)
    }

    /// Opens a [`TermStream`] for `query`: the iterator form of
    /// [`Session::query`], yielding [`RankedTerm`]s one at a time as the
    /// walk pops them, in the same byte-identical best-first order.
    ///
    /// The stream resolves (or reuses) the cached derivation graph exactly
    /// as `query` does. On a miss, a point reached by σ-inert edits (see
    /// [`Session::update`]) follows its chain of parents to the nearest one
    /// with a built, untruncated graph for the same goal and budgets, and
    /// patches that graph ([`DerivationGraph::patch`]); without one, or when
    /// the patch cannot be proven exact, it builds. The stream then either
    /// *resumes* a suspended walk parked by an
    /// earlier stream under the same reconstruction budgets — popping only
    /// the delta — or starts a fresh walk. Dropping the stream parks its
    /// walk state back on the cached artifact (unless wall-clock-truncated),
    /// so `query(n=10)` followed by `query(n=20)` pays for ten new
    /// emissions, not thirty. Resumption is an optimisation only: emission
    /// order, terms and weights are identical either way.
    pub fn query_stream(&self, query: &Query) -> TermStream {
        let config = query.effective_config(&self.config);
        let cell = if self.config.graph_cache_capacity == 0 {
            None
        } else {
            let key = ArtifactKey {
                fingerprint: self.fingerprint(),
                goal: query.goal.clone(),
                max_explore_requests: config.max_explore_requests,
                prover_time_limit: config.prover_time_limit,
            };
            self.cache
                .graph_cell(key.clone(), &self.point, self.config.graph_cache_capacity)
                .map(|cell| (key, cell))
        };
        let artifacts = match cell {
            // Caching disabled, or the key is occupied by a different
            // declaration list (a permutation or a fingerprint collision):
            // build privately, per query, caching nothing.
            None => {
                self.count_build();
                Arc::new(build_artifacts(&self.point, &config, &query.goal))
            }
            Some((key, cell)) => {
                let artifacts = Arc::clone(cell.get_or_init(|| {
                    let patched = self.patch_from_ancestor(&key, &config);
                    Arc::new(patched.unwrap_or_else(|| {
                        self.count_build();
                        build_artifacts(&self.point, &config, &query.goal)
                    }))
                }));
                if artifacts.time_truncated {
                    // A wall-clock-truncated exploration is a property of
                    // this moment, not of the goal: caching it would pin an
                    // incomplete graph on the engine forever. Use it for the
                    // queries already waiting on this cell and let the next
                    // query re-explore. (A `max_explore_requests`-capped
                    // exploration is deterministic — the cap is part of the
                    // key — and caches normally.)
                    self.cache.discard_graph(&key, &cell);
                }
                artifacts
            }
        };
        let decls = self.point.env.len();
        let distinct = self.point.prepared.distinct_succinct_types();
        TermStream::open(artifacts, config, decls, distinct, query.cancel.clone())
    }

    /// The artifacts for `key` patched from the nearest ancestor, along this
    /// point's chain of σ-inert edits, that has a built, untruncated graph
    /// for the same goal and budgets — or `None` when there is no such
    /// ancestor or [`DerivationGraph::patch`] cannot prove the patch exact.
    /// Exploration replays identically across the chain, so the patch keeps
    /// the ancestor's exploration and pattern statistics; its reported
    /// explore time is zero and its pattern time is the patch's.
    fn patch_from_ancestor(
        &self,
        key: &ArtifactKey,
        config: &SynthesisConfig,
    ) -> Option<QueryArtifacts> {
        let started = Instant::now();
        // The edited points below the ancestor, each with its parent's size.
        let mut hops: Vec<(Arc<PreparedPoint>, usize)> = Vec::new();
        let mut point = Arc::clone(&self.point);
        let ancestor = loop {
            let parent = point.parent.as_ref()?.point.upgrade()?;
            hops.push((point, parent.env.len()));
            let parent_key = ArtifactKey {
                fingerprint: parent.prepared.fingerprint,
                ..key.clone()
            };
            let built = self.cache.built_artifacts(&parent_key, &parent);
            if let Some(artifacts) = built.filter(|a| !a.explore_truncated && !a.time_truncated) {
                break artifacts;
            }
            point = parent;
        };
        // Compose the hops' kept tables into the ancestor-to-here index map.
        let mut old_to_new: Vec<u32> = (0..self.point.env.len() as u32).collect();
        for (child, parent_len) in &hops {
            let link = child.parent.as_ref().expect("every hop has a parent link");
            let mut up = vec![DECL_REMOVED; *parent_len];
            for (j, &idx) in link.kept.iter().enumerate() {
                up[idx] = old_to_new[j];
            }
            old_to_new = up;
        }
        let graph = ancestor.graph.patch(
            &self.point.prepared,
            &self.point.env,
            &config.weights,
            &old_to_new,
        )?;
        self.count_patch();
        Some(QueryArtifacts {
            graph,
            point: Arc::clone(&self.point),
            explore_time: Duration::ZERO,
            patterns_time: started.elapsed(),
            reachability_terms: ancestor.reachability_terms,
            requests_processed: ancestor.requests_processed,
            patterns: ancestor.patterns,
            explore_truncated: false,
            time_truncated: false,
            touched_rets: ancestor.touched_rets.clone(),
            suspended: Mutex::new(SuspendedWalks::default()),
        })
    }

    /// Derives a session for the environment obtained by applying `delta` to
    /// this session's point — the edit-time path of the interactive loop.
    ///
    /// Results from the returned session are **byte-identical** to a fresh
    /// [`Engine::prepare`] of the edited environment. What varies is the
    /// work performed:
    ///
    /// * additions and reweights re-run σ only on the appended declarations
    ///   ([`PreparedEnv::prepare_incremental`]) and **carry over** every
    ///   cached derivation graph whose exploration provably cannot observe
    ///   the change (no changed declaration's return type was ever
    ///   requested, the initial succinct environment is unchanged, and the
    ///   edit does not flip weight monotonicity);
    /// * a removal stays on the same incremental path when it is *inert*
    ///   ([`PreparedEnv::removal_is_inert`]): every removed declaration's
    ///   type was already interned by an earlier declaration, and its σ
    ///   image keeps a surviving declaration — the common edit of dropping
    ///   a local whose type the environment already has. Any other removal,
    ///   and deltas larger than a quarter of the environment (removed
    ///   declarations count), fall back to a fresh preparation: such a
    ///   removal shifts the interning sequence, so nothing can be proven
    ///   bit-identical cheaply;
    /// * an incremental edit that is also *σ-inert*
    ///   ([`PreparedEnv::same_sigma_space`]: it interned no type and no
    ///   environment — adding, removing or reweighting locals of types Γ
    ///   already has) links the edited point to this one and does no graph
    ///   work. Graphs are not carried across a removal (declaration indices
    ///   shift); instead, a graph-cache miss on the edited point *patches*
    ///   the nearest ancestor's graph for the same goal and budgets
    ///   ([`DerivationGraph::patch`]) when exploration would replay
    ///   identically, and builds otherwise;
    /// * a no-op delta (or one whose result is already cached) returns a
    ///   session sharing the existing point outright. As in
    ///   [`Engine::prepare`], only the identical declaration list is shared:
    ///   a cached permutation is prepared past (uncached) rather than
    ///   adopted.
    ///
    /// The original session remains fully usable — sessions are immutable;
    /// an editor keeps one session per open revision if it wants to.
    pub fn update(&self, delta: &EnvDelta) -> Session {
        let old_point = &self.point;
        let old_env = &old_point.env;
        let kept = delta.kept(old_env);
        let new_env = delta.apply_kept(old_env, &kept);
        let fingerprint = PreparedEnv::fingerprint_of(&new_env, &self.config.weights);
        if fingerprint == old_point.prepared.fingerprint && *old_env == new_env {
            return self.resession(Arc::clone(old_point));
        }
        let point_capacity = self.config.point_cache_capacity;
        if point_capacity > 0 {
            if let Some(point) = self.cache.lookup_point(fingerprint, &new_env) {
                return self.resession(point);
            }
        }

        // The incremental path covers appends, in-place reweights and inert
        // removals; it is skipped when the delta rivals the environment in
        // size (at that scale a fresh preparation costs about the same and
        // carries no bookkeeping risk).
        let removed = old_env.len() - kept.len();
        let incremental = removed + delta.adds.len() + delta.reweights.len()
            <= 16.max(old_env.len() / 4)
            && old_point.prepared.removal_is_inert(&kept);
        let started = Instant::now();
        let prepared = if incremental {
            Arc::new(PreparedEnv::prepare_incremental(
                &old_point.prepared,
                &kept,
                &new_env,
                &self.config.weights,
                fingerprint,
            ))
        } else {
            Arc::new(PreparedEnv::prepare_with_fingerprint(
                &new_env,
                &self.config.weights,
                fingerprint,
            ))
        };
        let prepare_time = started.elapsed();
        self.cache.record_prepare(incremental, prepare_time);
        // A σ-inert edit does no graph work here: it only remembers where it
        // came from, so a graph-cache miss on the edited point can patch the
        // parent's graph.
        let parent =
            (incremental && prepared.same_sigma_space(&old_point.prepared)).then(|| ParentLink {
                point: Arc::downgrade(old_point),
                kept,
            });
        let point = Arc::new(PreparedPoint {
            parent,
            ..PreparedPoint::new(new_env, prepared, prepare_time)
        });

        if incremental && removed == 0 && self.config.graph_cache_capacity > 0 {
            // Selective carry-over: a cached graph survives the edit iff a
            // fresh build against the edited environment would be identical.
            // That holds when (a) the initial succinct environment kept its
            // identity (no brand-new declaration *type* entered Γ), (b) the
            // edit does not flip weight monotonicity (which selects between
            // the A* and best-first regimes globally), and (c) the goal's
            // exploration never requested any changed declaration's return
            // type — a declaration can influence exploration order, matches
            // or `Select` edges only through requests for its return type.
            let old_monotone = old_point.prepared.weights_monotone(&self.config.weights);
            let new_monotone = point.prepared.weights_monotone(&self.config.weights);
            if point.prepared.init_env == old_point.prepared.init_env
                && old_monotone == new_monotone
            {
                let changed = changed_ret_names(&old_point.prepared, &point.prepared, &point.env);
                self.cache.carry_over(
                    old_point,
                    &point,
                    self.config.graph_cache_capacity,
                    |artifacts| {
                        !artifacts.explore_truncated
                            && !artifacts.time_truncated
                            && changed
                                .iter()
                                .all(|ret| artifacts.touched_rets.binary_search(ret).is_err())
                    },
                );
            }
        }

        let point = if point_capacity > 0 {
            self.cache.insert_point(point, point_capacity)
        } else {
            point
        };
        self.resession(point)
    }

    fn resession(&self, point: Arc<PreparedPoint>) -> Session {
        Session {
            point,
            config: self.config.clone(),
            cache: Arc::clone(&self.cache),
            graph_builds: AtomicUsize::new(0),
        }
    }

    /// Number of derivation graphs currently cached for this session's
    /// program point (one per distinct goal/prover-budget combination
    /// queried so far, bounded — together with every other point's graphs —
    /// by [`SynthesisConfig::graph_cache_capacity`]).
    pub fn cached_graph_count(&self) -> usize {
        let fingerprint = self.fingerprint();
        self.cache
            .read_graphs()
            .keys()
            .filter(|key| key.fingerprint == fingerprint)
            .count()
    }

    /// Number of derivation-graph builds this session has performed — cache
    /// misses no ancestor's graph could be patched for, plus non-cacheable
    /// builds (wall-clock-truncated explorations, keys held by a different
    /// declaration list). (The engine-wide totals, across sessions, are
    /// [`Engine::graph_build_count`] and [`Engine::graph_patch_count`].)
    pub fn graph_build_count(&self) -> usize {
        self.graph_builds.load(Ordering::Relaxed)
    }

    /// Decides inhabitation only (the "prover" mode used for the Imogen/fCube
    /// comparison of Table 2): runs exploration and pattern generation and
    /// checks whether the goal type received a pattern, without
    /// reconstructing any term.
    pub fn is_inhabited(&self, goal: &Ty) -> bool {
        use insynth_succinct::TypeStore;

        let prepared = self.prepared();
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(goal);
        let space = explore(
            prepared,
            &mut store,
            goal_succ,
            &ExploreLimits {
                max_requests: self.config.max_explore_requests,
                time_limit: self.config.prover_time_limit,
            },
        );
        let patterns = generate_patterns(&mut store, &space);
        let goal_args = store.args_of(goal_succ).to_vec();
        let extended = store.env_union(prepared.init_env, &goal_args);
        let ret = store.ret_of(goal_succ);
        patterns.is_inhabited(ret, extended)
    }

    /// Statically analyzes this session's program point — the session form
    /// of [`Engine::analyze`]. The report is computed once per prepared point
    /// and kept on it, so every session sharing the point shares the report.
    /// Its diagnostic indices resolve against [`Session::env`].
    pub fn analyze(&self) -> Arc<AnalysisReport> {
        let report = self.point.analysis.get_or_init(|| {
            self.cache.analyses_run.fetch_add(1, Ordering::Relaxed);
            Arc::new(analyze_point(&self.point, &self.config))
        });
        Arc::clone(report)
    }
}

/// Runs the goal-independent static analysis over one prepared point: adapts
/// the declaration list and the σ-lowering into the analyzer's
/// [`DeclFacts`] form and hands it the frozen succinct store.
fn analyze_point(point: &Arc<PreparedPoint>, config: &SynthesisConfig) -> AnalysisReport {
    let prepared = &point.prepared;
    let facts: Vec<DeclFacts> = point
        .env
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
    analyze(
        &prepared.store,
        &facts,
        config.weights.lambda_weight().value(),
    )
}

/// The sorted return-type names of every declaration whose effective weight
/// changed between the two (prefix-aligned) preparations, plus those of every
/// appended declaration — the set of base types an edit can influence
/// exploration through.
fn changed_ret_names(
    old_prepared: &PreparedEnv,
    new_prepared: &PreparedEnv,
    new_env: &TypeEnv,
) -> Vec<String> {
    let prefix_len = old_prepared.decl_weight.len();
    let mut changed: BTreeSet<String> = BTreeSet::new();
    for (idx, decl) in new_env.iter().enumerate() {
        let touched =
            idx >= prefix_len || old_prepared.decl_weight[idx] != new_prepared.decl_weight[idx];
        if touched {
            changed.insert(decl.ty.result_base().to_owned());
        }
    }
    changed.into_iter().collect()
}

/// Runs exploration, pattern generation and graph compilation for one goal —
/// the phases the engine caches per [`ArtifactKey`].
pub(crate) fn build_artifacts(
    point: &Arc<PreparedPoint>,
    config: &SynthesisConfig,
    goal: &Ty,
) -> QueryArtifacts {
    use insynth_succinct::TypeStore;

    let prepared = &point.prepared;
    let env = &point.env;
    let mut store = prepared.scratch();
    let goal_succ = store.sigma(goal);

    let explore_started = Instant::now();
    let space = explore(
        prepared,
        &mut store,
        goal_succ,
        &ExploreLimits {
            max_requests: config.max_explore_requests,
            time_limit: config.prover_time_limit,
        },
    );
    let explore_time = explore_started.elapsed();

    // Pattern generation and graph compilation are one phase for reporting:
    // the graph is what GenerateP now emits.
    let patterns_started = Instant::now();
    let patterns = generate_patterns(&mut store, &space);
    let graph = DerivationGraph::build(prepared, &mut store, &patterns, env, &config.weights, goal);
    let patterns_time = patterns_started.elapsed();

    let touched: BTreeSet<String> = space
        .processed_rets
        .iter()
        .map(|&sym| store.base_name(sym).to_owned())
        .collect();

    QueryArtifacts {
        graph,
        point: Arc::clone(point),
        explore_time,
        patterns_time,
        reachability_terms: space.terms.len(),
        requests_processed: space.requests_processed,
        patterns: patterns.len(),
        explore_truncated: space.truncated,
        time_truncated: space.time_truncated,
        touched_rets: touched.into_iter().collect::<Vec<_>>().into_boxed_slice(),
        suspended: Mutex::new(SuspendedWalks::default()),
    }
}

/// A lazily advancing stream of ranked completions for one query — the
/// iterator form of [`Session::query`], opened by
/// [`Session::query_stream`].
///
/// Each [`next`](Iterator::next) call yields the next-best [`RankedTerm`]
/// in the same byte-identical weight order `query` reports, popping the
/// frontier only as far as demanded. [`has_more`](TermStream::has_more)
/// says whether another call could yield — the pagination contract
/// (`values` + `has_more`) a completion front-end speaks.
///
/// Dropping the stream suspends its walk state back onto the engine-cached
/// artifact (folding the per-walk memos into the graph's shared caches), so
/// the next stream or query under the same reconstruction budgets *resumes*
/// where this one stopped instead of replaying its pops. Resumption never
/// changes results — only how much work the follow-up pays.
pub struct TermStream {
    artifacts: Arc<QueryArtifacts>,
    config: SynthesisConfig,
    limits: GenerateLimits,
    key: StreamKey,
    /// Environment-level statistics of the *querying* session's point
    /// (which may be a delta-extension of the graph's build point).
    session_decls: usize,
    session_distinct: usize,
    /// `Some` until `Drop` takes it for check-in.
    state: Option<WalkState>,
    /// Cursor into the walk's emission log: a resumed walk replays its
    /// already-emitted prefix from the log (no pops) before stepping anew.
    pos: usize,
    resumed: bool,
    steps_at_checkout: usize,
    leg_start: Instant,
}

impl TermStream {
    /// Opens a stream over resolved artifacts, resuming the suspended walk
    /// parked under this query's reconstruction budgets when one exists.
    fn open(
        artifacts: Arc<QueryArtifacts>,
        config: SynthesisConfig,
        session_decls: usize,
        session_distinct: usize,
        cancel: Option<CancelToken>,
    ) -> TermStream {
        let limits = GenerateLimits {
            max_steps: config.max_reconstruction_steps,
            time_limit: config.reconstruction_time_limit,
            max_depth: config.max_depth,
            cancel,
            ..GenerateLimits::default()
        };
        let key = StreamKey::of(&config);
        let (state, resumed) = match artifacts.checkout_walk(&key) {
            Some(state) => (state, true),
            None => {
                let astar = artifacts.graph.has_heuristic();
                (WalkState::new(&artifacts.graph, astar), false)
            }
        };
        let steps_at_checkout = state.steps();
        TermStream {
            artifacts,
            config,
            limits,
            key,
            session_decls,
            session_distinct,
            state: Some(state),
            pos: 0,
            resumed,
            steps_at_checkout,
            leg_start: Instant::now(),
        }
    }

    /// `true` when another [`next`](Iterator::next) call could yield a
    /// term: the emission log extends past the cursor, or the frontier is
    /// not exhausted (budget-stopped walks report `true` — raising the
    /// budget could surface more).
    pub fn has_more(&self) -> bool {
        match &self.state {
            Some(state) => self.pos < state.emitted().len() || !state.exhausted(),
            None => false,
        }
    }

    /// `true` when this stream resumed a suspended walk instead of starting
    /// from scratch. Observability only; results are identical either way.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Drains the stream up to `n` terms and packages the classic
    /// [`SynthesisResult`] — the body of [`Session::query`]. The reported
    /// explore/patterns timings and search statistics are those recorded
    /// when the graph was built, so cached and uncached queries report
    /// identically; reconstruction statistics are *cumulative* across the
    /// walk's legs, so a resumed query reports exactly what a from-scratch
    /// walk to the same `n` would (`reconstruction_new_steps` carries the
    /// delta this query actually paid).
    fn into_result(mut self, n: usize) -> SynthesisResult {
        let recon_started = Instant::now();
        let state = self
            .state
            .as_mut()
            .expect("stream state present until drop");
        while state.emitted().len() < n
            && state
                .step_streamed(
                    &self.artifacts.graph,
                    &self.artifacts.point.env,
                    &self.limits,
                    &self.leg_start,
                )
                .is_some()
        {}
        let recon_time = recon_started.elapsed();

        let state = self
            .state
            .as_ref()
            .expect("stream state present until drop");
        let emitted = state.emitted();
        let served = emitted.len().min(n);
        let snippets = emitted[..served]
            .iter()
            .map(|emission| snippet_of(&emission.term, &self.config))
            .collect();

        // Per-emission snapshots make the cumulative discipline exact: when
        // the n-th term exists, report the pops and truncation state *at its
        // emission*, exactly what a bounded walk to `n` recorded; when the
        // walk stopped short, report the stop itself.
        let (walk_steps, walk_truncated) = if n == 0 {
            (0, false)
        } else if let Some(nth) = emitted.get(n - 1) {
            (nth.steps, nth.truncated)
        } else {
            (
                state.steps(),
                state.truncated() || state.time_truncated() || state.cancelled(),
            )
        };

        SynthesisResult {
            snippets,
            timings: PhaseTimings {
                explore: self.artifacts.explore_time,
                patterns: self.artifacts.patterns_time,
                reconstruction: recon_time,
            },
            stats: SynthesisStats {
                initial_declarations: self.session_decls,
                distinct_succinct_types: self.session_distinct,
                reachability_terms: self.artifacts.reachability_terms,
                requests_processed: self.artifacts.requests_processed,
                patterns: self.artifacts.patterns,
                reconstruction_steps: walk_steps,
                reconstruction_pruned_enqueues: state.pruned_enqueues(),
                astar: state.astar(),
                truncated: self.artifacts.explore_truncated || walk_truncated,
                has_more: n < emitted.len() || !state.exhausted(),
                resumed: self.resumed,
                reconstruction_new_steps: state.steps() - self.steps_at_checkout,
            },
        }
        // Dropping `self` here parks the advanced walk for the next query.
    }
}

impl Iterator for TermStream {
    type Item = RankedTerm;

    fn next(&mut self) -> Option<RankedTerm> {
        let state = self.state.as_mut()?;
        if let Some(emission) = state.emitted().get(self.pos) {
            self.pos += 1;
            return Some(emission.term.clone());
        }
        let stepped = state
            .step_streamed(
                &self.artifacts.graph,
                &self.artifacts.point.env,
                &self.limits,
                &self.leg_start,
            )
            .cloned();
        if stepped.is_some() {
            self.pos += 1;
        }
        stepped
    }
}

impl Drop for TermStream {
    fn drop(&mut self) {
        if let Some(mut state) = self.state.take() {
            // Fold this walk's memo/expansion discoveries into the graph's
            // shared caches regardless of whether the state itself is kept.
            state.sync_caches_into(&self.artifacts.graph);
            // Cancelled walks are a property of the moment too: the frontier
            // is intact, but persisting one would let an aborted request
            // leak its partial trajectory into later queries' stats.
            if !state.time_truncated() && !state.cancelled() {
                self.artifacts.checkin_walk(self.key.clone(), state);
            }
        }
    }
}

impl fmt::Debug for TermStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TermStream")
            .field("pos", &self.pos)
            .field("resumed", &self.resumed)
            .field("has_more", &self.has_more())
            .finish()
    }
}

/// Packages one ranked term as a reported snippet, applying the configured
/// coercion erasure.
fn snippet_of(ranked: &RankedTerm, config: &SynthesisConfig) -> Snippet {
    let raw = ranked.term.clone();
    let erased = if config.erase_coercions {
        erase_coercions(&raw)
    } else {
        raw.clone()
    };
    Snippet {
        coercions: count_coercions(&raw),
        depth: raw.depth(),
        term: erased,
        raw_term: raw,
        weight: ranked.weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::DeclKind;

    // Compile-time proof of the concurrency contract: sessions (and the
    // engine) can be shared across threads behind an Arc.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
        assert_send_sync::<Query>();
        assert_send_sync::<EnvDelta>();
    };

    fn env_a() -> TypeEnv {
        vec![
            Declaration::new("name", Ty::base("String"), DeclKind::Local),
            Declaration::new(
                "mkFile",
                Ty::fun(vec![Ty::base("String")], Ty::base("File")),
                DeclKind::Imported,
            ),
        ]
        .into_iter()
        .collect()
    }

    fn env_b() -> TypeEnv {
        vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
        ]
        .into_iter()
        .collect()
    }

    fn render(result: &SynthesisResult) -> Vec<(String, crate::Weight)> {
        result
            .snippets
            .iter()
            .map(|s| (s.term.to_string(), s.weight))
            .collect()
    }

    #[test]
    fn identical_points_share_one_preparation_and_one_graph() {
        let engine = Engine::new(SynthesisConfig::default());
        let forward = env_a();
        let reversed: TypeEnv = forward.iter().rev().cloned().collect();

        let s1 = engine.prepare(&forward);
        let s2 = engine.prepare(&forward.clone());
        assert_eq!(
            engine.prepare_count(),
            1,
            "one σ run for the identical list"
        );
        assert!(Arc::ptr_eq(&s1.point, &s2.point));

        // A permutation fingerprints equal but is prepared privately.
        let s3 = engine.prepare(&reversed);
        assert_eq!(engine.prepare_count(), 2);
        assert_eq!(s1.fingerprint(), s3.fingerprint());
        assert_eq!(*s3.env(), reversed);

        let query = Query::new(Ty::base("File")).with_n(5);
        let r1 = s1.query(&query);
        let r2 = s2.query(&query);
        assert_eq!(engine.graph_build_count(), 1, "one graph for s1 and s2");
        let r3 = s3.query(&query);
        assert_eq!(engine.graph_build_count(), 2, "s3 builds its own graph");
        assert_eq!(render(&r1), render(&r2));
        assert_eq!(render(&r1), render(&r3));
    }

    #[test]
    fn prepare_answers_a_permutation_of_a_cached_point_in_its_own_order() {
        // `path` and `name` are equal-weight String locals, so the top
        // answer is whichever comes first in the declaration list. An engine
        // already holding the reversed list must not hand it out.
        let path = || Declaration::new("path", Ty::base("String"), DeclKind::Local);
        let name = || Declaration::new("name", Ty::base("String"), DeclKind::Local);
        let seeded: TypeEnv = vec![path(), name()].into_iter().collect();
        let env: TypeEnv = vec![name(), path()].into_iter().collect();

        let engine = Engine::new(SynthesisConfig::default());
        let query = Query::new(Ty::base("String")).with_n(2);
        let _ = engine.prepare(&seeded).query(&query);
        let session = engine.prepare(&env);
        let result = session.query(&query);
        let fresh = Engine::new(SynthesisConfig::default())
            .prepare(&env)
            .query(&query);
        assert_eq!(result.snippets[0].term.to_string(), "name");
        assert_eq!(render(&result), render(&fresh));
        assert_eq!(*session.env(), env);
    }

    #[test]
    fn permuted_sessions_without_a_shared_point_never_share_graphs() {
        // Regression: with the point cache disabled, two sessions for
        // permuted copies of one environment hold *different* declaration
        // orders. A cached graph's Head::Decl indices belong to its build
        // point's order, and equal-weight ties emit in declaration order —
        // so the artifact cache must refuse to serve one session's graph to
        // the other (sharing it once produced the ill-typed `mkFile(other)`
        // where `other : Gadget`).
        let config = SynthesisConfig {
            point_cache_capacity: 0,
            ..SynthesisConfig::default()
        };
        let engine = Engine::new(config);
        let mut env = env_a();
        env.push(Declaration::new(
            "other",
            Ty::base("Gadget"),
            DeclKind::Local,
        ));
        let reversed: TypeEnv = env.iter().rev().cloned().collect();

        let forward = engine.prepare(&env);
        let query = Query::new(Ty::base("File")).with_n(5);
        let from_forward = forward.query(&query);
        assert_eq!(from_forward.snippets[0].term.to_string(), "mkFile(name)");

        let backward = engine.prepare(&reversed);
        assert_eq!(engine.prepare_count(), 2, "the point cache is off");
        let from_backward = backward.query(&query);
        assert_eq!(
            engine.graph_build_count(),
            2,
            "no shared point, no shared graph: the second session builds privately"
        );
        assert_eq!(render(&from_backward), render(&from_forward));
        // The rendered term type-checks against either declaration order.
        assert!(env.admits(&from_backward.snippets[0].raw_term, &Ty::base("File")));
    }

    #[test]
    fn update_stays_fresh_identical_when_a_permuted_point_is_cached() {
        // Regression: the engine's point cache holds a *permuted* ordering
        // of the environment an update is about to produce. The update must
        // not adopt it — equal-weight ties (`name` and `path` below are both
        // weight-5 locals) emit in declaration order, and update's contract
        // is byte-identity with a fresh preparation of the edited list.
        let engine = Engine::new(SynthesisConfig::default());
        let name = || Declaration::new("name", Ty::base("String"), DeclKind::Local);
        let path = || Declaration::new("path", Ty::base("String"), DeclKind::Local);
        let permuted: TypeEnv = vec![path(), name()].into_iter().collect();
        let _seed = engine.prepare(&permuted);

        let session = engine.prepare(&vec![name()].into_iter().collect());
        let delta = EnvDelta::new().add(path());
        let updated = session.update(&delta);

        let query = Query::new(Ty::base("String")).with_n(2);
        let from_updated = updated.query(&query);
        let fresh = Engine::new(SynthesisConfig::default())
            .prepare(&delta.apply(session.env()))
            .query(&query);
        assert_eq!(render(&from_updated), render(&fresh));
        assert_eq!(from_updated.snippets[0].term.to_string(), "name");

        // The permuted point is untouched: preparing it again shares it, and
        // preparing the edited list answers in the edited list's order.
        let prepares = engine.prepare_count();
        let again = engine.prepare(&permuted);
        assert_eq!(engine.prepare_count(), prepares);
        assert_eq!(again.env().decls()[0].name, "path");
        let prepared = engine.prepare(&delta.apply(session.env()));
        assert_eq!(render(&prepared.query(&query)), render(&fresh));
    }

    #[test]
    fn point_cache_capacity_zero_disables_cross_point_reuse() {
        let config = SynthesisConfig {
            point_cache_capacity: 0,
            ..SynthesisConfig::default()
        };
        let engine = Engine::new(config);
        let _ = engine.prepare(&env_a());
        let _ = engine.prepare(&env_a());
        assert_eq!(engine.prepare_count(), 2);
        assert_eq!(engine.cached_point_count(), 0);
    }

    #[test]
    fn query_overrides_take_effect() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_b());
        // Depth 2 admits only `a` and `s(a)`.
        let bounded = session.query(&Query::new(Ty::base("A")).with_n(100).with_max_depth(2));
        let rendered: Vec<String> = bounded
            .snippets
            .iter()
            .map(|s| s.term.to_string())
            .collect();
        assert_eq!(rendered, vec!["a", "s(a)"]);
        // A tiny step cap truncates and is reported as such.
        let truncated = session.query(
            &Query::new(Ty::base("A"))
                .with_n(1_000)
                .with_max_reconstruction_steps(2),
        );
        assert!(truncated.stats.truncated);
    }

    #[test]
    fn poisoned_caches_do_not_brick_the_engine() {
        // One query thread panicking while it holds a cache lock must not
        // poison every subsequent query on the shared engine.
        let engine = Engine::new(SynthesisConfig::default());
        let session = Arc::new(engine.prepare(&env_a()));
        let before = session.query(&Query::new(Ty::base("File")).with_n(3));

        let poisoner = Arc::clone(&session);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _graphs = poisoner
                .cache
                .graphs
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let _points = poisoner
                .cache
                .points
                .write()
                .unwrap_or_else(|e| e.into_inner());
            panic!("query thread dies while holding the cache locks");
        }));
        assert!(result.is_err(), "the panic must actually happen");
        assert!(
            session.cache.graphs.read().is_err() && session.cache.points.read().is_err(),
            "the locks must be poisoned for this test to mean anything"
        );

        // The engine keeps answering — cache reads, writes and the counters
        // all recover the poisoned locks.
        let after = session.query(&Query::new(Ty::base("File")).with_n(3));
        assert_eq!(render(&before), render(&after));
        assert!(session.cached_graph_count() >= 1);
        let fresh = engine.prepare(&env_a());
        let fresh = fresh.query(&Query::new(Ty::base("String")).with_n(2));
        assert_eq!(fresh.snippets[0].term.to_string(), "name");
    }

    #[test]
    fn graph_cache_evicts_least_recently_used_within_capacity() {
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new("b", Ty::base("B"), DeclKind::Local),
            Declaration::new("c", Ty::base("C"), DeclKind::Local),
        ]
        .into_iter()
        .collect();
        let config = SynthesisConfig {
            graph_cache_capacity: 2,
            ..SynthesisConfig::default()
        };
        let session = Engine::new(config).prepare(&env);
        let query = |name: &str| {
            session.query(&Query::new(Ty::base(name)).with_n(1));
        };

        query("A"); // build 1, cache {A}
        query("B"); // build 2, cache {A, B}
        assert_eq!(session.graph_build_count(), 2);
        assert_eq!(session.cached_graph_count(), 2);

        query("A"); // hit, A becomes most recent
        assert_eq!(session.graph_build_count(), 2);

        query("C"); // build 3: capacity forces out B (least recent), not A
        assert_eq!(session.graph_build_count(), 3);
        assert_eq!(session.cached_graph_count(), 2);

        query("A"); // still cached
        query("C"); // still cached
        assert_eq!(session.graph_build_count(), 3);

        query("B"); // evicted above: rebuilt, and evicts the LRU entry (A)
        assert_eq!(session.graph_build_count(), 4);
        assert_eq!(session.cached_graph_count(), 2);
    }

    #[test]
    fn zero_capacity_disables_graph_caching() {
        let config = SynthesisConfig {
            graph_cache_capacity: 0,
            ..SynthesisConfig::default()
        };
        let session = Engine::new(config).prepare(&env_b());
        let first = session.query(&Query::new(Ty::base("A")).with_n(3));
        let second = session.query(&Query::new(Ty::base("A")).with_n(3));
        assert_eq!(render(&first), render(&second));
        assert_eq!(session.cached_graph_count(), 0);
        assert_eq!(session.graph_build_count(), 2);
    }

    #[test]
    fn update_with_empty_delta_shares_the_point() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_a());
        let updated = session.update(&EnvDelta::new());
        assert_eq!(session.fingerprint(), updated.fingerprint());
        assert_eq!(engine.prepare_count(), 1, "no σ for a no-op delta");
        assert!(Arc::ptr_eq(&session.point, &updated.point));
    }

    #[test]
    fn update_append_and_reweight_carry_unaffected_graphs() {
        let mut env = env_a();
        env.push(Declaration::new(
            "gadget",
            Ty::base("Gadget"),
            DeclKind::Local,
        ));
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env);
        // Warm the File graph on the original point.
        let before = session.query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(engine.graph_build_count(), 1);

        // Append another `Gadget` declaration (its succinct type is already
        // in Γ, so the initial environment keeps its identity) and reweight
        // the existing one: the File exploration never requests `Gadget`, so
        // the File graph carries over to the edited point.
        let delta = EnvDelta::new()
            .add(Declaration::new(
                "gadget2",
                Ty::base("Gadget"),
                DeclKind::Imported,
            ))
            .reweight("gadget", 2.0);
        let updated = session.update(&delta);
        assert_ne!(updated.fingerprint(), session.fingerprint());
        assert_eq!(updated.env().len(), 4);

        let after = updated.query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(render(&before), render(&after));
        assert_eq!(
            engine.graph_build_count(),
            1,
            "the File graph must be carried across the delta, not rebuilt"
        );
        // A goal the edit *does* touch rebuilds and sees the new state.
        let gadgets = updated.query(&Query::new(Ty::base("Gadget")).with_n(5));
        assert_eq!(engine.graph_build_count(), 2);
        assert_eq!(gadgets.snippets.len(), 2);
        // Fresh comparison: an independent engine on the edited environment
        // answers identically.
        let fresh_engine = Engine::new(SynthesisConfig::default());
        let fresh = fresh_engine.prepare(&delta.apply(session.env()));
        assert_eq!(
            render(&after),
            render(&fresh.query(&Query::new(Ty::base("File")).with_n(5)))
        );
        assert_eq!(
            render(&gadgets),
            render(&fresh.query(&Query::new(Ty::base("Gadget")).with_n(5)))
        );
    }

    #[test]
    fn update_reaching_delta_invalidates_affected_graphs() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_a());
        let before = session.query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(engine.graph_build_count(), 1);

        // `mkDir : String -> File` produces `File`, which the File
        // exploration requests — the cached graph must NOT carry over.
        let delta = EnvDelta::new().add(Declaration::new(
            "mkDir",
            Ty::fun(vec![Ty::base("String")], Ty::base("File")),
            DeclKind::Local,
        ));
        let updated = session.update(&delta);
        let after = updated.query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(engine.graph_build_count(), 2, "the File graph was rebuilt");
        assert!(after.snippets.len() > before.snippets.len());
        let fresh = Engine::new(SynthesisConfig::default())
            .prepare(&delta.apply(session.env()))
            .query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(render(&after), render(&fresh));
    }

    #[test]
    fn update_removing_a_type_introducing_declaration_prepares_fresh() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_a());
        let _ = session.query(&Query::new(Ty::base("File")).with_n(5));

        // `mkFile` first interned `File` and `{String} -> File`: dropping it
        // shifts the interning sequence, so the update prepares fresh.
        assert!(session.prepared().interned_new_type(1));
        let delta = EnvDelta::new().remove("mkFile");
        let updated = session.update(&delta);
        assert_eq!(updated.env().len(), 1);
        let stats = engine.stats();
        assert_eq!(stats.prepare_count, 2);
        assert_eq!(stats.incremental_prepare_count, 0);
        let result = updated.query(&Query::new(Ty::base("File")).with_n(5));
        assert!(result.snippets.is_empty(), "File is no longer inhabited");
        let fresh = Engine::new(SynthesisConfig::default()).prepare(&delta.apply(session.env()));
        assert!(updated.prepared().identical_to(fresh.prepared()));
        assert_eq!(
            render(&result),
            render(&fresh.query(&Query::new(Ty::base("File")).with_n(5)))
        );

        // The same holds when the declaration's σ class survives: `file`
        // interned `File` before `name` interned `String`, so a fresh store
        // without it numbers the two the other way round.
        let env: TypeEnv = vec![
            Declaration::new("file", Ty::base("File"), DeclKind::Local),
            Declaration::new("name", Ty::base("String"), DeclKind::Local),
            Declaration::new("file2", Ty::base("File"), DeclKind::Local),
        ]
        .into_iter()
        .collect();
        let session = engine.prepare(&env);
        let delta = EnvDelta::new().remove("file");
        let updated = session.update(&delta);
        assert_eq!(engine.stats().incremental_prepare_count, 0);
        let fresh = Engine::new(SynthesisConfig::default()).prepare(&delta.apply(&env));
        assert!(updated.prepared().identical_to(fresh.prepared()));
    }

    #[test]
    fn update_removing_an_inert_declaration_stays_incremental() {
        let mut env = env_a();
        env.push(Declaration::new(
            "path",
            Ty::base("String"),
            DeclKind::Local,
        ));
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env);
        let before = session.query(&Query::new(Ty::base("File")).with_n(5));
        assert_eq!(before.snippets.len(), 2);

        // `path` interned nothing `name` had not, and `name` keeps the
        // `String` member of Γ alive: the removal is inert.
        assert!(!session.prepared().interned_new_type(2));
        let delta = EnvDelta::new().remove("path").add(Declaration::new(
            "dir",
            Ty::base("String"),
            DeclKind::Class,
        ));
        let updated = session.update(&delta);
        let stats = engine.stats();
        assert_eq!(stats.prepare_count, 2);
        assert_eq!(stats.incremental_prepare_count, 1);

        let fresh = Engine::new(SynthesisConfig::default()).prepare(&delta.apply(session.env()));
        assert!(updated.prepared().identical_to(fresh.prepared()));
        let query = Query::new(Ty::base("File")).with_n(5);
        assert_eq!(render(&updated.query(&query)), render(&fresh.query(&query)));
    }

    #[test]
    fn update_removing_the_last_declaration_of_a_sigma_class_prepares_fresh() {
        let mut env = env_a();
        env.push(Declaration::new("file", Ty::base("File"), DeclKind::Local));
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env);

        // `mkFile` already interned the base type `File`, so `file` interned
        // nothing new — but it is the only declaration of σ class `File`,
        // so dropping it changes Γ's member set.
        assert!(!session.prepared().interned_new_type(2));
        let delta = EnvDelta::new().remove("file");
        let updated = session.update(&delta);
        let stats = engine.stats();
        assert_eq!(stats.prepare_count, 2);
        assert_eq!(stats.incremental_prepare_count, 0);

        let fresh = Engine::new(SynthesisConfig::default()).prepare(&delta.apply(session.env()));
        assert!(updated.prepared().identical_to(fresh.prepared()));
        let query = Query::new(Ty::base("File")).with_n(5);
        assert_eq!(render(&updated.query(&query)), render(&fresh.query(&query)));
    }

    #[test]
    fn update_registers_the_edited_point_in_the_engine_cache() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_a());
        let delta = EnvDelta::new().add(Declaration::new("extra", Ty::base("X"), DeclKind::Local));
        let updated = session.update(&delta);
        let prepares = engine.prepare_count();
        // Preparing the edited environment afresh hits the point cache.
        let again = engine.prepare(&delta.apply(session.env()));
        assert_eq!(engine.prepare_count(), prepares);
        assert_eq!(again.fingerprint(), updated.fingerprint());
    }

    #[test]
    fn pre_cancelled_query_stops_early_and_reports_truncated() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_b());
        let token = CancelToken::new();
        token.cancel();
        let result = session.query(
            &Query::new(Ty::base("A"))
                .with_n(50)
                .with_cancel_token(token),
        );
        // The walk observes the flag before its first pop: no terms, and the
        // stop is reported as truncation.
        assert!(result.snippets.is_empty());
        assert!(result.stats.truncated);
        assert_eq!(result.stats.reconstruction_new_steps, 0);

        // The cancelled walk state is not parked; an uncancelled query under
        // the same budgets starts clean and serves normally.
        assert_eq!(engine.suspended_walk_count(), 0);
        let clean = session.query(&Query::new(Ty::base("A")).with_n(3));
        assert_eq!(clean.snippets.len(), 3);
        assert!(!clean.stats.resumed, "no cancelled state to resume");
        assert!(!clean.stats.truncated);
    }

    #[test]
    fn mid_flight_cancellation_stops_the_stream_between_pops() {
        let engine = Engine::new(SynthesisConfig::default());
        let session = engine.prepare(&env_b());
        let token = CancelToken::new();
        let mut stream =
            session.query_stream(&Query::new(Ty::base("A")).with_cancel_token(token.clone()));
        // Pull a couple of terms, then fire the flag: the very next pop
        // boundary observes it and the stream ends.
        assert!(stream.next().is_some());
        assert!(stream.next().is_some());
        token.cancel();
        assert!(stream.next().is_none());
        assert!(
            stream.has_more(),
            "cancellation is not exhaustion — the frontier is intact"
        );
        drop(stream);
        assert_eq!(
            engine.suspended_walk_count(),
            0,
            "cancelled walks are never parked"
        );
    }

    #[test]
    fn engine_stats_snapshot_tracks_counters_and_cache_sizes() {
        let engine = Engine::new(SynthesisConfig::default());
        // A fresh engine reports nothing, whatever host it runs on.
        assert_eq!(engine.stats(), EngineStatsSnapshot::default());

        let session = engine.prepare(&env_b());
        let result = session.query(&Query::new(Ty::base("A")).with_n(2));
        assert!(result.stats.has_more);
        let stats = engine.stats();
        assert_eq!(stats.prepare_count, 1);
        assert!(stats.prepare_time_ns > 0);
        assert_eq!(stats.graph_build_count, 1);
        assert_eq!(stats.cached_point_count, 1);
        assert_eq!(stats.cached_graph_count, 1);
        assert_eq!(stats.suspended_walk_count, 1);
        assert_eq!(stats, engine.stats(), "snapshots are stable at rest");

        // A second point moves every field the way the individual getters do.
        engine
            .prepare(&env_a())
            .query(&Query::new(Ty::base("File")));
        let grown = engine.stats();
        assert_eq!(grown.prepare_count, 2);
        assert_eq!(grown.graph_build_count, 2);
        assert_eq!(grown.cached_point_count, 2);
        assert_eq!(grown.cached_graph_count, 2);
    }
}
