//! # InSynth — Complete Completion using Types and Weights
//!
//! A Rust reproduction of the InSynth system from *Complete Completion using
//! Types and Weights* (Gvero, Kuncak, Kuraj, Piskac; PLDI 2013).
//!
//! InSynth synthesizes ranked, type-correct expressions at a program point:
//! given the set of declarations visible at the cursor (a type environment Γ)
//! and a desired type τ, it enumerates lambda terms in long normal form with
//! Γ ⊢ e : τ, ranked by a weight function derived from lexical proximity and a
//! usage corpus.
//!
//! This facade crate re-exports the individual sub-crates:
//!
//! * [`intern`] — string interning and typed ids.
//! * [`lambda`] — the simply typed lambda calculus substrate (types, long
//!   normal form terms, type checking).
//! * [`succinct`] — succinct types, environments, patterns and the succinct
//!   calculus (paper §3).
//! * [`core`] — the synthesis engine: weights (§4), the Explore / GenerateP /
//!   GenerateT phases (§5), coercion-based subtyping (§6).
//! * [`apimodel`] — the program / API model substrate that stands in for the
//!   Scala presentation compiler: it produces declaration lists at program
//!   points and renders synthesized snippets in Scala-like syntax.
//! * [`corpus`] — usage-frequency corpus and the weight formula of Table 1.
//! * [`provers`] — baseline intuitionistic propositional provers (an
//!   inverse-method prover and a contraction-free sequent prover) used for the
//!   Table 2 comparison.
//! * [`benchsuite`] — the 50 evaluation benchmarks of Table 2 and the harness
//!   that reproduces the paper's measurements.
//! * [`server`] — the completion server front-end: a persistent
//!   JSON-over-stdio service (sessions, cancellation, admission control,
//!   metrics) over the engine. See [Running the
//!   server](#running-the-server).
//! * [`stats`] — shared measurement primitives: the 40-bucket log₂ latency
//!   histogram used by the server metrics and the trace-replay harness.
//!
//! # Quickstart
//!
//! The entry point is the session API, organized around **content-addressed
//! environments**. Every environment has a *fingerprint* — an
//! order-insensitive digest over its declaration multiset and effective
//! weights — and the `Engine` keys its caches on it, so the lifecycle of a
//! program point is: *prepare once per declaration list, query many times,
//! update by delta when the user edits*. Only the identical list shares a
//! cached preparation: equal-weight completions emit in declaration order,
//! so a permutation is prepared on its own and answers exactly as a fresh
//! engine would.
//!
//! ```
//! use insynth::core::{Declaration, DeclKind, Engine, EnvDelta, Query, SynthesisConfig, TypeEnv};
//! use insynth::lambda::Ty;
//!
//! // A tiny environment:  name: String,  mkFile: String -> File
//! let mut env = TypeEnv::new();
//! env.push(Declaration::simple("name", Ty::base("String"), DeclKind::Local));
//! env.push(Declaration::simple(
//!     "mkFile",
//!     Ty::fun(vec![Ty::base("String")], Ty::base("File")),
//!     DeclKind::Imported,
//! ));
//!
//! let engine = Engine::new(SynthesisConfig::default());
//! let session = engine.prepare(&env); // σ-lowering happens once, here
//!
//! // Query the prepared point as often as you like (from any number of
//! // threads: `Session` is `Send + Sync`, share it in an `Arc`).
//! let result = session.query(&Query::new(Ty::base("File")).with_n(5));
//! assert_eq!(result.snippets[0].term.to_string(), "mkFile(name)");
//! let strings = session.query(&Query::new(Ty::base("String")));
//! assert_eq!(strings.snippets[0].term.to_string(), "name");
//!
//! // The user edits: update by delta instead of re-preparing from scratch.
//! // σ runs only on the changed declarations, cached graphs the edit cannot
//! // affect are carried over, a graph the edit does affect is patched from
//! // the parent's when the edit adds no new succinct type, and results are
//! // byte-identical to a fresh prepare of the edited environment.
//! let edited = session.update(
//!     &EnvDelta::new()
//!         .add(Declaration::simple("path", Ty::base("String"), DeclKind::Local))
//!         .reweight("mkFile", 50.0),
//! );
//! let result = edited.query(&Query::new(Ty::base("File")).with_n(5));
//! assert_eq!(result.snippets[1].term.to_string(), "mkFile(path)");
//! ```
//!
//! # Streaming and pagination
//!
//! The paper's anytime guarantee — best-first enumeration yields the
//! weight-ranked best terms first, so the user can always ask for *k more* —
//! is first-class: `Session::query_stream` returns a `TermStream`, an
//! iterator that pops the A* frontier exactly as far as demanded, and
//! dropping the stream **suspends** its walk state on the engine-cached
//! graph. The next query or stream under the same reconstruction budgets
//! *resumes* that walk instead of replaying it, so growing `n = 10` into
//! `n = 20` pays for ten new emissions, not thirty. Results are
//! byte-identical either way — resumption changes cost, never answers.
//!
//! ```
//! use insynth::core::{Declaration, DeclKind, Engine, Query, SynthesisConfig, TypeEnv};
//! use insynth::lambda::Ty;
//!
//! // An infinite enumeration:  a : A,  s : A -> A  gives a, s(a), s(s(a)), …
//! let mut env = TypeEnv::new();
//! env.push(Declaration::simple("a", Ty::base("A"), DeclKind::Local));
//! env.push(Declaration::simple(
//!     "s",
//!     Ty::fun(vec![Ty::base("A")], Ty::base("A")),
//!     DeclKind::Local,
//! ));
//! let engine = Engine::new(SynthesisConfig::default());
//! let session = engine.prepare(&env);
//!
//! // Pull completions lazily, one ranked term at a time.
//! let mut stream = session.query_stream(&Query::new(Ty::base("A")));
//! let best = stream.next().unwrap();
//! assert_eq!(best.term.to_string(), "a");
//! assert!(stream.has_more()); // the `values` + `has_more` pagination contract
//! drop(stream); // suspends the walk on the cached graph
//!
//! // Plain `query` speaks the same contract: the second page resumes the
//! // suspended walk and pops only the delta.
//! let page1 = session.query(&Query::new(Ty::base("A")).with_n(3));
//! let page2 = session.query(&Query::new(Ty::base("A")).with_n(6));
//! assert!(page2.stats.resumed);
//! assert!(page2.stats.has_more);
//! assert_eq!(page2.snippets[0].term.to_string(), "a");
//! assert_eq!(page2.snippets.len(), 6);
//! ```
//!
//! `SynthesisStats` reports the pagination state: `has_more` says whether
//! enumeration past `n` could yield further terms, `resumed` whether this
//! query resumed a suspended walk, and `reconstruction_new_steps` the pops
//! this query actually paid (versus the cumulative `reconstruction_steps`,
//! which stays byte-compatible with a from-scratch walk).
//!
//! Derivation graphs (with their A* completion-cost heuristics) are memoized
//! on the **engine**, keyed `(environment fingerprint, goal, prover
//! budgets)`, so repeated queries — from any session sharing the prepared
//! point — skip straight to reconstruction, and builds
//! are single-flight under concurrency. Both caches are bounded
//! (`SynthesisConfig::graph_cache_capacity`, default 64 graphs, and
//! `SynthesisConfig::point_cache_capacity`, default 32 prepared points;
//! least-recently-used eviction), so long-lived engines stay bounded in
//! memory. Suspended walks follow the same discipline: each cached graph
//! parks at most four walk states (LRU, keyed by reconstruction budgets),
//! they ride along with `Session::update`'s delta carry-over exactly when
//! the edit provably cannot reach their graph, and they are dropped — never
//! stale-resumed — otherwise. After an edit that leaves the σ-level space
//! alone (adding, removing or reweighting declarations of succinct types
//! the environment already has), a graph-cache miss on the edited point
//! patches the nearest ancestor revision's graph for the same goal instead
//! of re-running exploration and pattern generation
//! (`DerivationGraph::patch`); a patched graph starts with no parked walks.
//!
//! # Scaling the environment axis
//!
//! σ-lowering and the derivation-graph build are single sequential passes
//! over the declarations and patterns, as in the paper (§3–5). Sharding σ
//! across threads lost to the sequential loop at every benchmark size on a
//! 2-vCPU host (13,982 declarations: 6.4–7.4 ms sequential against 9.7–9.9 ms
//! with two shards), and a threaded edge resolution in the graph build fell
//! within noise of the sequential one, so neither is kept.
//!
//! # Analyzing an environment
//!
//! The engine can statically audit a program point before (or instead of)
//! querying it. [`core::Engine::analyze`] runs a goal-independent
//! producibility fixpoint over the σ-lowered signatures — the forward dual
//! of the explore phase — and reports, deterministically and sorted by
//! severity:
//!
//! * **dead declarations** (warning): a parameter type is unproducible in
//!   any environment a completion walk can construct, so the declaration
//!   can appear in no completion for any goal;
//! * **duplicate declarations** (warning): identical `(name, type)` pairs
//!   that render identical snippets;
//! * **weight anomalies** (error): negative effective weights, which break
//!   weight monotonicity and disable the A* walk;
//! * **uninhabitable types** and **ambiguous overload groups** (info):
//!   base types no term can have, and σ-indistinguishable equal-weight
//!   declarations whose relative ranking is pure tie-break order.
//!
//! ```
//! use insynth::analysis::{DiagnosticKind, Severity};
//! use insynth::core::{Declaration, DeclKind, Engine, TypeEnv};
//! use insynth::lambda::Ty;
//!
//! let env: TypeEnv = [
//!     Declaration::simple("a", Ty::base("A"), DeclKind::Local),
//!     // `Missing` has no producer: `dead` can appear in no completion.
//!     Declaration::simple(
//!         "dead",
//!         Ty::fun(vec![Ty::base("Missing")], Ty::base("A")),
//!         DeclKind::Imported,
//!     ),
//! ]
//! .into_iter()
//! .collect();
//!
//! let engine = Engine::default();
//! let report = engine.analyze(&env);
//! assert_eq!(report.dead_decls, vec![1]);
//! assert_eq!(report.max_severity(), Some(Severity::Warning));
//! assert_eq!(report.count_of(DiagnosticKind::DeadDecl), 1);
//! // Analyzing the same point again reuses the report kept on it.
//! assert!(engine.analyze(&env).dead_decls == report.dead_decls);
//! assert_eq!(engine.analysis_count(), 1);
//! ```
//!
//! A report is computed once per prepared point and lives on it, so it is
//! dropped along with the point when the point cache evicts it.
//!
//! The same report is available off the library path:
//!
//! ```text
//! insynth-envlint --check                 # lint the shipped models, gate on warnings
//! insynth-envlint --json --model scaled   # the env/analyze wire shape
//! insynth-envlint --check --allowlist envlint.allow
//! ```
//!
//! and over the server as `env/analyze` on an open session:
//!
//! ```text
//! → {"id": 2, "method": "env/analyze", "params": {"session": 1}}
//! ← {"id":2,"result":{"decl_count":3,"member_types":…,"producible_types":…,
//!    "unproducible_types":["Missing"],"dead_decls":[2],"weights_monotone":true,
//!    "diagnostics":[{"severity":"warning","code":"dead-decl","subject":"dead",…}]}}
//! ```
//!
//! # Running the server
//!
//! Everything above is the library view. The `insynth-server` binary (crate
//! [`server`]) wraps the same engine in a persistent process an editor can
//! talk to: one JSON request object per line on stdin, one JSON response
//! per line on stdout, answered strictly in request order.
//!
//! ```text
//! cargo run --release -p insynth_server --bin insynth-server
//! ```
//!
//! One example line per request kind:
//!
//! ```text
//! → {"id": 1, "method": "env/open", "params": {"env": [{"name": "a", "ty": "A"}, {"name": "s", "ty": {"args": ["A"], "ret": "A"}, "kind": "imported"}]}}
//! ← {"id":1,"result":{"session":1,"fingerprint":"23db…085e","decls":2}}
//!
//! → {"id": 2, "method": "completion/complete", "params": {"session": 1, "goal": "A", "n": 3}}
//! ← {"id":2,"result":{"values":[{"term":"a","weight":5,"depth":1,"coercions":0},…],"total":3,"has_more":true,"cursor":3,"resumed":false,"truncated":false,"steps":6}}
//!
//! → {"id": 3, "method": "completion/complete", "params": {"session": 1, "goal": "A", "n": 2, "cursor": 3}}
//! ← {"id":3,"result":{"values":[{"term":"s(s(s(a)))",…],"cursor":5,"resumed":true,…}}
//!
//! → {"id": 4, "method": "env/update", "params": {"session": 1, "delta": {"add": [{"name": "b", "ty": "A"}], "reweight": [{"name": "s", "weight": 50}]}}}
//! ← {"id":4,"result":{"session":1,"fingerprint":"8fd1…ccb8","decls":3}}
//!
//! → {"id": 5, "method": "$/cancel", "params": {"id": 6}}
//! ← {"id":5,"result":{"cancelled":6,"in_flight":false}}
//!
//! → {"id": 7, "method": "server/stats", "params": {"counters_only": true}}
//! ← {"id":7,"result":{"sessions":1,"requests":{…},"completions":{…},"engine":{…}}}
//!
//! → {"id": 8, "method": "session/close", "params": {"session": 1}}
//! ← {"id":8,"result":{"closed":1}}
//! ```
//!
//! **Session lifecycle.** `env/open` declares a program point (types are
//! strings for base types, `{"args": […], "ret": …}` for arrows) and
//! returns a session id plus the environment's content-address fingerprint;
//! opening the identical declaration list again is a point-cache hit on the
//! engine underneath. `env/update` applies an `EnvDelta` to the session
//! in place — same id, new fingerprint, incremental re-preparation.
//! `completion/complete` pages through the ranked enumeration: pass the
//! returned `cursor` back to continue, and the continuation *resumes* the
//! suspended walk (`"resumed":true`) — zero extra graph builds, only the
//! new pops are paid. `session/close` drops the session (engine caches
//! survive for the next open of the same point).
//!
//! **Cancellation.** `$/cancel` names a request id. An in-flight request
//! observes the fired token at its next walk-step boundary and answers with
//! error `-32001`; its partially-walked state is discarded, never
//! persisted, and the loop keeps serving. Cancelling an id that has not
//! arrived yet is remembered and applied on arrival, so scripted
//! cancellation is deterministic. Per-request `max_steps` / `timeout_ms`
//! overrides and the page-size clamp are the admission-control counterpart:
//! they can only lower the engine's configured budgets, never raise them.
//!
//! **MCP note.** The `completion/complete` result (`values`, `total`,
//! `has_more`) deliberately mirrors the `completion/complete` shape of the
//! Model Context Protocol, so an MCP completion provider can proxy this
//! server nearly field-for-field; the `cursor` continuation and `$/cancel`
//! follow the same id-addressed, LSP-style conventions.
//!
//! # Replaying editor traces
//!
//! How does the engine behave under a realistic editing session — not one
//! query, but thousands of opens, keystrokes, pages and closes interleaved
//! across program points? The trace subsystem answers that reproducibly:
//!
//! * [`corpus::trace`] defines a versioned, line-oriented text format for
//!   editor traces — open/query/page/update/close events against numbered
//!   program points, ordered by abstract ticks, never wall clock — and a
//!   seeded generator ([`corpus::trace::generate_trace`]) with knobs for
//!   point count, Zipf skew of point popularity, the update/removal/page
//!   mix, and burst shape. Same seed and knobs, byte-identical trace, at
//!   any size from a hundred events to millions.
//! * [`bench::replay`] replays a trace against the engine on either path:
//!   [`bench::replay::replay_library`] drives `Engine`/`Session` calls
//!   directly on a configurable number of workers (events are sharded by
//!   point, so each point's order is preserved), and
//!   [`bench::replay::replay_server`] renders every event to the JSON
//!   protocol and feeds it through `Server::handle_line`. Both report
//!   throughput, p50/p90/p99 completion latency (the shared [`stats`]
//!   histogram), engine cache counters, and a result digest.
//!
//! The digest XOR-folds per-event FNV hashes of the returned term strings
//! and environment fingerprints — no weights, no timing — so it is
//! byte-identical across the library and server paths, across runs, and
//! across worker counts; the engine counters (prepares, graph builds) are
//! additionally exact at one worker, where LRU eviction order is
//! deterministic. `tests/trace_replay.rs` property-tests both contracts on
//! random knobs, and a `baseline --check` gate pins a seeded trace's
//! counters and digest in CI. The `insynth-trace` binary is the
//! command-line surface:
//!
//! ```text
//! insynth-trace generate --seed 42 --events 100000 --out edit.trace
//! insynth-trace inspect edit.trace
//! insynth-trace replay edit.trace --mode server --workers 4
//! insynth-trace replay --seed 7 --events 2000 --mode library --json --counters-only
//! ```

pub use insynth_analysis as analysis;
pub use insynth_apimodel as apimodel;
pub use insynth_bench as bench;
pub use insynth_benchsuite as benchsuite;
pub use insynth_core as core;
pub use insynth_corpus as corpus;
pub use insynth_intern as intern;
pub use insynth_lambda as lambda;
pub use insynth_provers as provers;
pub use insynth_server as server;
pub use insynth_stats as stats;
pub use insynth_succinct as succinct;
