//! The InSynth synthesis engine (paper sections 4-6).
//!
//! Given a type environment Γo (every declaration visible at a program point)
//! and a desired type τ, the engine synthesizes the `N` best-ranked
//! expressions of type τ in long normal form:
//!
//! 1. **Prepare** (σ): declarations are lowered into succinct types and the
//!    `Select` / weight indices are built ([`PreparedEnv`]). Runs once per
//!    program point.
//! 2. **Explore** (Figure 7): backward type reachability from the goal,
//!    weight-ordered ([`explore`]).
//! 3. **GenerateP** (Figure 9): succinct patterns are derived from the
//!    explored space ([`generate_patterns`]) using the backward-map
//!    optimization of section 5.7, and indexed by `(environment, return
//!    type)` goal through a
//!    [`PatternIndex`](insynth_succinct::PatternIndex).
//! 4. **Graph** : the indexed patterns are compiled into a [`DerivationGraph`]
//!    — goals become nodes, and every `Select`-resolved declaration that
//!    realizes a pattern becomes a weighted edge carrying its pre-lowered
//!    argument types. The graph is self-contained and cached on the
//!    [`Session`], so repeated queries for the same goal skip phases 2–5
//!    entirely.
//! 5. **Heuristic** : a backward Dijkstra over the graph computes, per goal
//!    node, an admissible lower bound on the cheapest complete term rooted
//!    there (∞ for uncompletable goals), stored with the graph and hence
//!    computed once per cached graph.
//! 6. **GenerateT** (Figure 10): reconstruction of concrete lambda terms as
//!    an A* walk over the graph ([`generate_terms`]), ordered by accumulated
//!    weight plus the completion bounds of the open holes: no interning or
//!    `Select` lookups in the search loop, and dead (∞-bound) holes pruned
//!    at creation. It is the walk a [`Session`] query streams, taken to the
//!    `n`-th emission. When negative weight overrides break monotonicity the
//!    walk falls back to plain best-first order
//!    ([`generate_terms_best_first`]).
//!    [`generate_terms_unindexed`] is the pre-graph reference walk over the
//!    flat [`PatternSet`]; all walks return byte-identical ranked terms, and
//!    the unindexed one serves as the equivalence oracle and ablation
//!    baseline.
//!
//! The public entry point is the session API, built around **content-addressed
//! environments**: every [`TypeEnv`] has an [`EnvFingerprint`] (an
//! order-insensitive digest over its declaration multiset and effective
//! weights), and the [`Engine`] keys its caches on it. [`Engine::prepare`]
//! runs phase 1 at most once per cached declaration list — preparing the
//! identical list again shares the preparation, while a permutation is
//! prepared on its own, because equal-weight completions emit in declaration
//! order — and returns a `Send + Sync` [`Session`]; [`Session::query`] runs
//! phases 2-6 for each [`Query`] without touching shared state, memoizing
//! the derivation graphs on the engine per `(fingerprint, goal, prover
//! budgets)` so sessions over one point share graphs too.
//! [`Session::update`] applies an [`EnvDelta`] (add / remove / reweight
//! declarations) and re-prepares incrementally, re-running σ only on the
//! appended declarations — removals of declarations whose types the rest of
//! the environment already interns included — byte-identical to a fresh
//! preparation of the edited environment. When
//! the edit leaves the σ-level space alone (it adds, removes or reweights
//! declarations of succinct types Γ already has), the edited point *patches*
//! its parent's graphs on a cache miss ([`DerivationGraph::patch`]):
//! exploration and pattern generation work on succinct types only, so they
//! would replay identically, and only the `Select` edges change. An
//! edited [`TypeEnv`] shares every untouched declaration with the one it
//! came from, so the edit costs what the delta costs. [`rcn`] is the
//! unoptimized reference implementation of Figure 4 used as a test oracle;
//! the [`SubtypeLattice`] turns subtype edges into coercion declarations
//! (section 6).
//!
//! # Example
//!
//! ```
//! use insynth_core::{Declaration, DeclKind, Engine, Query, SynthesisConfig, TypeEnv};
//! use insynth_lambda::Ty;
//!
//! let env: TypeEnv = vec![
//!     Declaration::simple("body", Ty::base("String"), DeclKind::Local),
//!     Declaration::simple(
//!         "StringReader",
//!         Ty::fun(vec![Ty::base("String")], Ty::base("StringReader")),
//!         DeclKind::Imported,
//!     ),
//! ]
//! .into_iter()
//! .collect();
//!
//! let engine = Engine::new(SynthesisConfig::default());
//! let session = engine.prepare(&env); // prepare once …
//! let result = session.query(&Query::new(Ty::base("StringReader")).with_n(3));
//! assert_eq!(result.snippets[0].term.to_string(), "StringReader(body)");
//! let again = session.query(&Query::new(Ty::base("String"))); // … query many
//! assert_eq!(again.snippets[0].term.to_string(), "body");
//! ```

mod coerce;
mod decl;
mod explore;
mod genp;
mod gent;
mod graph;
mod pexpr;
mod prepare;
mod rcn;
mod session;
mod synth;
mod weights;

pub use coerce::{
    coercion_name, count_coercions, erase_coercions, is_coercion, SubtypeLattice, COERCION_PREFIX,
};
pub use decl::{DeclIter, DeclKind, Declaration, TypeEnv};
pub use explore::{explore, ExploreLimits, SearchSpace};
pub use genp::{generate_patterns, generate_patterns_naive, PatternSet};
pub use gent::{
    generate_terms_unindexed, CancelToken, GenerateLimits, GenerateOutcome, RankedTerm,
};
pub use graph::{
    generate_terms, generate_terms_best_first, DerivationGraph, HoleTyId, DECL_REMOVED,
};
pub use insynth_analysis::{
    Allowlist, AnalysisReport, DeclFacts, Diagnostic, DiagnosticKind, Severity,
};
pub use insynth_succinct::EnvFingerprint;
pub use prepare::PreparedEnv;
pub use rcn::{is_inhabited_ref, rcn};
pub use session::{Engine, EngineStatsSnapshot, EnvDelta, Query, Session, TermStream};
pub use synth::{PhaseTimings, Snippet, SynthesisConfig, SynthesisResult, SynthesisStats};
pub use weights::{Weight, WeightConfig, WeightMode, WeightTable};
