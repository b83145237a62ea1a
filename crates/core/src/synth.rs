//! Synthesis configuration and results.
//!
//! The types here describe a query's configuration ([`SynthesisConfig`]) and
//! outcome ([`SynthesisResult`]: ranked [`Snippet`]s, [`PhaseTimings`],
//! [`SynthesisStats`] — the quantities reported in Table 2). The entry point
//! for running queries is the session API ([`Engine`](crate::Engine) → [`Session`](crate::Session)
//! → [`Query`](crate::Query)).

use std::time::Duration;

use insynth_lambda::Term;

use crate::weights::{Weight, WeightConfig};

/// Configuration of a synthesis query.
///
/// The defaults mirror the paper's interactive deployment (§7.5): weights with
/// corpus frequencies, a 0.5 s budget for the prover (exploration + pattern
/// generation) and a 7 s budget for reconstruction.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// The weight function variant (the three Table 2 column groups).
    pub weights: WeightConfig,
    /// Wall-clock budget for exploration + pattern generation.
    pub prover_time_limit: Option<Duration>,
    /// Wall-clock budget for term reconstruction.
    pub reconstruction_time_limit: Option<Duration>,
    /// Hard cap on exploration requests (safety net for pathological inputs).
    pub max_explore_requests: usize,
    /// Hard cap on reconstruction steps.
    pub max_reconstruction_steps: usize,
    /// Optional bound on the depth of synthesized terms.
    pub max_depth: Option<usize>,
    /// When `true`, coercion applications are erased from the reported
    /// snippets (the behaviour of the paper's tool); the raw term is still
    /// available on each [`Snippet`].
    pub erase_coercions: bool,
    /// Upper bound on the number of derivation graphs the [`Engine`](crate::Engine)'s
    /// cross-point artifact cache keeps (one per distinct environment
    /// fingerprint / goal / prover-budget combination queried, shared by
    /// every [`Session`](crate::Session) the engine prepared). When the
    /// bound is reached the least recently used graph is evicted, so a
    /// long-lived deployment answering many distinct goals stays bounded in
    /// memory. `0` disables graph caching entirely (every query rebuilds its
    /// graph).
    pub graph_cache_capacity: usize,
    /// Upper bound on the number of *prepared program points* the engine
    /// retains, keyed by environment fingerprint: preparing the identical
    /// declaration list again reuses the cached σ-lowering instead of
    /// re-running it (a permutation is prepared afresh, since equal-weight
    /// ties emit in declaration order). Evicted least-recently-used; `0`
    /// disables cross-point reuse (every [`Engine::prepare`](crate::Engine::prepare)
    /// runs σ, and graphs are only ever shared between sessions holding the
    /// identical declaration list).
    pub point_cache_capacity: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            weights: WeightConfig::default(),
            prover_time_limit: Some(Duration::from_millis(500)),
            reconstruction_time_limit: Some(Duration::from_secs(7)),
            max_explore_requests: 1_000_000,
            max_reconstruction_steps: 500_000,
            max_depth: None,
            erase_coercions: true,
            graph_cache_capacity: 64,
            point_cache_capacity: 32,
        }
    }
}

impl SynthesisConfig {
    /// A configuration with no time limits and no depth bound — useful for
    /// exhaustive comparisons against the reference RCN function in tests.
    pub fn unbounded() -> Self {
        SynthesisConfig {
            prover_time_limit: None,
            reconstruction_time_limit: None,
            ..SynthesisConfig::default()
        }
    }

    /// Replaces the weight configuration.
    pub fn with_weights(mut self, weights: WeightConfig) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the depth bound.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }
}

/// One synthesized suggestion.
#[derive(Debug, Clone)]
pub struct Snippet {
    /// The term with coercions erased (what the user sees).
    pub term: Term,
    /// The raw term as reconstructed, including any coercion applications.
    pub raw_term: Term,
    /// Total weight of the raw term (the ranking key; lower is better).
    pub weight: Weight,
    /// Depth of the raw term.
    pub depth: usize,
    /// Number of coercion applications that were erased.
    pub coercions: usize,
}

/// Wall-clock breakdown of one query (the Prove / Recon columns of Table 2).
/// A query that reuses a cached derivation graph spends no exploration or
/// pattern-generation time and reports zero for both.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Exploration phase duration.
    pub explore: Duration,
    /// Pattern generation phase duration (with the graph build, or the
    /// graph patch that replaced both phases).
    pub patterns: Duration,
    /// Term reconstruction phase duration.
    pub reconstruction: Duration,
}

impl PhaseTimings {
    /// Exploration + pattern generation (the paper's "prover" time).
    pub fn prove(&self) -> Duration {
        self.explore + self.patterns
    }

    /// Total synthesis time.
    pub fn total(&self) -> Duration {
        self.prove() + self.reconstruction
    }
}

/// Search statistics of one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisStats {
    /// Number of declarations in the initial environment (Table 2 `#Initial`).
    pub initial_declarations: usize,
    /// Number of distinct succinct types among those declarations (the §3.2
    /// compression statistic).
    pub distinct_succinct_types: usize,
    /// Reachability terms discovered by exploration.
    pub reachability_terms: usize,
    /// Requests processed by exploration.
    pub requests_processed: usize,
    /// Patterns derived.
    pub patterns: usize,
    /// Reconstruction steps (priority-queue pops).
    pub reconstruction_steps: usize,
    /// Successor expressions the reconstruction walk discarded before
    /// enqueueing because their completion bound already exceeded the n-th
    /// best candidate (heuristic-assisted when `astar` is set).
    pub reconstruction_pruned_enqueues: usize,
    /// `true` when reconstruction ran as the heuristic-guided A* walk;
    /// `false` when it fell back to plain best-first order (negative weight
    /// overrides).
    pub astar: bool,
    /// `true` if any phase hit a budget.
    pub truncated: bool,
    /// `true` when the enumeration has more results past the `n` returned —
    /// the walk's frontier is not exhausted (or earlier legs already emitted
    /// terms beyond `n`). The pagination contract: ask again with a larger
    /// `n` (or keep pulling the [`TermStream`](crate::TermStream)) to get
    /// them; `false` means the returned snippets are the complete
    /// enumeration.
    pub has_more: bool,
    /// `true` when this query resumed a suspended walk instead of starting
    /// one from scratch. Purely observability — results are byte-identical
    /// either way.
    pub resumed: bool,
    /// Reconstruction steps performed *by this query* (the delta): equals
    /// `reconstruction_steps` on a from-scratch walk, and only the
    /// additional pops past the suspension point on a resumed one.
    pub reconstruction_new_steps: usize,
}

/// The result of one synthesis query.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Ranked snippets, best (lowest weight) first.
    pub snippets: Vec<Snippet>,
    /// Wall-clock breakdown.
    pub timings: PhaseTimings,
    /// Search statistics.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// The 1-based rank of the first snippet whose rendered form equals
    /// `expected` (after coercion erasure), if present.
    pub fn rank_of(&self, expected: &str) -> Option<usize> {
        self.snippets
            .iter()
            .position(|s| s.term.to_string() == expected)
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration, TypeEnv};
    use crate::rcn::{is_inhabited_ref, rcn};
    use crate::session::{Engine, Query};
    use crate::weights::WeightMode;
    use crate::SubtypeLattice;
    use insynth_lambda::{check, Ty};
    use std::collections::HashSet;

    fn engine() -> Engine {
        Engine::new(SynthesisConfig::default())
    }

    fn io_env() -> TypeEnv {
        vec![
            Declaration::new("name", Ty::base("String"), DeclKind::Local),
            Declaration::new(
                "FileInputStream",
                Ty::fun(vec![Ty::base("String")], Ty::base("FileInputStream")),
                DeclKind::Imported,
            )
            .with_frequency(500),
            Declaration::new(
                "BufferedInputStream",
                Ty::fun(
                    vec![Ty::base("FileInputStream")],
                    Ty::base("BufferedInputStream"),
                ),
                DeclKind::Imported,
            )
            .with_frequency(200),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn end_to_end_io_example() {
        let session = engine().prepare(&io_env());
        let result = session.query(&Query::new(Ty::base("BufferedInputStream")).with_n(5));
        assert_eq!(
            result.rank_of("BufferedInputStream(FileInputStream(name))"),
            Some(1)
        );
        assert_eq!(result.stats.initial_declarations, 3);
        assert!(result.stats.patterns >= 3);
        assert!(!result.stats.truncated);
    }

    #[test]
    fn one_session_serves_many_queries() {
        // The motivating use case: the same prepared point answers queries
        // for several goal types without re-running σ.
        let session = engine().prepare(&io_env());
        let buffered = session.query(&Query::new(Ty::base("BufferedInputStream")).with_n(5));
        let file = session.query(&Query::new(Ty::base("FileInputStream")).with_n(5));
        let string = session.query(&Query::new(Ty::base("String")).with_n(5));
        assert_eq!(
            buffered.rank_of("BufferedInputStream(FileInputStream(name))"),
            Some(1)
        );
        assert_eq!(file.rank_of("FileInputStream(name)"), Some(1));
        assert_eq!(string.rank_of("name"), Some(1));
    }

    #[test]
    fn snippets_are_sorted_by_weight() {
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Imported,
            ),
        ]
        .into_iter()
        .collect();
        let result = engine()
            .prepare(&env)
            .query(&Query::new(Ty::base("A")).with_n(6));
        assert!(result
            .snippets
            .windows(2)
            .all(|w| w[0].weight <= w[1].weight));
    }

    #[test]
    fn all_snippets_type_check_at_the_goal() {
        let env = io_env();
        let goal = Ty::base("BufferedInputStream");
        let result = engine()
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(10));
        let bindings = env.to_bindings();
        for s in &result.snippets {
            check(&bindings, &s.raw_term, &goal).expect("snippet must type check");
        }
    }

    #[test]
    fn engine_matches_reference_rcn_up_to_depth() {
        // Completeness cross-check (Theorem 3.3) on a small environment.
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new("b", Ty::base("B"), DeclKind::Local),
        ]
        .into_iter()
        .collect();
        let goal = Ty::base("A");
        let depth = 3;

        let reference: HashSet<Term> = rcn(&env, &goal, depth)
            .iter()
            .map(Term::alpha_normalize)
            .collect();

        let config = SynthesisConfig::unbounded().with_max_depth(depth);
        let result = Engine::new(config)
            .prepare(&env)
            .query(&Query::new(goal.clone()).with_n(10_000));
        let synthesized: HashSet<Term> = result
            .snippets
            .iter()
            .map(|s| s.raw_term.alpha_normalize())
            .collect();

        assert_eq!(synthesized, reference);
    }

    #[test]
    fn inhabitation_prover_agrees_with_reference_oracle() {
        let cases = vec![
            (io_env(), Ty::base("BufferedInputStream"), true),
            (io_env(), Ty::base("Unknown"), false),
            (
                vec![Declaration::new(
                    "f",
                    Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                    DeclKind::Local,
                )]
                .into_iter()
                .collect::<TypeEnv>(),
                Ty::base("A"),
                false,
            ),
            (
                TypeEnv::new(),
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                true,
            ),
        ];
        for (env, goal, expected) in cases {
            let session = engine().prepare(&env);
            assert_eq!(session.is_inhabited(&goal), expected, "goal {goal}");
            assert_eq!(
                is_inhabited_ref(&env, &goal),
                expected,
                "reference, goal {goal}"
            );
        }
    }

    #[test]
    fn subtyping_through_coercions_is_erased_in_output() {
        // §2.3: Drawing layout. getLayout : Container -> LayoutManager and
        // panel : Panel with Panel <: Container.
        let mut lattice = SubtypeLattice::new();
        lattice.add("Panel", "Container");
        let mut env: TypeEnv = vec![
            Declaration::new("panel", Ty::base("Panel"), DeclKind::Local),
            Declaration::new(
                "getLayout",
                Ty::fun(vec![Ty::base("Container")], Ty::base("LayoutManager")),
                DeclKind::Imported,
            ),
        ]
        .into_iter()
        .collect();
        env.extend(lattice.coercion_declarations());

        let result = engine()
            .prepare(&env)
            .query(&Query::new(Ty::base("LayoutManager")).with_n(5));
        let top = &result.snippets[0];
        assert_eq!(top.term.to_string(), "getLayout(panel)");
        assert_eq!(top.coercions, 1);
        assert!(top.raw_term.to_string().contains("coerce$Panel$Container"));
    }

    #[test]
    fn no_weights_mode_still_finds_solutions() {
        let config =
            SynthesisConfig::default().with_weights(WeightConfig::new(WeightMode::NoWeights));
        let result = Engine::new(config)
            .prepare(&io_env())
            .query(&Query::new(Ty::base("BufferedInputStream")));
        assert!(result
            .rank_of("BufferedInputStream(FileInputStream(name))")
            .is_some());
    }

    #[test]
    fn zero_n_returns_no_snippets_quickly() {
        let result = engine()
            .prepare(&io_env())
            .query(&Query::new(Ty::base("BufferedInputStream")).with_n(0));
        assert!(result.snippets.is_empty());
    }

    #[test]
    fn stats_report_succinct_compression() {
        // Two declarations with types that collapse to one succinct type.
        let env: TypeEnv = vec![
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C")),
                DeclKind::Local,
            ),
            Declaration::new(
                "g",
                Ty::fun(vec![Ty::base("B"), Ty::base("A")], Ty::base("C")),
                DeclKind::Local,
            ),
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new("b", Ty::base("B"), DeclKind::Local),
        ]
        .into_iter()
        .collect();
        let result = engine()
            .prepare(&env)
            .query(&Query::new(Ty::base("C")).with_n(5));
        assert_eq!(result.stats.initial_declarations, 4);
        assert_eq!(result.stats.distinct_succinct_types, 3);
        // Both f(a, b) and g(b, a) are found.
        assert!(result.rank_of("f(a, b)").is_some());
        assert!(result.rank_of("g(b, a)").is_some());
    }

    #[test]
    fn default_config_does_not_depend_on_the_host() {
        let render = |c: SynthesisConfig| format!("{c:?}");
        assert_eq!(
            render(SynthesisConfig::default()),
            render(SynthesisConfig::default())
        );
    }
}
