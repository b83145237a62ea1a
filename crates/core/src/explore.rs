//! The exploration phase (Figure 7): backward type reachability.
//!
//! Starting from the request `σ(τo) ;Γ ?`, the phase repeatedly applies the
//! STRIP / MATCH / PROP rules, discovering the portion of the search space
//! reachable from the desired type and the initial environment. Requests are
//! processed in order of the weight of the requested type (§5.6), so that the
//! parts of the space the ranking will prefer are discovered first when a time
//! or request budget cuts exploration short.
//!
//! MATCH is answered from a `ret → members` index rather than by scanning Γ
//! for every request. The index is private to one [`explore`] call and built
//! lazily, once per distinct environment the call touches: the prepared
//! `init_env` plus the few Γ∪S extensions STRIP creates. Indexing an
//! environment costs one pass over it — what a single MATCH scan used to
//! cost — after which each request pays only for its own matches, so
//! exploration tracks the reachable part of the space rather than |Γ| (§5).
//! Every bucket keeps the environment's ascending id order, so the emitted
//! terms are exactly those of [`insynth_succinct::match_rule`], which stays
//! the rule-by-rule reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use insynth_intern::{IdHashMap, IdHashSet, Symbol};
use insynth_succinct::{
    match_term, strip_rule, BaseRequest, EnvId, ReachabilityTerm, Request, ScratchStore,
    SuccinctTyId, TypeStore,
};

use crate::prepare::PreparedEnv;
use crate::weights::Weight;

/// Budgets bounding the exploration phase.
#[derive(Debug, Clone)]
pub struct ExploreLimits {
    /// Maximum number of (stripped) requests to process.
    pub max_requests: usize,
    /// Wall-clock limit for the phase, if any (the paper's "prover" limit).
    pub time_limit: Option<Duration>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_requests: 1_000_000,
            time_limit: None,
        }
    }
}

/// The search space discovered by exploration: every reachability term found,
/// plus bookkeeping statistics.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// All reachability terms derived by the MATCH rule.
    pub terms: Vec<ReachabilityTerm>,
    /// Number of distinct (stripped) requests processed.
    pub requests_processed: usize,
    /// `true` if exploration stopped because a budget ran out rather than
    /// because the space was exhausted.
    pub truncated: bool,
    /// `true` if the budget that fired was the wall-clock limit. Unlike the
    /// deterministic `max_requests` cap, a wall-clock truncation is a
    /// property of the moment, not of the input — results derived from such
    /// a space must not be cached (see the session's graph cache).
    pub time_truncated: bool,
    /// The *distinct* return-type symbols of the processed (stripped)
    /// requests, in first-processed order. A declaration participates in
    /// this exploration — as a match, a weight in the queue ordering, or a
    /// `Select` edge downstream — only if its σ return symbol appears here;
    /// the session's edit-time delta path uses that to decide which cached
    /// artifacts an environment change can possibly affect. Bounded by the
    /// number of distinct base types, not by the request count.
    pub processed_rets: Vec<Symbol>,
}

/// Runs the exploration phase for the goal type `goal` (already in succinct
/// form) against the prepared environment.
///
/// The prepared environment is read-only; request normalization interns the
/// extended environments it discovers into the query-local `store` overlay.
///
/// # Example
///
/// ```
/// use insynth_core::{explore, Declaration, DeclKind, ExploreLimits, PreparedEnv, TypeEnv, WeightConfig};
/// use insynth_lambda::Ty;
/// use insynth_succinct::TypeStore;
///
/// let mut env = TypeEnv::new();
/// env.push(Declaration::simple("a", Ty::base("Int"), DeclKind::Local));
/// env.push(Declaration::simple(
///     "f",
///     Ty::fun(vec![Ty::base("Int")], Ty::base("String")),
///     DeclKind::Imported,
/// ));
/// let prepared = PreparedEnv::prepare(&env, &WeightConfig::default());
/// let mut store = prepared.scratch();
/// let goal = store.sigma(&Ty::base("String"));
/// let space = explore(&prepared, &mut store, goal, &ExploreLimits::default());
/// assert_eq!(space.terms.len(), 2); // one for String via f, one for Int via a
/// ```
pub fn explore(
    prepared: &PreparedEnv,
    store: &mut ScratchStore<'_>,
    goal: SuccinctTyId,
    limits: &ExploreLimits,
) -> SearchSpace {
    let start = Instant::now();
    let mut queue: BinaryHeap<QueueEntry> = BinaryHeap::new();
    let mut seq = 0u64;

    let initial = Request {
        ty: goal,
        env: prepared.init_env,
    };
    queue.push(QueueEntry {
        weight: Reverse(prepared.type_weight(goal)),
        seq: Reverse(seq),
        request: initial,
    });

    let mut visited: IdHashSet<BaseRequest> = IdHashSet::default();
    let mut index = MatchIndex::default();
    let mut seen_rets: IdHashSet<Symbol> = IdHashSet::default();
    let mut space = SearchSpace {
        terms: Vec::new(),
        requests_processed: 0,
        truncated: false,
        time_truncated: false,
        processed_rets: Vec::new(),
    };

    while let Some(entry) = queue.pop() {
        if space.requests_processed >= limits.max_requests {
            space.truncated = true;
            break;
        }
        if let Some(limit) = limits.time_limit {
            if start.elapsed() > limit {
                space.truncated = true;
                space.time_truncated = true;
                break;
            }
        }

        let stripped = strip_rule(store, entry.request);
        if !visited.insert(stripped) {
            continue;
        }
        space.requests_processed += 1;
        if seen_rets.insert(stripped.ret) {
            space.processed_rets.push(stripped.ret);
        }

        let found = index.match_terms(store, stripped);
        for term in &found {
            for &arg in &term.remaining {
                // PROP: issue a request for every argument type; STRIP at pop
                // time will extend the environment for functional arguments.
                let request = Request {
                    ty: arg,
                    env: term.env,
                };
                let peek = strip_rule(store, request);
                if !visited.contains(&peek) {
                    seq += 1;
                    queue.push(QueueEntry {
                        weight: Reverse(prepared.type_weight(arg)),
                        seq: Reverse(seq),
                        request,
                    });
                }
            }
        }
        space.terms.extend(found);
    }

    space
}

/// The MATCH rule over a lazily built per-environment `ret → members` index.
#[derive(Debug, Default)]
struct MatchIndex {
    by_env: IdHashMap<EnvId, IdHashMap<Symbol, Vec<SuccinctTyId>>>,
}

impl MatchIndex {
    /// MATCH for `request`: the same terms, in the same order, as
    /// [`insynth_succinct::match_rule`]. The first lookup in an environment
    /// buckets all of its members in one pass; buckets keep ascending id
    /// order.
    fn match_terms<S: TypeStore>(
        &mut self,
        store: &S,
        request: BaseRequest,
    ) -> Vec<ReachabilityTerm> {
        let buckets = self.by_env.entry(request.env).or_insert_with(|| {
            let mut buckets: IdHashMap<Symbol, Vec<SuccinctTyId>> = IdHashMap::default();
            for &member in store.env_types(request.env) {
                buckets
                    .entry(store.ret_of(member))
                    .or_default()
                    .push(member);
            }
            buckets
        });
        buckets.get(&request.ret).map_or(Vec::new(), |members| {
            members
                .iter()
                .map(|&member| match_term(store, request, member))
                .collect()
        })
    }
}

/// Priority-queue entry: lighter requests first, FIFO among equals.
#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    weight: Reverse<Weight>,
    seq: Reverse<u64>,
    request: Request,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.weight, self.seq, self.request).cmp(&(other.weight, other.seq, other.request))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration, TypeEnv};
    use crate::weights::WeightConfig;
    use insynth_lambda::Ty;
    use insynth_succinct::{match_rule, prop_rule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn prepared(decls: Vec<Declaration>) -> PreparedEnv {
        let env: TypeEnv = decls.into_iter().collect();
        PreparedEnv::prepare(&env, &WeightConfig::default())
    }

    #[test]
    fn paper_example_space_is_discovered() {
        // Γo = {a : Int, f : Int -> Int -> Int -> String}, goal String.
        let p = prepared(vec![
            Declaration::new("a", Ty::base("Int"), DeclKind::Local),
            Declaration::new(
                "f",
                Ty::fun(
                    vec![Ty::base("Int"), Ty::base("Int"), Ty::base("Int")],
                    Ty::base("String"),
                ),
                DeclKind::Imported,
            ),
        ]);
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::base("String"));
        let space = explore(&p, &mut store, goal, &ExploreLimits::default());
        // Terms: String via {Int}->String, and Int via the nullary Int decl.
        assert_eq!(space.terms.len(), 2);
        assert!(!space.truncated);
        assert_eq!(space.requests_processed, 2);
    }

    #[test]
    fn unreachable_parts_of_the_environment_are_not_visited() {
        let p = prepared(vec![
            Declaration::new("a", Ty::base("Int"), DeclKind::Local),
            Declaration::new(
                "g",
                Ty::fun(vec![Ty::base("Unrelated")], Ty::base("Other")),
                DeclKind::Imported,
            ),
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("Int")], Ty::base("String")),
                DeclKind::Imported,
            ),
        ]);
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::base("String"));
        let space = explore(&p, &mut store, goal, &ExploreLimits::default());
        // Only the String and Int requests are reachable; `g` never matches.
        assert_eq!(space.requests_processed, 2);
        assert!(space
            .terms
            .iter()
            .all(|t| store.base_name(t.ret) != "Other"));
    }

    #[test]
    fn functional_goal_extends_the_environment() {
        // goal: Tree -> Boolean with p : Tree -> Boolean in scope: the stripped
        // request must look for Boolean in Γ ∪ {Tree}.
        let p = prepared(vec![Declaration::new(
            "p",
            Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")),
            DeclKind::Local,
        )]);
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")));
        let space = explore(&p, &mut store, goal, &ExploreLimits::default());
        // Boolean via p (needs Tree), then Tree via the argument binder type.
        assert_eq!(space.terms.len(), 2);
        let tree_term = space
            .terms
            .iter()
            .find(|t| store.base_name(t.ret) == "Tree")
            .expect("Tree must be matched against the extended environment");
        assert!(tree_term.is_leaf());
    }

    #[test]
    fn recursive_environments_terminate() {
        // f : A -> A creates a cycle A -> A; the visited set must stop it.
        let p = prepared(vec![
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
        ]);
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::base("A"));
        let space = explore(&p, &mut store, goal, &ExploreLimits::default());
        assert!(!space.truncated);
        assert_eq!(space.requests_processed, 1);
        // Both the nullary `a` and the recursive `f` match the single request.
        assert_eq!(space.terms.len(), 2);
    }

    #[test]
    fn request_budget_truncates_exploration() {
        let p = prepared(vec![
            Declaration::new(
                "mk",
                Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new(
                "mk2",
                Ty::fun(vec![Ty::base("C")], Ty::base("B")),
                DeclKind::Local,
            ),
            Declaration::new("c", Ty::base("C"), DeclKind::Local),
        ]);
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::base("A"));
        let space = explore(
            &p,
            &mut store,
            goal,
            &ExploreLimits {
                max_requests: 1,
                time_limit: None,
            },
        );
        assert!(space.truncated);
        assert_eq!(space.requests_processed, 1);
    }

    #[test]
    fn goal_type_missing_from_environment_yields_empty_space() {
        let p = prepared(vec![Declaration::new(
            "a",
            Ty::base("Int"),
            DeclKind::Local,
        )]);
        let mut store = p.scratch();
        // "Nothing" is absent from the base store, so it lands in the overlay.
        let goal = store.sigma(&Ty::base("Nothing"));
        assert_eq!(store.scratch_ty_count(), 1);
        let space = explore(&p, &mut store, goal, &ExploreLimits::default());
        assert!(space.terms.is_empty());
    }

    #[test]
    fn exploration_leaves_the_prepared_store_untouched() {
        let p = prepared(vec![
            Declaration::new("a", Ty::base("Int"), DeclKind::Local),
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("Int")], Ty::base("String")),
                DeclKind::Imported,
            ),
        ]);
        let tys_before = p.store.ty_count();
        let envs_before = p.store.env_count();
        let mut store = p.scratch();
        let goal = store.sigma(&Ty::base("String"));
        let _ = explore(&p, &mut store, goal, &ExploreLimits::default());
        assert_eq!(p.store.ty_count(), tys_before);
        assert_eq!(p.store.env_count(), envs_before);
    }

    /// Base types of the random environments. `Z` never occurs as a return
    /// type, so requests for it have no members.
    const BASES: [&str; 6] = ["A", "B", "C", "D", "E", "Z"];

    fn random_base(rng: &mut StdRng) -> Ty {
        Ty::base(BASES[rng.gen_range(0..BASES.len())])
    }

    /// A random environment of nullary values and functions whose arguments
    /// are sometimes themselves functions, so that PROP issues functional
    /// requests and STRIP extends the environment.
    fn random_env(rng: &mut StdRng, len: usize) -> TypeEnv {
        (0..len)
            .map(|i| {
                let arity = rng.gen_range(0..3usize);
                let args = (0..arity)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            Ty::fun(vec![random_base(rng)], random_base(rng))
                        } else {
                            random_base(rng)
                        }
                    })
                    .collect();
                let ret = Ty::base(BASES[rng.gen_range(0..BASES.len() - 1)]);
                Declaration::new(format!("d{i}"), Ty::fun(args, ret), DeclKind::Local)
            })
            .collect()
    }

    /// A random goal: a base type, a function type, or a function type with
    /// a higher-order argument. `Overlay` exists only in the scratch overlay.
    fn random_goal(rng: &mut StdRng) -> Ty {
        let base = |rng: &mut StdRng| {
            if rng.gen_bool(0.15) {
                Ty::base("Overlay")
            } else {
                random_base(rng)
            }
        };
        match rng.gen_range(0..3u32) {
            0 => base(rng),
            1 => Ty::fun(vec![base(rng)], base(rng)),
            _ => Ty::fun(vec![Ty::fun(vec![base(rng)], base(rng))], base(rng)),
        }
    }

    /// Every base request reachable from `goal` under STRIP / reference MATCH
    /// / PROP, in first-reached order.
    fn reference_requests(
        store: &mut ScratchStore<'_>,
        init_env: EnvId,
        goal: SuccinctTyId,
    ) -> Vec<BaseRequest> {
        let mut pending = vec![Request {
            ty: goal,
            env: init_env,
        }];
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        while let Some(request) = pending.pop() {
            let base = strip_rule(store, request);
            if !seen.insert(base) {
                continue;
            }
            order.push(base);
            for term in match_rule(&*store, base) {
                for &arg in &term.remaining {
                    pending.push(prop_rule(&term, arg));
                }
            }
        }
        order
    }

    #[test]
    fn indexed_match_equals_the_reference_rule_on_random_environments() {
        let mut extended_envs = 0;
        let mut overlay_goals = 0;
        for seed in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Every tenth environment is the empty Γ.
            let len = if seed % 10 == 0 {
                0
            } else {
                rng.gen_range(1..24usize)
            };
            let p = PreparedEnv::prepare(&random_env(&mut rng, len), &WeightConfig::default());
            let mut store = p.scratch();
            let goal_ty = random_goal(&mut rng);
            let goal = store.sigma(&goal_ty);
            if goal_ty.base_names().contains(&"Overlay") {
                assert!(store.scratch_symbol_count() > 0);
                overlay_goals += 1;
            }
            let requests = reference_requests(&mut store, p.init_env, goal);

            // Explore processes exactly the reference requests, and the terms
            // of each are exactly the reference MATCH, in the same order.
            let space = explore(&p, &mut store, goal, &ExploreLimits::default());
            assert!(!space.truncated);
            assert_eq!(space.requests_processed, requests.len(), "seed {seed}");
            let mut expected_terms = 0;
            for &request in &requests {
                let expected = match_rule(&store, request);
                let got: Vec<ReachabilityTerm> = space
                    .terms
                    .iter()
                    .filter(|t| t.ret == request.ret && t.env == request.env)
                    .cloned()
                    .collect();
                assert_eq!(got, expected, "seed {seed}, request {request:?}");
                expected_terms += expected.len();
            }
            assert_eq!(space.terms.len(), expected_terms, "seed {seed}");

            // The index agrees with the rule on every environment explore
            // touched, for every return type, including ones with no members.
            let mut envs: Vec<EnvId> = requests.iter().map(|r| r.env).collect();
            envs.sort_unstable();
            envs.dedup();
            if envs.len() > 1 {
                extended_envs += 1;
            }
            let mut rets: Vec<Symbol> = BASES.iter().map(|b| store.base_symbol(b)).collect();
            rets.push(store.base_symbol("Overlay"));
            let mut index = MatchIndex::default();
            for &env in &envs {
                for &ret in &rets {
                    let request = BaseRequest { ret, env };
                    assert_eq!(
                        index.match_terms(&store, request),
                        match_rule(&store, request),
                        "seed {seed}, request {request:?}"
                    );
                }
            }
        }
        assert!(extended_envs > 30, "only {extended_envs} Γ∪S extensions");
        assert!(overlay_goals > 10, "only {overlay_goals} overlay goals");
    }
}
