//! The unindexed reference implementation of the term generation phase
//! (Figure 10), plus the types shared with the production graph walk.
//!
//! The phase maintains a priority queue of *partial expressions* — terms whose
//! leaves may still be typed holes. The cheapest partial expression is popped,
//! its first hole is located together with the binders in scope
//! (`findFirstHole`), and every pattern/declaration pair that can fill the
//! hole produces a successor expression. Expressions without holes are
//! complete snippets and are emitted in weight order.
//!
//! [`generate_terms_unindexed`] reconstructs directly from the flat
//! [`PatternSet`] — re-running σ, interning and `Select` lookups inside the
//! search loop. The production pipeline instead walks the precomputed
//! [`DerivationGraph`](crate::DerivationGraph) (see
//! [`generate_terms`](crate::generate_terms)), which returns byte-identical
//! results; the implementation here is kept as the oracle for that
//! equivalence (a property test compares the two on random environments) and
//! as the measurable "before" of the refactor in the benchmark suite.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use insynth_lambda::{Param, Term, Ty};
use insynth_succinct::{ScratchStore, TypeStore};

use crate::decl::TypeEnv;
use crate::genp::PatternSet;
use crate::pexpr::{replace_first_hole, unlink_on_drop, PartialExpr};
use crate::prepare::PreparedEnv;
use crate::weights::{Weight, WeightConfig};

/// A cooperative cancellation flag for in-flight reconstruction walks.
///
/// Cloning is cheap and clones share the flag (it is an
/// `Arc<AtomicBool>` underneath): hand one clone to the walk — via
/// [`Query::with_cancel_token`](crate::Query::with_cancel_token) or
/// [`GenerateLimits::cancel`] — and keep another to [`cancel`] from any
/// thread. The walk checks the flag between priority-queue pops, so a
/// cancelled walk stops at the next pop boundary with its frontier intact
/// (the popped entry is re-pushed), reports itself truncated, and emits
/// nothing further. Cancellation is *sticky*: a token never un-cancels, and a
/// walk opened with an already-cancelled token stops before its first pop.
///
/// [`cancel`]: CancelToken::cancel
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Every walk holding a clone of this token stops at
    /// its next pop boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Budgets bounding the reconstruction phase.
#[derive(Debug, Clone)]
pub struct GenerateLimits {
    /// Maximum number of priority-queue pops.
    pub max_steps: usize,
    /// Wall-clock limit (the paper's reconstruction limit, default 7 s there).
    pub time_limit: Option<Duration>,
    /// Maximum term depth (the `d` bound of the reference RCN function); when
    /// `None`, depth is unbounded and only `max_steps`/`time_limit` apply.
    pub max_depth: Option<usize>,
    /// Upper bound on the number of pending partial expressions (defaults to
    /// two million). When the frontier is full, further successors of the
    /// current expansion are dropped and the outcome is marked truncated; the
    /// queue keeps draining, so completions already enqueued are still
    /// emitted. Configurable mainly so tests can exercise the truncation path
    /// without building a multi-million-entry frontier.
    pub max_frontier: usize,
    /// Cooperative cancellation, checked between pops. `None` (the default)
    /// never cancels.
    pub cancel: Option<CancelToken>,
}

impl Default for GenerateLimits {
    fn default() -> Self {
        GenerateLimits {
            max_steps: 200_000,
            time_limit: None,
            max_depth: None,
            max_frontier: MAX_FRONTIER,
            cancel: None,
        }
    }
}

/// A complete synthesized term together with its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedTerm {
    /// The term, in long normal form.
    pub term: Term,
    /// Its total weight (sum of the weights of all symbols it uses).
    pub weight: Weight,
}

/// The outcome of the reconstruction phase.
#[derive(Debug, Clone, Default)]
pub struct GenerateOutcome {
    /// Complete terms in ascending weight order.
    pub terms: Vec<RankedTerm>,
    /// Number of priority-queue pops performed.
    pub steps: usize,
    /// `true` if the walk could not run to its natural end (`n` terms emitted
    /// or queue exhausted). Two distinct causes set this flag:
    ///
    /// * a **budget** ran out — `max_steps` pops, or the `time_limit`
    ///   wall-clock; the walk stops on the spot, and terms the queue still
    ///   held are never emitted;
    /// * the **frontier cap** (`max_frontier`) was hit — successors of the
    ///   expansion in progress are dropped, but the walk continues and keeps
    ///   draining the queue, so everything already enqueued is still emitted
    ///   in order.
    ///
    /// Either way every term returned is a true member of the enumeration,
    /// with its exact weight and in enumeration order: the terms are an
    /// in-order subsequence of what an untruncated walk emits, and equal its
    /// prefix when this flag is `false`. A budget stop loses only the tail,
    /// but the frontier cap can drop terms from *anywhere* in the list: the
    /// completions of a dropped successor never appear, and later terms
    /// move up in their place.
    pub truncated: bool,
    /// Always `0`: no walk discards a successor on account of `n`. Kept so
    /// that readers of the field keep compiling.
    pub pruned_enqueues: usize,
    /// `true` when the walk ran in A* mode (heuristic-guided ordering);
    /// `false` for the plain best-first walk (unindexed reference, or the
    /// graph walk's fallback when weights are not monotone).
    pub astar: bool,
}

/// Upper bound on the number of pending partial expressions. The frontier of
/// a weight-ordered best-first search in a paper-scale environment can grow
/// into the millions; entries beyond this bound are unreachable within any
/// interactive time budget, so they are dropped (and the outcome is marked
/// truncated). This is the default of [`GenerateLimits::max_frontier`],
/// shared with the graph walk in [`crate::graph`].
pub(crate) const MAX_FRONTIER: usize = 2_000_000;

/// A partial expression: a term whose leaves may be typed holes. Subtrees are
/// `Arc`-shared — replacing the first hole rebuilds only the spine above it —
/// and every walk over the structure (depth, conversion, hole search and
/// replacement, drop) is iterative, so term depth is bounded by memory, not
/// by the call stack (the ROADMAP's deep-term stack-overflow item).
#[derive(Debug)]
enum PExpr {
    /// A typed hole `[ ] : τ` awaiting reconstruction (weight 0, §5.5).
    Hole(Ty),
    /// An application node `λ params . head(args…)`.
    Node {
        params: Vec<Param>,
        head: String,
        args: Vec<Arc<PExpr>>,
    },
}

impl PartialExpr for PExpr {
    fn children(&self) -> Option<&[Arc<Self>]> {
        match self {
            PExpr::Hole(_) => None,
            PExpr::Node { args, .. } => Some(args),
        }
    }

    fn take_children(&mut self) -> Vec<Arc<Self>> {
        match self {
            PExpr::Hole(_) => Vec::new(),
            PExpr::Node { args, .. } => std::mem::take(args),
        }
    }

    fn with_children(&self, children: Vec<Arc<Self>>) -> Self {
        match self {
            PExpr::Hole(_) => unreachable!("holes have no children to replace"),
            PExpr::Node { params, head, .. } => PExpr::Node {
                params: params.clone(),
                head: head.clone(),
                args: children,
            },
        }
    }
}

impl Drop for PExpr {
    fn drop(&mut self) {
        unlink_on_drop(self);
    }
}

impl PExpr {
    /// Maximum node count on any root-to-leaf path, iteratively.
    fn depth(&self) -> usize {
        let mut max = 0;
        let mut stack: Vec<(&PExpr, usize)> = vec![(self, 1)];
        while let Some((expr, depth)) = stack.pop() {
            max = max.max(depth);
            if let PExpr::Node { args, .. } = expr {
                for a in args {
                    stack.push((a, depth + 1));
                }
            }
        }
        max
    }

    /// Converts a hole-free expression to a term (`None` if a hole remains),
    /// iteratively: child terms accumulate on a value stack and are drained
    /// when their node completes, post-order.
    fn to_term(&self) -> Option<Term> {
        enum Step<'a> {
            Visit(&'a PExpr),
            Build(&'a PExpr),
        }
        let mut steps = vec![Step::Visit(self)];
        let mut built: Vec<Term> = Vec::new();
        while let Some(step) = steps.pop() {
            match step {
                Step::Visit(e) => match e {
                    PExpr::Hole(_) => return None,
                    PExpr::Node { args, .. } => {
                        steps.push(Step::Build(e));
                        for a in args.iter().rev() {
                            steps.push(Step::Visit(a));
                        }
                    }
                },
                Step::Build(e) => {
                    let PExpr::Node { params, head, args } = e else {
                        unreachable!("only nodes are scheduled for building")
                    };
                    let out_args = built.split_off(built.len() - args.len());
                    built.push(Term {
                        params: params.clone(),
                        head: head.clone(),
                        args: out_args,
                    });
                }
            }
        }
        built.pop()
    }
}

/// Runs best-first term reconstruction directly over the flat pattern set —
/// the pre-derivation-graph reference implementation.
///
/// * `goal` is the desired simple type τo.
/// * `n` bounds the number of complete terms returned (the paper's `N`).
///
/// The returned terms are in ascending weight order; ties are broken by
/// discovery order, which makes the output deterministic. The production
/// entry point is [`generate_terms`](crate::generate_terms) over a
/// [`DerivationGraph`](crate::DerivationGraph); it returns byte-identical
/// results while skipping the per-hole interning this implementation pays.
#[allow(clippy::too_many_arguments)]
pub fn generate_terms_unindexed(
    prepared: &PreparedEnv,
    store: &mut ScratchStore<'_>,
    patterns: &PatternSet,
    env: &TypeEnv,
    weights: &WeightConfig,
    goal: &Ty,
    n: usize,
    limits: &GenerateLimits,
) -> GenerateOutcome {
    let start = Instant::now();
    let mut outcome = GenerateOutcome::default();
    if n == 0 {
        return outcome;
    }

    let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seq = 0u64;
    queue.push(Entry {
        weight: Reverse(Weight::ZERO),
        seq: Reverse(seq),
        expr: Arc::new(PExpr::Hole(goal.clone())),
    });

    while let Some(entry) = queue.pop() {
        if outcome.terms.len() >= n {
            break;
        }
        if outcome.steps >= limits.max_steps {
            outcome.truncated = true;
            break;
        }
        if let Some(limit) = limits.time_limit {
            if start.elapsed() > limit {
                outcome.truncated = true;
                break;
            }
        }
        if let Some(cancel) = &limits.cancel {
            if cancel.is_cancelled() {
                outcome.truncated = true;
                break;
            }
        }
        outcome.steps += 1;

        let mut scope = Vec::new();
        match find_first_hole(&entry.expr, &mut scope) {
            None => {
                let term = entry
                    .expr
                    .to_term()
                    .expect("expression without holes converts to a term");
                outcome.terms.push(RankedTerm {
                    term,
                    weight: entry.weight.0,
                });
            }
            Some((hole_ty, hole_scope)) => {
                for (i, (replacement, added)) in expand_hole(
                    prepared,
                    store,
                    patterns,
                    env,
                    weights,
                    &hole_ty,
                    &hole_scope,
                )
                .into_iter()
                .enumerate()
                {
                    // Large environments can produce thousands of expansions
                    // per hole; re-check the wall-clock budget periodically so
                    // a single step cannot overshoot the reconstruction limit,
                    // and stop enqueueing once the frontier is unreasonably
                    // large (the search is weight-ordered, so entries that far
                    // down the queue would not be reached within any
                    // interactive budget anyway).
                    if i % 128 == 127 {
                        if let Some(limit) = limits.time_limit {
                            if start.elapsed() > limit {
                                outcome.truncated = true;
                                break;
                            }
                        }
                    }
                    if queue.len() >= limits.max_frontier {
                        outcome.truncated = true;
                        break;
                    }
                    let new_expr = replace_first_hole(&entry.expr, &replacement);
                    if let Some(max_depth) = limits.max_depth {
                        if new_expr.depth() > max_depth {
                            continue;
                        }
                    }
                    seq += 1;
                    queue.push(Entry {
                        weight: Reverse(entry.weight.0.plus(added)),
                        seq: Reverse(seq),
                        expr: new_expr,
                    });
                }
            }
        }
    }

    outcome
}

/// Finds the first (leftmost, outermost-first) hole and the lambda binders in
/// scope at that hole — the `findFirstHole` function of Figure 10.
/// Iterative pre-order with explicit backtracking, so term depth cannot
/// overflow the call stack.
fn find_first_hole(expr: &PExpr, scope: &mut Vec<Param>) -> Option<(Ty, Vec<Param>)> {
    // Frames: a node being scanned, the next child index, and the scope
    // length to restore when backtracking past it.
    let mut stack: Vec<(&PExpr, usize, usize)> = Vec::new();
    let mut current = expr;
    loop {
        match current {
            PExpr::Hole(ty) => {
                let found = Some((ty.clone(), scope.clone()));
                scope.truncate(stack.first().map_or(scope.len(), |(_, _, mark)| *mark));
                return found;
            }
            PExpr::Node { params, .. } => {
                let mark = scope.len();
                scope.extend(params.iter().cloned());
                stack.push((current, 0, mark));
            }
        }
        loop {
            let (node, next, mark) = stack.last_mut()?;
            let PExpr::Node { args, .. } = *node else {
                unreachable!("only nodes are pushed on the spine")
            };
            if *next < args.len() {
                current = &args[*next];
                *next += 1;
                break;
            }
            scope.truncate(*mark);
            stack.pop();
        }
    }
}

/// All single-step expansions of a hole of type `hole_ty` with the given
/// binders in scope. Each expansion is a node `λ x̄ . f([ ] … [ ])` together
/// with the weight it adds to the partial expression.
fn expand_hole(
    prepared: &PreparedEnv,
    store: &mut ScratchStore<'_>,
    patterns: &PatternSet,
    env: &TypeEnv,
    weights: &WeightConfig,
    hole_ty: &Ty,
    scope: &[Param],
) -> Vec<(Arc<PExpr>, Weight)> {
    let (arg_tys, ret_ty) = hole_ty.uncurry();
    let ret_name = match ret_ty {
        Ty::Base(name) => name.clone(),
        Ty::Arrow(..) => unreachable!("uncurry ends at a base type"),
    };

    // Fresh binders x1 : τ1 … xn : τn for the hole's own arrows. Names are
    // chosen to be unique along the scope path.
    let fresh: Vec<Param> = arg_tys
        .iter()
        .enumerate()
        .map(|(i, t)| Param::new(format!("var{}", scope.len() + i + 1), (*t).clone()))
        .collect();

    // Γ ∪ S: the succinct environment at the hole.
    let binder_succ: Vec<_> = scope
        .iter()
        .chain(fresh.iter())
        .map(|p| store.sigma(&p.ty))
        .collect();
    let hole_env = store.env_union(prepared.init_env, &binder_succ);
    let ret_sym = store.base_symbol(&ret_name);

    // Head candidates: declarations and in-scope binders whose succinct type
    // matches a pattern (Γ∪S)@S' : v.
    let pattern_args: Vec<Vec<_>> = patterns
        .lookup(hole_env, ret_sym)
        .map(|p| p.args.clone())
        .collect();

    let mut out = Vec::new();
    let binder_lambda_weight = weights.lambda_weight();
    let params_weight = Weight::new(binder_lambda_weight.value() * fresh.len() as f64);

    for args_set in pattern_args {
        let wanted = store.mk_ty(args_set, ret_sym);

        for &decl_idx in prepared.select(wanted) {
            let decl = &env.decls()[decl_idx];
            out.push(build_node(
                &fresh,
                &decl.name,
                &decl.ty,
                prepared.decl_weight[decl_idx],
                params_weight,
            ));
        }

        for binder in scope.iter().chain(fresh.iter()) {
            if store.sigma(&binder.ty) == wanted {
                out.push(build_node(
                    &fresh,
                    &binder.name,
                    &binder.ty,
                    binder_lambda_weight,
                    params_weight,
                ));
            }
        }
    }

    out
}

fn build_node(
    fresh: &[Param],
    head: &str,
    head_ty: &Ty,
    head_weight: Weight,
    params_weight: Weight,
) -> (Arc<PExpr>, Weight) {
    let (rho, _) = head_ty.uncurry();
    let args: Vec<Arc<PExpr>> = rho
        .iter()
        .map(|t| Arc::new(PExpr::Hole((*t).clone())))
        .collect();
    let node = Arc::new(PExpr::Node {
        params: fresh.to_vec(),
        head: head.to_owned(),
        args,
    });
    (node, params_weight.plus(head_weight))
}

/// Priority-queue entry: lighter partial expressions first, FIFO among equals.
struct Entry {
    weight: Reverse<Weight>,
    seq: Reverse<u64>,
    expr: Arc<PExpr>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.weight == other.weight && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.weight, self.seq).cmp(&(other.weight, other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration};
    use crate::explore::{explore, ExploreLimits};
    use crate::genp::generate_patterns;
    use insynth_lambda::check;

    fn synthesize(decls: Vec<Declaration>, goal: Ty, n: usize) -> Vec<RankedTerm> {
        let env: TypeEnv = decls.into_iter().collect();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let outcome = generate_terms_unindexed(
            &prepared,
            &mut store,
            &patterns,
            &env,
            &weights,
            &goal,
            n,
            &GenerateLimits::default(),
        );
        // Every produced term must type check at the goal type.
        let bindings = env.to_bindings();
        for ranked in &outcome.terms {
            check(&bindings, &ranked.term, &goal).expect("synthesized term must type check");
        }
        outcome.terms
    }

    #[test]
    fn synthesizes_simple_application_chain() {
        let terms = synthesize(
            vec![
                Declaration::new("name", Ty::base("String"), DeclKind::Local),
                Declaration::new(
                    "FileInputStream",
                    Ty::fun(vec![Ty::base("String")], Ty::base("FileInputStream")),
                    DeclKind::Imported,
                ),
                Declaration::new(
                    "BufferedInputStream",
                    Ty::fun(
                        vec![Ty::base("FileInputStream")],
                        Ty::base("BufferedInputStream"),
                    ),
                    DeclKind::Imported,
                ),
            ],
            Ty::base("BufferedInputStream"),
            3,
        );
        assert_eq!(terms.len(), 1);
        assert_eq!(
            terms[0].term.to_string(),
            "BufferedInputStream(FileInputStream(name))"
        );
    }

    #[test]
    fn ranks_cheaper_declarations_first() {
        // Both `local` and `imported` inhabit the goal; the local one is cheaper.
        let terms = synthesize(
            vec![
                Declaration::new("imported", Ty::base("Goal"), DeclKind::Imported),
                Declaration::new("local", Ty::base("Goal"), DeclKind::Local),
            ],
            Ty::base("Goal"),
            10,
        );
        assert_eq!(terms.len(), 2);
        assert_eq!(terms[0].term.to_string(), "local");
        assert_eq!(terms[1].term.to_string(), "imported");
        assert!(terms[0].weight < terms[1].weight);
    }

    #[test]
    fn synthesizes_higher_order_argument_with_lambda() {
        // §2.2: new FilterTypeTreeTraverser(var1 => p(var1))
        let terms = synthesize(
            vec![
                Declaration::new(
                    "FilterTypeTreeTraverser",
                    Ty::fun(
                        vec![Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean"))],
                        Ty::base("FilterTypeTreeTraverser"),
                    ),
                    DeclKind::Imported,
                ),
                Declaration::new(
                    "p",
                    Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("FilterTypeTreeTraverser"),
            5,
        );
        assert!(!terms.is_empty());
        assert_eq!(
            terms[0].term.to_string(),
            "FilterTypeTreeTraverser(var1 => p(var1))"
        );
    }

    #[test]
    fn synthesizes_identity_function_from_empty_environment() {
        // Goal A -> A with nothing in scope: λx. x.
        let terms = synthesize(vec![], Ty::fun(vec![Ty::base("A")], Ty::base("A")), 3);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].term.to_string(), "var1 => var1");
    }

    #[test]
    fn uninhabited_goal_returns_no_terms() {
        let terms = synthesize(
            vec![Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            )],
            Ty::base("A"),
            5,
        );
        assert!(terms.is_empty());
    }

    #[test]
    fn enumerates_infinitely_many_solutions_up_to_n() {
        // s : A -> A and a : A admit a, s(a), s(s(a)), …
        let terms = synthesize(
            vec![
                Declaration::new("a", Ty::base("A"), DeclKind::Local),
                Declaration::new(
                    "s",
                    Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("A"),
            4,
        );
        assert_eq!(terms.len(), 4);
        let rendered: Vec<String> = terms.iter().map(|t| t.term.to_string()).collect();
        assert_eq!(rendered[0], "a");
        assert_eq!(rendered[1], "s(a)");
        assert_eq!(rendered[2], "s(s(a))");
        assert_eq!(rendered[3], "s(s(s(a)))");
        // Weights strictly increase along this chain.
        assert!(terms.windows(2).all(|w| w[0].weight <= w[1].weight));
    }

    #[test]
    fn multi_argument_heads_get_all_arguments_filled() {
        let terms = synthesize(
            vec![
                Declaration::new("x", Ty::base("Int"), DeclKind::Local),
                Declaration::new("y", Ty::base("String"), DeclKind::Local),
                Declaration::new(
                    "pair",
                    Ty::fun(vec![Ty::base("Int"), Ty::base("String")], Ty::base("Pair")),
                    DeclKind::Imported,
                ),
            ],
            Ty::base("Pair"),
            3,
        );
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].term.to_string(), "pair(x, y)");
    }

    #[test]
    fn depth_limit_prunes_deep_terms() {
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
        ]
        .into_iter()
        .collect();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let goal = Ty::base("A");
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let outcome = generate_terms_unindexed(
            &prepared,
            &mut store,
            &patterns,
            &env,
            &weights,
            &goal,
            100,
            &GenerateLimits {
                max_depth: Some(2),
                ..GenerateLimits::default()
            },
        );
        // Only `a` (depth 1) and `s(a)` (depth 2) fit within depth 2.
        let rendered: Vec<String> = outcome.terms.iter().map(|t| t.term.to_string()).collect();
        assert_eq!(rendered, vec!["a", "s(a)"]);
        assert!(!outcome.truncated);
    }

    #[test]
    fn step_limit_truncates_reconstruction() {
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
        ]
        .into_iter()
        .collect();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let goal = Ty::base("A");
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let outcome = generate_terms_unindexed(
            &prepared,
            &mut store,
            &patterns,
            &env,
            &weights,
            &goal,
            1_000,
            &GenerateLimits {
                max_steps: 10,
                ..GenerateLimits::default()
            },
        );
        assert!(outcome.truncated);
        assert!(outcome.steps <= 10);
    }

    #[test]
    fn depth_thousands_terms_do_not_overflow_the_stack() {
        // The ROADMAP deep-term regression: enumerate the `a, s(a), s(s(a)),
        // …` chain down to depth 2000. Every expression helper on this path —
        // find_first_hole, replace_first_hole, to_term, depth and the PExpr
        // Drop — runs once per term-depth level, so all of them must be
        // iterative for this to survive the default 2 MiB test-thread stack.
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
        ]
        .into_iter()
        .collect();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let goal = Ty::base("A");
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);

        let n = 2000;
        let outcome = generate_terms_unindexed(
            &prepared,
            &mut store,
            &patterns,
            &env,
            &weights,
            &goal,
            n,
            &GenerateLimits::default(),
        );
        assert_eq!(outcome.terms.len(), n);
        assert!(outcome.terms.windows(2).all(|w| w[0].weight <= w[1].weight));
        assert_eq!(outcome.terms[0].term.to_string(), "a");
        assert_eq!(outcome.terms[n - 1].term.depth(), n);
    }

    #[test]
    fn weight_accounting_matches_the_section4_formula() {
        let env: TypeEnv = vec![
            Declaration::new("name", Ty::base("String"), DeclKind::Local),
            Declaration::new(
                "mk",
                Ty::fun(vec![Ty::base("String")], Ty::base("File")),
                DeclKind::Imported,
            ),
        ]
        .into_iter()
        .collect();
        let weights = WeightConfig::default();
        let prepared = PreparedEnv::prepare(&env, &weights);
        let goal = Ty::base("File");
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let outcome = generate_terms_unindexed(
            &prepared,
            &mut store,
            &patterns,
            &env,
            &weights,
            &goal,
            1,
            &GenerateLimits::default(),
        );
        let ranked = &outcome.terms[0];
        let expected = weights.term_weight(&ranked.term, &|h| {
            let decl = env.find(h).expect("head must be declared");
            weights.declaration_weight(decl)
        });
        assert_eq!(ranked.weight, expected);
    }
}
