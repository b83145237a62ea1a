//! The derivation graph: a pattern-indexed, reconstruction-ready view of the
//! derivable space.
//!
//! The pattern generation phase proves *which* `(environment, return type)`
//! goals are inhabited; reconstruction (Figure 10) then repeatedly asks how a
//! hole at such a goal can be filled. The flat pattern table answers that
//! query with hashing, interning and `Select` lookups in the innermost search
//! loop. A [`DerivationGraph`] moves all of that work out of the loop:
//!
//! * **nodes** are the goals of the [`PatternIndex`](insynth_succinct::PatternIndex)
//!   produced by [`generate_patterns`](crate::generate_patterns);
//! * **edges** are weighted applications: for every pattern of a goal, the
//!   `Select`-resolved declarations that realize it, each carrying its weight
//!   and the hole types of its arguments (pre-uncurried, pre-σ-lowered);
//!   a pattern's `Select` key is its `head`, the member MATCH found, and a
//!   declaration's argument hole types come from the σ ids the prepared
//!   environment recorded for its arguments (see *Building the graph*);
//! * a read-only **environment union table** resolves the environment at a
//!   hole without touching (or locking) any interner.
//!
//! After the graph is built, a **heuristic phase** runs a backward Dijkstra
//! (Knuth's generalization to hypergraphs) over it, computing for every goal
//! node an *admissible and consistent* lower bound on the cheapest complete
//! term a hole at that goal can expand into: an edge costs its declaration
//! weight plus the binder weights and bounds of its argument goals, binders
//! that could be in scope contribute conservative pseudo-edges at lambda
//! weight, and goals no edge can complete get bound `∞` — which subsumes the
//! walk's per-pop dead-hole memo (an `∞` hole is dead even when its node
//! exists).
//!
//! [`generate_terms`] is then an **A\*** walk over the graph: the queue is
//! ordered by `g + Σ h(open holes)` (accumulated weight plus the completion
//! bounds of every open hole), no σ, no interning, no string cloning, and two
//! prunings the flat pipeline cannot do:
//!
//! * **dead-hole pruning** — a successor containing a hole whose completion
//!   bound is `∞` can never complete and is dropped at creation;
//! * **branch-and-bound** — once `n` complete candidates are enqueued, any
//!   expression whose *bound* `g + Σ h` exceeds the current n-th best
//!   candidate is dropped before it is enqueued (admissible because `h`
//!   under-estimates; disabled — together with the whole heuristic — when a
//!   negative [`Declaration::with_weight`](crate::Declaration::with_weight)
//!   override breaks weight monotonicity, in which case the walk falls back
//!   to the plain best-first order of [`generate_terms_best_first`]).
//!
//! Ordering by `g + Σ h` changes which partial expressions are *explored*,
//! but not what is *emitted*: admissibility guarantees completions still pop
//! in ascending weight order, and ties are broken by each entry's *pedigree*
//! — the chain of (accumulated weight, expansion index) pairs along its
//! ancestor path — which reproduces, bit for bit, the creation-order
//! tie-break of the plain best-first walk (an entry's creation order is its
//! parent's pop order plus its index within that expansion, recursively).
//! The returned terms are therefore byte-identical to the unindexed
//! reference walk ([`generate_terms_unindexed`](crate::generate_terms_unindexed));
//! a property test asserts exactly that, in both the A* and the fallback
//! regime. Two floating-point guards keep the tie cases honest: hole costs
//! are rounded down onto a dyadic grid so incrementally maintained `Σ h`
//! sums are exact (and stay under-estimates), and the branch-and-bound
//! cutoff is inflated by a margin dwarfing any residual rounding, so an
//! expression whose true bound exactly ties the n-th candidate is never
//! pruned by a stray ulp.
//!
//! A graph is self-contained (it no longer borrows the per-query
//! [`ScratchStore`]), and the heuristic is part of it, which is what lets a
//! [`Session`](crate::Session) cache both and answer repeated queries
//! without re-running exploration, pattern generation or the Dijkstra pass.
//! Two further pieces of sharing keep cached graphs cheap:
//!
//! * the **base environment table is not snapshotted** — the graph holds an
//!   `Arc` of the [`PreparedEnv`] it was built over and resolves base-store
//!   environments through it, copying only the query-local overlay
//!   environments, so every graph cached for one program point shares the
//!   prepared point's interned tables;
//! * the **per-walk caches persist on the graph** — the hole-goal memo (goal
//!   resolution + completion bound per `(environment, hole type)`) and the
//!   expansion cache (dead-checked, bound-summed declaration successors per
//!   `(environment, goal)`) are keyed by graph-local ids only, so they are
//!   taken over by the next walk instead of being rebuilt from scratch; the
//!   first pop of a paper-scale walk resolves thousands of edges, and
//!   repeated same-goal queries now skip exactly that work. (The caches are
//!   mode-specific: a walk forced into the other ordering — e.g.
//!   [`generate_terms_best_first`] on a heuristic-carrying graph — uses
//!   private caches and leaves the persisted ones untouched.)
//!
//! # Building the graph
//!
//! The build's first pass interns, per pattern, the hole types of every
//! declaration `Select` returns for the pattern's head, once per
//! declaration. It re-derives nothing the earlier phases already know: the
//! head is the `Select` key as is, and each argument's σ id comes from the
//! prepared environment's argument table. That id finds the argument's hole
//! type in a dense `σ id → hole type` table without hashing a `Ty`. σ is not
//! injective on function types — `A → B → C` and `B → A → C` share the image
//! `{A, B} → C` — so a hit counts only if the stored hole type's `Ty` equals
//! the argument, compared in place along the declaration's arrow spine. A
//! hit whose `Ty` differs, and a first encounter, take the `Ty`-keyed
//! interning; either way the hole types and their ids are those the
//! `Ty`-keyed interning alone would assign.
//!
//! # Patching the graph
//!
//! Proof search runs on succinct types only (§3–4): declarations enter when
//! `Select` realizes a pattern. So an edit that adds, removes or reweights
//! declarations of succinct types Γ already has — a *σ-inert* edit, after
//! which the prepared store and Γ are unchanged — changes a graph's edges
//! and nothing else, provided exploration would replay identically: the
//! same σ-level space ([`PreparedEnv::same_sigma_space`]), the same
//! per-succinct-type weights (exploration's queue order) and the same weight
//! monotonicity. [`DerivationGraph::patch`] then derives the edited
//! environment's graph from this one. The σ-level part — goal nodes,
//! variants, hole types, overlay environments — sits behind one `Arc` the
//! patch shares; the patch allocates only a new edge slab. Each variant's
//! new `Select` list is its kept declarations, renumbered and in order,
//! followed by the added declarations of its σ class: kept edges keep their
//! argument hole types, and added ones look theirs up in the hole table.
//!
//! Patches are exact or they do not happen. Hole-type ids follow pass 1's
//! first-encounter order, so the build records which variant and which
//! declaration first interned each hole type, and a patch falls back to a
//! build (returns `None`) when a removed declaration interned a hole type,
//! or when an added declaration's argument type was interned later than
//! that declaration's first variant (or not at all): in either case a build
//! would number the hole types differently.
//!
//! The completion bounds are shared with the patched graph when the edit
//! provably leaves them unchanged: every added or down-weighted edge's
//! candidate bound (its weight plus, per argument, the binder weight and the
//! tail's bound, summed in the Dijkstra pass's order) is at least its node's
//! bound, and every removed or up-weighted edge was either not tight or its
//! node keeps another tight edge whose tails all bound strictly lower —
//! strictly, because a tight zero-weight edge back into its own node
//! supports nothing. Otherwise the Dijkstra pass reruns on the patched
//! graph. Walk caches start empty; a patched graph shares no walk state.
//!
//! # Example
//!
//! ```
//! use insynth_core::{
//!     explore, generate_patterns, generate_terms, Declaration, DeclKind, DerivationGraph,
//!     ExploreLimits, GenerateLimits, PreparedEnv, TypeEnv, WeightConfig,
//! };
//! use insynth_lambda::Ty;
//! use insynth_succinct::TypeStore;
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
//! let weights = WeightConfig::default();
//! let prepared = std::sync::Arc::new(PreparedEnv::prepare(&env, &weights));
//! let goal = Ty::base("File");
//! let mut store = prepared.scratch();
//! let goal_succ = store.sigma(&goal);
//! let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
//! let patterns = generate_patterns(&mut store, &space);
//! let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);
//! let outcome = generate_terms(&graph, &env, 3, &GenerateLimits::default());
//! assert_eq!(outcome.terms[0].term.to_string(), "mkFile(name)");
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use insynth_intern::{IdHashMap, IdHashSet, Symbol};
use insynth_lambda::{Param, Term, Ty};
use insynth_succinct::{EnvId, ScratchStore, SuccinctTyId, TypeStore};

use crate::decl::TypeEnv;
use crate::genp::PatternSet;
use crate::gent::{GenerateLimits, GenerateOutcome, RankedTerm};
use crate::pexpr::{replace_first_hole, unlink_on_drop, PartialExpr};
use crate::prepare::PreparedEnv;
use crate::weights::{Weight, WeightConfig};

/// Index of an interned hole type in a [`DerivationGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HoleTyId(u32);

impl HoleTyId {
    fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// Marks a declaration an edit removed in the index map
/// [`DerivationGraph::patch`] takes.
pub const DECL_REMOVED: u32 = u32::MAX;

/// An interned hole type: a simple type together with everything the walk
/// needs to know about it, computed once at graph build time.
#[derive(Debug, PartialEq)]
struct HoleTy {
    /// The simple type itself (cloned into fresh binder parameters).
    ty: Ty,
    /// The final base return type (the goal a hole of this type asks for).
    ret: Symbol,
    /// Uncurried argument types, in order, duplicates kept — the fresh lambda
    /// binders a hole of this type introduces.
    args: Arc<[HoleTyId]>,
    /// The σ image of the type (for matching against edge `wanted` types).
    succ: SuccinctTyId,
    /// Sorted, de-duplicated σ images of `args` (the environment extension a
    /// hole of this type causes).
    arg_succs: Vec<SuccinctTyId>,
}

/// The σ-level part of a derivation graph: everything exploration and
/// pattern generation decide — goal nodes, their variants, the hole types and
/// the overlay environments — and nothing that depends on which declarations
/// realize a pattern. A graph patched for an edited environment shares it
/// with the graph it was patched from (see *Patching the graph* in the
/// module docs).
///
/// A goal node's variants are the patterns of that goal (the succinct type an
/// expansion head must have). Lambda binders in scope are matched against
/// `variant_wanted` at walk time (they are not known at build time).
#[derive(Debug)]
struct GraphShape {
    /// Variants of node `v` occupy `node_offsets[v]..node_offsets[v + 1]`
    /// (length `node_count + 1`, first entry `0`).
    node_offsets: Vec<u32>,
    /// The succinct head type each variant matches, one entry per variant.
    variant_wanted: Vec<SuccinctTyId>,
    /// The environment of each goal node.
    node_envs: Vec<EnvId>,
    goal_ids: IdHashMap<(EnvId, Symbol), u32>,
    tys: Vec<HoleTy>,
    ty_ids: HashMap<Ty, HoleTyId>,
    /// Per hole type, the variant whose pass-1 visit interned it; the variant
    /// count for a root type no declaration argument has.
    ty_intro_variant: Vec<u32>,
    /// Member lists of the query-local overlay environments only (raw ids
    /// past the base store's), each sorted ascending; base environments are
    /// resolved through the graph's `base`. The same `Arc` backs the
    /// id-indexed table and the reverse-lookup keys.
    scratch_envs: Vec<Arc<[SuccinctTyId]>>,
    scratch_env_ids: HashMap<Arc<[SuccinctTyId]>, EnvId>,
    init_env: EnvId,
    root_ty: HoleTyId,
    lambda_weight: Weight,
}

impl GraphShape {
    fn node_count(&self) -> usize {
        self.node_offsets.len().saturating_sub(1)
    }

    /// Variant indices of a goal node, in derivation order.
    fn variants(&self, node: u32) -> std::ops::Range<usize> {
        let node = node as usize;
        self.node_offsets[node] as usize..self.node_offsets[node + 1] as usize
    }

    fn same_as(&self, other: &GraphShape) -> bool {
        self.node_offsets == other.node_offsets
            && self.variant_wanted == other.variant_wanted
            && self.node_envs == other.node_envs
            && self.goal_ids == other.goal_ids
            && self.tys == other.tys
            && self.ty_ids == other.ty_ids
            && self.ty_intro_variant == other.ty_intro_variant
            && self.scratch_envs == other.scratch_envs
            && self.init_env == other.init_env
            && self.root_ty == other.root_ty
            && self.lambda_weight.value().to_bits() == other.lambda_weight.value().to_bits()
    }
}

/// The graph's declaration edges, packed into contiguous struct-of-arrays
/// slabs with `u32` prefix offsets.
///
/// A variant's edges are the `Select`-resolved declarations realizing it,
/// each carrying its weight and the hole types of its uncurried arguments.
/// Packing everything walk-adjacent into flat parallel vectors keeps the
/// expansion loop on a handful of contiguous allocations instead of one
/// `Vec<Vec<_>>` tree per node — the layout the cache-locality numbers in
/// `BENCH_BASELINE.json` are measured against.
#[derive(Debug)]
struct EdgeSlab {
    /// Edges of variant `i` occupy `variant_offsets[i]..variant_offsets[i + 1]`
    /// (length `variant_count + 1`, first entry `0`).
    variant_offsets: Vec<u32>,
    /// Per edge: index into the original [`TypeEnv`].
    edge_decl: Vec<u32>,
    /// Per edge: the declaration's weight under the graph's configuration.
    edge_weight: Vec<Weight>,
    /// Per edge: hole types of the declaration's uncurried arguments.
    edge_args: Vec<Arc<[HoleTyId]>>,
}

impl EdgeSlab {
    /// An empty slab with room for `variants` variants and `edges` edges.
    fn with_capacity(variants: usize, edges: usize) -> EdgeSlab {
        let mut variant_offsets = Vec::with_capacity(variants + 1);
        variant_offsets.push(0);
        EdgeSlab {
            variant_offsets,
            edge_decl: Vec::with_capacity(edges),
            edge_weight: Vec::with_capacity(edges),
            edge_args: Vec::with_capacity(edges),
        }
    }

    /// Appends an edge to the variant being filled.
    fn push(&mut self, decl: u32, weight: Weight, args: Arc<[HoleTyId]>) {
        self.edge_decl.push(decl);
        self.edge_weight.push(weight);
        self.edge_args.push(args);
    }

    /// Edge indices of a variant, in `Select` order.
    fn edges(&self, variant: usize) -> std::ops::Range<usize> {
        self.variant_offsets[variant] as usize..self.variant_offsets[variant + 1] as usize
    }
}

/// The pattern-indexed derivation graph for one explored goal.
///
/// Built once per (program point, goal, prover budget) — see
/// [`DerivationGraph::build`] — and walked by [`generate_terms`]. The graph is
/// immutable, owns no borrows, and is `Send + Sync`, so sessions cache it
/// behind an `Arc` and serve concurrent queries from it.
#[derive(Debug)]
pub struct DerivationGraph {
    /// The prepared environment the graph was built over. Base-store
    /// environment lookups go through it instead of a per-graph snapshot, so
    /// every graph cached for a program point shares the point's interned
    /// tables (and keeps them alive independently of any session).
    base: Arc<PreparedEnv>,
    /// Goal nodes (in [`PatternIndex`](insynth_succinct::PatternIndex) goal
    /// order), their variants, hole types and overlay environments — shared
    /// with every graph patched from this one.
    shape: Arc<GraphShape>,
    /// The variants' declaration edges, packed into contiguous
    /// struct-of-arrays slabs.
    edges: EdgeSlab,
    /// Per hole type, the declaration whose first pass-1 visit interned it
    /// ([`DECL_REMOVED`] for a root type no declaration argument has).
    ty_intro_decl: Vec<u32>,
    /// `true` if every weight the walk can add is non-negative; only then are
    /// the completion-bound heuristic and branch-and-bound pruning admissible.
    monotone: bool,
    /// Per-goal completion lower bounds (the A* heuristic), computed once at
    /// build time; `None` when the graph is not monotone.
    heuristic: Option<Heuristic>,
    /// Persisted hole-goal memo: goal resolution + completion bound per
    /// `(environment, hole type)`, accumulated across walks in the graph's
    /// natural mode (values are deterministic, so merging is safe).
    walk_memo: Mutex<WalkMemo>,
    /// Persisted expansion cache: the dead-checked, bound-summed
    /// declaration-headed successors per `(environment, goal node)`.
    walk_expansions: Mutex<ExpansionCache>,
}

/// The hole-goal memo's shape: per `(environment, hole type)`, the resolved
/// goal and its completion bound.
type WalkMemo = IdHashMap<(EnvId, HoleTyId), HoleGoal>;

/// The expansion cache's shape: per `(environment, goal node)`, the shared
/// list of surviving declaration-headed successor variants.
type ExpansionCache = IdHashMap<(EnvId, u32), Arc<[CachedVariant]>>;

/// The admissible completion-cost heuristic: for every goal node, a lower
/// bound on the weight of the cheapest complete term a hole at that goal can
/// expand into (*excluding* the hole's own binder-parameter weight, which
/// depends on the hole's simple type and is added per hole by the walk).
///
/// Computed by a backward Dijkstra over the graph's hyperedges (Knuth's
/// algorithm): an edge's cost is its head weight plus, per argument goal, the
/// argument's binder-parameter weight and its own bound; a node's bound is
/// the minimum over its edges, and nodes no edge can complete stay at
/// [`Weight::INFINITY`]. Binder-headed fills — whose availability depends on
/// the scope at the hole, unknown until walk time — are covered by
/// conservative pseudo-edges: for every succinct type a pattern wants, every
/// interned hole type that could put a binder of that type in scope
/// contributes an edge at lambda weight. The minimum over those candidates
/// under-estimates whatever binder is actually in scope, keeping the bound
/// admissible; it is also consistent (each expansion step's cost change is
/// `≥ 0` against the bound), though emission-order correctness only needs
/// admissibility.
#[derive(Debug)]
struct Heuristic {
    /// `node_bound[node]` = completion lower bound of that goal node;
    /// [`Weight::INFINITY`] marks a goal no expansion can ever complete
    /// (subsuming the walk's dead-hole detection). Shared with a patched
    /// graph whose edit provably leaves every bound unchanged.
    node_bound: Arc<[Weight]>,
}

impl DerivationGraph {
    /// Builds the derivation graph for `goal` from a generated pattern set.
    ///
    /// `store` must be the scratch overlay the patterns were derived in (the
    /// graph snapshots its environment table and interns the few succinct
    /// types the patterns imply). After the build the graph is self-contained;
    /// the scratch can be dropped.
    ///
    /// The build runs in two passes. The *interning pass* walks the goals
    /// and their patterns in index order; a pattern's variant `wanted` type
    /// is its `head`. For each declaration `Select(head)` returns, the first
    /// time the pass meets it, the argument hole types are resolved from the
    /// prepared environment's argument table through the dense σ-id
    /// shortcut, confirmed by `Ty` equality, falling back to `Ty`-keyed
    /// interning (see the module docs, *Building the graph*). The
    /// *resolution pass* then turns each variant's `Select` list into edges
    /// of the packed edge slab.
    pub fn build(
        prepared: &Arc<PreparedEnv>,
        store: &mut ScratchStore<'_>,
        patterns: &PatternSet,
        env: &TypeEnv,
        weights: &WeightConfig,
        goal: &Ty,
    ) -> DerivationGraph {
        let mut holes = HoleTyTable::new(prepared.store.ty_count());

        // Hole types of each declaration's uncurried arguments, shared by
        // every edge that declaration heads.
        let mut decl_args: Vec<Option<Arc<[HoleTyId]>>> = vec![None; env.len()];
        // Which variant and declaration interned each hole type: what a
        // patch checks to prove the edited environment interns them in the
        // same order.
        let mut ty_intro_variant: Vec<u32> = Vec::new();
        let mut ty_intro_decl: Vec<u32> = Vec::new();

        // Pass 1: interning.
        let index = patterns.index();
        let mut goal_ids =
            IdHashMap::with_capacity_and_hasher(index.goal_count(), Default::default());
        let mut node_envs = Vec::with_capacity(index.goal_count());
        let mut node_offsets = Vec::with_capacity(index.goal_count() + 1);
        node_offsets.push(0u32);
        let mut variant_wanted = Vec::new();
        for goal_id in index.goals() {
            let (goal_env, ret) = index.goal_key(goal_id);
            goal_ids.insert((goal_env, ret), node_envs.len() as u32);
            node_envs.push(goal_env);
            for pattern in index.patterns_of(goal_id) {
                debug_assert_eq!(pattern.ret, ret);
                let wanted = pattern.head;
                let variant = variant_wanted.len() as u32;
                for &decl_idx in prepared.select(wanted) {
                    if decl_args[decl_idx].is_none() {
                        let mut spine = &env.decls()[decl_idx].ty;
                        let args: Vec<HoleTyId> = prepared
                            .decl_arg_succs(decl_idx)
                            .iter()
                            .map(|&succ| {
                                let Ty::Arrow(arg, rest) = spine else {
                                    unreachable!("the argument table follows the arrow spine")
                                };
                                spine = rest;
                                holes.intern_arg(store, arg, succ)
                            })
                            .collect();
                        decl_args[decl_idx] = Some(args.into());
                        ty_intro_variant.resize(holes.tys.len(), variant);
                        ty_intro_decl.resize(holes.tys.len(), decl_idx as u32);
                    }
                }
                variant_wanted.push(wanted);
            }
            node_offsets.push(variant_wanted.len() as u32);
        }

        // Pass 2: resolve every variant's `Select` list into packed edges.
        let edges = resolve_edges(prepared, &decl_args, &variant_wanted);

        let root_ty = holes.intern(store, goal);
        let HoleTyTable { tys, ty_ids, .. } = holes;
        ty_intro_variant.resize(tys.len(), variant_wanted.len() as u32);
        ty_intro_decl.resize(tys.len(), DECL_REMOVED);

        // Snapshot the overlay's environment table after all interning is
        // done, so the union lookup sees every environment the walk can
        // encounter; base-store environments stay in the shared prepared
        // point and are resolved through the `base` Arc instead of copied.
        let base_envs = prepared.store.env_count();
        let env_count = store.env_count();
        let mut scratch_envs = Vec::with_capacity(env_count - base_envs);
        let mut scratch_env_ids = HashMap::with_capacity(env_count - base_envs);
        for raw in base_envs..env_count {
            let id = EnvId::from_index(raw as u32);
            let members: Arc<[SuccinctTyId]> = store.env_types(id).to_vec().into();
            scratch_env_ids.insert(Arc::clone(&members), id);
            scratch_envs.push(members);
        }

        let shape = GraphShape {
            node_offsets,
            variant_wanted,
            node_envs,
            goal_ids,
            tys,
            ty_ids,
            ty_intro_variant,
            scratch_envs,
            scratch_env_ids,
            init_env: prepared.init_env,
            root_ty,
            lambda_weight: weights.lambda_weight(),
        };
        let mut graph = DerivationGraph::with_edges(
            prepared,
            Arc::new(shape),
            edges,
            ty_intro_decl,
            prepared.weights_monotone(weights),
        );
        if graph.monotone {
            graph.heuristic = Some(compute_heuristic(&graph));
        }
        graph
    }

    /// A graph over `shape` and `edges` with empty walk caches and no
    /// heuristic yet.
    fn with_edges(
        prepared: &Arc<PreparedEnv>,
        shape: Arc<GraphShape>,
        edges: EdgeSlab,
        ty_intro_decl: Vec<u32>,
        monotone: bool,
    ) -> DerivationGraph {
        DerivationGraph {
            base: Arc::clone(prepared),
            shape,
            edges,
            ty_intro_decl,
            monotone,
            heuristic: None,
            walk_memo: Mutex::new(WalkMemo::default()),
            walk_expansions: Mutex::new(ExpansionCache::default()),
        }
    }

    /// Derives the graph [`DerivationGraph::build`] would produce for `env`,
    /// an edit of the environment this graph was built over, without
    /// re-running exploration or pattern generation — or returns `None` when
    /// that cannot be proven exact, and the caller must build.
    ///
    /// `prepared` is `env`'s preparation, and `old_to_new[i]` is the index
    /// in `env` of this graph's declaration `i`, or [`DECL_REMOVED`]. A kept
    /// declaration must be the same declaration, up to its weight, and the
    /// kept ones must stay in order and come first in `env`; the rest of
    /// `env` counts as added. A patch shares this graph's
    /// goal nodes, variants, hole types and overlay environments, and
    /// rebuilds only the edge slab; the completion bounds are reused when
    /// the edit provably leaves them unchanged and recomputed otherwise. The
    /// walk caches start empty. See *Patching the graph* in the module docs
    /// for the conditions.
    pub fn patch(
        &self,
        prepared: &Arc<PreparedEnv>,
        env: &TypeEnv,
        weights: &WeightConfig,
        old_to_new: &[u32],
    ) -> Option<DerivationGraph> {
        let shape = &self.shape;
        let monotone = prepared.weights_monotone(weights);
        // Exploration and pattern generation must replay identically: the
        // same σ-level space and the same queue order.
        if !self.base.same_sigma_space(prepared)
            || self.base.ty_weight != prepared.ty_weight
            || monotone != self.monotone
            || weights.lambda_weight() != shape.lambda_weight
        {
            return None;
        }
        let old_len = self.base.decl_succ.len();
        let old_to_new = old_to_new.get(..old_len)?;
        // Kept declarations come first, in their old order, with their old
        // σ images; the σ classes whose declarations or weights changed are
        // the only ones whose edges — and completion candidates — differ.
        let mut kept = 0u32;
        let mut changed: IdHashSet<SuccinctTyId> = IdHashSet::default();
        for (old, &new) in old_to_new.iter().enumerate() {
            let succ = self.base.decl_succ[old];
            if new == DECL_REMOVED {
                changed.insert(succ);
                continue;
            }
            if new != kept || new as usize >= env.len() || prepared.decl_succ[new as usize] != succ
            {
                return None;
            }
            let (was, now) = (
                self.base.decl_weight[old],
                prepared.decl_weight[new as usize],
            );
            if was.value().to_bits() != now.value().to_bits() {
                changed.insert(succ);
            }
            kept += 1;
        }
        let added = kept as usize..env.len();
        changed.extend(added.clone().map(|decl| prepared.decl_succ[decl]));
        // A removed declaration that interned a hole type would shift every
        // later hole type's id.
        let ty_intro_decl = self
            .ty_intro_decl
            .iter()
            .map(|&decl| match decl {
                DECL_REMOVED => Some(DECL_REMOVED),
                decl => Some(old_to_new[decl as usize]).filter(|&new| new != DECL_REMOVED),
            })
            .collect::<Option<Vec<u32>>>()?;

        // Each variant's new `Select` list is its kept declarations, in
        // order, followed by the added declarations of its σ class: so the
        // kept edges are renumbered and reweighted in place, and the added
        // ones appended.
        let old_edges = &self.edges;
        let mut edges =
            EdgeSlab::with_capacity(shape.variant_wanted.len(), old_edges.edge_decl.len());
        let mut added_args: IdHashMap<u32, Arc<[HoleTyId]>> = IdHashMap::default();
        for (variant, &wanted) in shape.variant_wanted.iter().enumerate() {
            for e in old_edges.edges(variant) {
                let new = old_to_new[old_edges.edge_decl[e] as usize];
                if new != DECL_REMOVED {
                    let args = Arc::clone(&old_edges.edge_args[e]);
                    edges.push(new, prepared.decl_weight[new as usize], args);
                }
            }
            if changed.contains(&wanted) {
                let select = prepared.select(wanted);
                for &decl in &select[select.partition_point(|&d| d < added.start)..] {
                    let args = match added_args.get(&(decl as u32)) {
                        Some(args) => Arc::clone(args),
                        None => {
                            let args = self.added_decl_args(prepared, env, decl, variant)?;
                            added_args.insert(decl as u32, Arc::clone(&args));
                            args
                        }
                    };
                    edges.push(decl as u32, prepared.decl_weight[decl], args);
                }
            }
            edges.variant_offsets.push(edges.edge_decl.len() as u32);
        }

        let mut graph = DerivationGraph::with_edges(
            prepared,
            Arc::clone(shape),
            edges,
            ty_intro_decl,
            monotone,
        );
        if let Some(old) = &self.heuristic {
            graph.heuristic = Some(
                if self.bounds_survive(&graph.edges, old_to_new, &changed, old) {
                    Heuristic {
                        node_bound: Arc::clone(&old.node_bound),
                    }
                } else {
                    compute_heuristic(&graph)
                },
            );
        }
        Some(graph)
    }

    /// The argument hole types of `decl`, a declaration an edit added, at
    /// its first visit — which comes last in `variant`, its first variant.
    /// `None` unless every argument's hole type exists and was interned no
    /// later than this variant; otherwise a build would intern it here and
    /// shift every later hole type's id.
    fn added_decl_args(
        &self,
        prepared: &PreparedEnv,
        env: &TypeEnv,
        decl: usize,
        variant: usize,
    ) -> Option<Arc<[HoleTyId]>> {
        let shape = &*self.shape;
        let mut spine = &env.decls()[decl].ty;
        prepared
            .decl_arg_succs(decl)
            .iter()
            .map(|_| {
                let Ty::Arrow(arg, rest) = spine else {
                    unreachable!("the argument table follows the arrow spine")
                };
                spine = rest;
                let id = *shape.ty_ids.get(arg)?;
                (shape.ty_intro_variant[id.as_usize()] as usize <= variant).then_some(id)
            })
            .collect()
    }

    /// `true` when the completion bounds `old` of this graph are also the
    /// bounds of the same shape with edges `new_edges` (old declaration `i`
    /// is new declaration `old_to_new[i]`):
    ///
    /// * every added or down-weighted edge's candidate bound is at least its
    ///   node's bound, so no bound falls; and
    /// * every removed or up-weighted edge was either not tight, or its node
    ///   keeps another tight edge whose tails all have strictly smaller
    ///   bounds, so no bound rises. (Strictly: with zero weights, a tight
    ///   edge whose tail ties its head can be part of a cycle that no longer
    ///   completes.)
    ///
    /// Candidates are summed in the order the Dijkstra pass sums them, so
    /// both tests compare exactly the values it would.
    fn bounds_survive(
        &self,
        new_edges: &EdgeSlab,
        old_to_new: &[u32],
        changed: &IdHashSet<SuccinctTyId>,
        old: &Heuristic,
    ) -> bool {
        let shape = &*self.shape;
        let bound = &old.node_bound;
        let mut memo: IdHashMap<(EnvId, HoleTyId), Option<u32>> = IdHashMap::default();
        // An edge's candidate bound for its node, and whether all its tails
        // bound strictly below `below`.
        let mut candidate = |env: EnvId, weight: Weight, args: &[HoleTyId], below: Weight| {
            let mut acc = weight;
            let mut tails: Vec<Weight> = Vec::with_capacity(args.len());
            for &a in args {
                let tail = *memo
                    .entry((env, a))
                    .or_insert_with(|| self.resolve(env, a).map(|(_, node)| node));
                let Some(tail) = tail else {
                    return (Weight::INFINITY, false);
                };
                acc = acc.plus(self.hole_params_weight(a));
                tails.push(bound[tail as usize]);
            }
            tails.sort_unstable();
            let strict = tails.iter().all(|&b| b < below);
            (tails.into_iter().fold(acc, Weight::plus), strict)
        };
        for node in 0..shape.node_count() {
            let env = shape.node_envs[node];
            let here = bound[node];
            let tight = |c: Weight| here.is_finite() && c == here;
            let mut needs_support = false;
            for variant in shape.variants(node as u32) {
                // Edges of unchanged σ classes are only renumbered.
                if !changed.contains(&shape.variant_wanted[variant]) {
                    continue;
                }
                let mut fresh = new_edges.edges(variant);
                for e in self.edges.edges(variant) {
                    let new = old_to_new[self.edges.edge_decl[e] as usize];
                    let old_weight = self.edges.edge_weight[e];
                    let new_weight = if new == DECL_REMOVED {
                        None
                    } else {
                        let n = fresh.next().expect("kept edges stay in their variant");
                        debug_assert_eq!(new_edges.edge_decl[n], new);
                        Some(new_edges.edge_weight[n])
                    };
                    let args = &self.edges.edge_args[e];
                    match new_weight {
                        Some(w) if w == old_weight => {}
                        Some(w) if w < old_weight => {
                            if candidate(env, w, args, here).0 < here {
                                return false;
                            }
                        }
                        _ => {
                            needs_support |= tight(candidate(env, old_weight, args, here).0);
                        }
                    }
                }
                for n in fresh {
                    let args = &new_edges.edge_args[n];
                    if candidate(env, new_edges.edge_weight[n], args, here).0 < here {
                        return false;
                    }
                }
            }
            if needs_support {
                let supported = shape.variants(node as u32).any(|variant| {
                    new_edges.edges(variant).any(|n| {
                        let args = &new_edges.edge_args[n];
                        let (c, strict) = candidate(env, new_edges.edge_weight[n], args, here);
                        tight(c) && strict
                    })
                });
                if !supported {
                    return false;
                }
            }
        }
        true
    }

    /// Byte-level identity against another graph: the goal nodes, variants,
    /// edges (declarations, weight bits, argument hole types), hole types
    /// and where they were interned, overlay environments, monotonicity and
    /// the bits of every completion bound. The walk caches are not compared;
    /// they never change what a walk emits. The patch property test holds
    /// [`DerivationGraph::patch`] to it against a fresh build.
    pub fn identical_to(&self, other: &DerivationGraph) -> bool {
        let bits = |weights: &[Weight]| -> Vec<u64> {
            weights.iter().map(|w| w.value().to_bits()).collect()
        };
        let bounds =
            |graph: &DerivationGraph| graph.heuristic.as_ref().map(|h| bits(&h.node_bound));
        (Arc::ptr_eq(&self.shape, &other.shape) || self.shape.same_as(&other.shape))
            && self.edges.variant_offsets == other.edges.variant_offsets
            && self.edges.edge_decl == other.edges.edge_decl
            && bits(&self.edges.edge_weight) == bits(&other.edges.edge_weight)
            && self.edges.edge_args == other.edges.edge_args
            && self.ty_intro_decl == other.ty_intro_decl
            && self.monotone == other.monotone
            && bounds(self) == bounds(other)
    }

    /// Number of goal nodes.
    pub fn node_count(&self) -> usize {
        self.shape.node_count()
    }

    /// Number of declaration edges across all nodes.
    pub fn edge_count(&self) -> usize {
        self.edges.edge_decl.len()
    }

    /// Number of distinct hole types interned.
    pub fn hole_ty_count(&self) -> usize {
        self.shape.tys.len()
    }

    /// The interned id of a hole type, if the graph knows it.
    pub fn hole_ty(&self, ty: &Ty) -> Option<HoleTyId> {
        self.shape.ty_ids.get(ty).copied()
    }

    /// `true` when the graph carries the A* completion-cost heuristic (i.e.
    /// when its weights are monotone); [`generate_terms`] then runs in A*
    /// mode, otherwise it falls back to the plain best-first walk.
    pub fn has_heuristic(&self) -> bool {
        self.heuristic.is_some()
    }

    /// The admissible lower bound on the weight of the cheapest complete term
    /// of the graph's goal type, or `None` when the graph carries no
    /// heuristic. [`Weight::INFINITY`] means the goal is uninhabited. Every
    /// term [`generate_terms`] emits weighs at least this much — the property
    /// the admissibility tests pin.
    pub fn completion_bound(&self) -> Option<Weight> {
        let heuristic = self.heuristic.as_ref()?;
        Some(
            match self.resolve(self.shape.init_env, self.shape.root_ty) {
                Some((_, node)) => self
                    .hole_params_weight(self.shape.root_ty)
                    .plus(heuristic.node_bound[node as usize]),
                None => Weight::INFINITY,
            },
        )
    }

    /// Weight of the lambda binders a hole of type `ty` introduces when it is
    /// expanded (one `lambda_weight` per uncurried argument).
    fn hole_params_weight(&self, ty: HoleTyId) -> Weight {
        Weight::new(
            self.shape.lambda_weight.value() * self.shape.tys[ty.as_usize()].args.len() as f64,
        )
    }

    /// The sorted member types of an environment: base-store environments are
    /// read through the shared prepared point, overlay environments from the
    /// graph's own snapshot.
    fn env_members(&self, env: EnvId) -> &[SuccinctTyId] {
        let split = self.base.store.env_count();
        let raw = env.as_usize();
        if raw < split {
            self.base.store.env_types(env)
        } else {
            &self.shape.scratch_envs[raw - split]
        }
    }

    /// Looks up an interned environment by its sorted member list, in the
    /// base store first and the overlay snapshot second.
    fn lookup_env(&self, members: &[SuccinctTyId]) -> Option<EnvId> {
        self.base
            .store
            .lookup_env(members)
            .or_else(|| self.shape.scratch_env_ids.get(members).copied())
    }

    /// Resolves the goal of a hole of type `ty` in context environment `ctx`:
    /// the environment at the hole (context extended by the hole's own fresh
    /// binders) and its node, or `None` if the goal is uninhabited — in which
    /// case no expression containing such a hole can ever complete.
    fn resolve(&self, ctx: EnvId, ty: HoleTyId) -> Option<(EnvId, u32)> {
        let info = &self.shape.tys[ty.as_usize()];
        let members = self.env_members(ctx);
        let env = if info
            .arg_succs
            .iter()
            .all(|t| members.binary_search(t).is_ok())
        {
            ctx
        } else {
            let mut merged = members.to_vec();
            merged.extend_from_slice(&info.arg_succs);
            merged.sort_unstable();
            merged.dedup();
            self.lookup_env(&merged)?
        };
        let node = *self.shape.goal_ids.get(&(env, info.ret))?;
        Some((env, node))
    }

    /// Drops the persisted walk caches (hole-goal memo and expansion lists).
    /// Purely a memory/benchmarking lever: the caches are rebuilt on demand
    /// and never affect what a walk emits.
    pub fn clear_walk_caches(&self) {
        lock_recovering(&self.walk_memo).clear();
        lock_recovering(&self.walk_expansions).clear();
    }

    /// Number of persisted hole-goal memo entries (observability for tests
    /// and benchmarks; see [`DerivationGraph::clear_walk_caches`]).
    pub fn walk_memo_len(&self) -> usize {
        lock_recovering(&self.walk_memo).len()
    }
}

/// Locks a mutex, recovering from poisoning: the walk caches only ever hold
/// fully computed, deterministic values, so state abandoned by a panicking
/// thread is safe to adopt.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The hole types interned by one graph build.
///
/// `Ty`-keyed interning is the definition; `by_succ` is a shortcut for
/// callers that already know the σ id of the type they intern.
struct HoleTyTable {
    tys: Vec<HoleTy>,
    ty_ids: HashMap<Ty, HoleTyId>,
    /// Per base-store σ id, the first hole type interned with that image.
    /// Distinct types can share an image, so a hit must be confirmed.
    by_succ: Vec<Option<HoleTyId>>,
}

impl HoleTyTable {
    fn new(base_ty_count: usize) -> Self {
        HoleTyTable {
            tys: Vec::new(),
            ty_ids: HashMap::new(),
            by_succ: vec![None; base_ty_count],
        }
    }

    /// Interns `ty`, whose σ image is known to be `succ`.
    fn intern_arg(
        &mut self,
        store: &mut ScratchStore<'_>,
        ty: &Ty,
        succ: SuccinctTyId,
    ) -> HoleTyId {
        match self.by_succ.get(succ.as_usize()) {
            Some(&Some(id)) if self.tys[id.as_usize()].ty == *ty => id,
            _ => self.intern(store, ty),
        }
    }

    /// Interns `ty` as a hole type, recursively interning the types of its
    /// uncurried arguments first.
    fn intern(&mut self, store: &mut ScratchStore<'_>, ty: &Ty) -> HoleTyId {
        if let Some(&id) = self.ty_ids.get(ty) {
            return id;
        }
        let (arg_tys, _) = ty.uncurry();
        let args: Vec<HoleTyId> = arg_tys.iter().map(|a| self.intern(store, a)).collect();
        let succ = store.sigma(ty);
        let ret = store.ret_of(succ);
        let mut arg_succs: Vec<SuccinctTyId> =
            args.iter().map(|&a| self.tys[a.as_usize()].succ).collect();
        arg_succs.sort_unstable();
        arg_succs.dedup();
        let id = HoleTyId(self.tys.len() as u32);
        self.tys.push(HoleTy {
            ty: ty.clone(),
            ret,
            args: args.into(),
            succ,
            arg_succs,
        });
        self.ty_ids.insert(ty.clone(), id);
        if let Some(slot @ None) = self.by_succ.get_mut(succ.as_usize()) {
            *slot = Some(id);
        }
        id
    }
}

/// Resolves every variant's `Select` list into the packed [`EdgeSlab`], in
/// variant order and, within a variant, in `Select` order.
fn resolve_edges(
    prepared: &PreparedEnv,
    decl_args: &[Option<Arc<[HoleTyId]>>],
    variant_wanted: &[SuccinctTyId],
) -> EdgeSlab {
    let mut slab = EdgeSlab::with_capacity(variant_wanted.len(), 0);
    for &wanted in variant_wanted {
        for &decl_idx in prepared.select(wanted) {
            let args = decl_args[decl_idx].clone().expect("interned in pass 1");
            slab.push(decl_idx as u32, prepared.decl_weight[decl_idx], args);
        }
        slab.variant_offsets.push(slab.edge_decl.len() as u32);
    }
    slab
}

/// Computes the per-node completion bounds by a backward Dijkstra over the
/// graph's hyperedges (Knuth's algorithm: a node is finalized when popped,
/// and a hyperedge relaxes its head once every tail goal is finalized).
/// Requires monotone (non-negative) weights — the caller only invokes it
/// when [`DerivationGraph::monotone`] holds.
fn compute_heuristic(graph: &DerivationGraph) -> Heuristic {
    let shape = &*graph.shape;
    let node_count = shape.node_count();

    // Candidate binder types per succinct type: a binder only ever enters
    // scope as a hole's parameter, so its type is an interned hole type that
    // appears in some `args` list.
    let mut is_param = vec![false; shape.tys.len()];
    for info in &shape.tys {
        for &a in info.args.iter() {
            is_param[a.as_usize()] = true;
        }
    }
    let mut binder_tys: IdHashMap<SuccinctTyId, Vec<HoleTyId>> = IdHashMap::default();
    for (i, info) in shape.tys.iter().enumerate() {
        if is_param[i] {
            binder_tys
                .entry(info.succ)
                .or_default()
                .push(HoleTyId(i as u32));
        }
    }

    // A hyperedge waiting for its tail goals: `acc` starts at the head weight
    // plus the binder-parameter weights of the arguments and accumulates the
    // finalized tail bounds; when `remaining` occurrences are all finalized,
    // `acc` is a candidate bound for `head`.
    struct HyperEdge {
        head: u32,
        acc: Weight,
        remaining: usize,
    }
    let mut edges: Vec<HyperEdge> = Vec::new();
    // Edge occurrences per tail node (an edge appears once per occurrence of
    // the node among its argument goals).
    let mut tail_of: Vec<Vec<u32>> = vec![Vec::new(); node_count];
    // Initial relaxations from edges with no (live) arguments.
    let mut ready: Vec<(Weight, u32)> = Vec::new();
    let mut resolve_memo: IdHashMap<(EnvId, HoleTyId), Option<(EnvId, u32)>> = IdHashMap::default();

    for (v, &env_v) in shape.node_envs.iter().enumerate().take(node_count) {
        for vi in shape.variants(v as u32) {
            let decl_edges = graph.edges.edges(vi).map(|e| {
                (
                    graph.edges.edge_weight[e],
                    Arc::clone(&graph.edges.edge_args[e]),
                )
            });
            let binder_edges = binder_tys
                .get(&shape.variant_wanted[vi])
                .into_iter()
                .flatten()
                .map(|&t| {
                    (
                        shape.lambda_weight,
                        Arc::clone(&shape.tys[t.as_usize()].args),
                    )
                });
            'edge: for (head_weight, args) in decl_edges.chain(binder_edges) {
                let mut acc = head_weight;
                let mut tails: Vec<u32> = Vec::with_capacity(args.len());
                for &a in args.iter() {
                    let resolved = *resolve_memo
                        .entry((env_v, a))
                        .or_insert_with(|| graph.resolve(env_v, a));
                    // An argument goal without a node can never complete, so
                    // the whole edge contributes nothing (= ∞).
                    let Some((_, tail)) = resolved else {
                        continue 'edge;
                    };
                    acc = acc.plus(graph.hole_params_weight(a));
                    tails.push(tail);
                }
                if tails.is_empty() {
                    ready.push((acc, v as u32));
                } else {
                    let idx = edges.len() as u32;
                    let remaining = tails.len();
                    for tail in tails {
                        tail_of[tail as usize].push(idx);
                    }
                    edges.push(HyperEdge {
                        head: v as u32,
                        acc,
                        remaining,
                    });
                }
            }
        }
    }

    let mut node_bound = vec![Weight::INFINITY; node_count];
    let mut finalized = vec![false; node_count];
    let mut queue: BinaryHeap<Reverse<(Weight, u32)>> = BinaryHeap::new();
    for (bound, v) in ready {
        if bound < node_bound[v as usize] {
            node_bound[v as usize] = bound;
            queue.push(Reverse((bound, v)));
        }
    }
    while let Some(Reverse((bound, v))) = queue.pop() {
        if finalized[v as usize] {
            continue;
        }
        finalized[v as usize] = true;
        debug_assert_eq!(bound, node_bound[v as usize]);
        for &e in &tail_of[v as usize] {
            let edge = &mut edges[e as usize];
            edge.acc = edge.acc.plus(bound);
            edge.remaining -= 1;
            if edge.remaining == 0 && edge.acc < node_bound[edge.head as usize] {
                node_bound[edge.head as usize] = edge.acc;
                queue.push(Reverse((edge.acc, edge.head)));
            }
        }
    }

    Heuristic {
        node_bound: node_bound.into(),
    }
}

/// One memoized pattern of a goal node in a concrete environment: the
/// succinct head type binders are matched against, plus the surviving
/// (non-dead) declaration-headed successors. Declaration-only (binder heads
/// depend on the scope at the hole and are enumerated per pop), which keeps
/// the cache `Send + Sync` so it can persist on the shared graph.
#[derive(Debug)]
struct CachedVariant {
    wanted: SuccinctTyId,
    edges: Vec<CachedEdge>,
}

/// One surviving declaration-headed successor of a cached variant.
/// `args_bound` is the precomputed `Σ h` contribution of the edge's argument
/// holes (zero without heuristic).
#[derive(Debug)]
struct CachedEdge {
    decl: u32,
    weight: Weight,
    args: Arc<[HoleTyId]>,
    args_bound: Weight,
}

/// The head of a partial-expression node.
#[derive(Debug, Clone)]
enum Head {
    /// A declaration, by index into the original environment.
    Decl(u32),
    /// A lambda binder in scope, by name.
    Binder(Arc<str>),
}

/// A partial expression over the graph. Subtrees are shared (`Arc`): replacing
/// the first hole rebuilds only the spine above it.
#[derive(Debug)]
enum PExpr {
    /// A typed hole together with the environment of its context (the initial
    /// environment extended by every binder on the path to the hole).
    Hole { ty: HoleTyId, ctx: EnvId },
    /// An application node `λ params . head(args…)`.
    Node {
        params: Arc<[(Param, HoleTyId)]>,
        head: Head,
        args: Vec<Arc<PExpr>>,
    },
}

impl PartialExpr for PExpr {
    fn children(&self) -> Option<&[Arc<Self>]> {
        match self {
            PExpr::Hole { .. } => None,
            PExpr::Node { args, .. } => Some(args),
        }
    }

    fn take_children(&mut self) -> Vec<Arc<Self>> {
        match self {
            PExpr::Hole { .. } => Vec::new(),
            PExpr::Node { args, .. } => std::mem::take(args),
        }
    }

    fn with_children(&self, children: Vec<Arc<Self>>) -> Self {
        match self {
            PExpr::Hole { .. } => unreachable!("holes have no children to replace"),
            PExpr::Node { params, head, .. } => PExpr::Node {
                params: Arc::clone(params),
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

/// Finds the first (leftmost, outermost-first) hole; `scope` is left holding
/// the binders on the path to it, and the returned depth counts its `Node`
/// ancestors. Iterative — the search descends one frame per *term depth*
/// level, which is unbounded (see [`PExpr`]'s `Drop`).
fn find_first_hole<'a>(
    expr: &'a PExpr,
    scope: &mut Vec<&'a (Param, HoleTyId)>,
) -> Option<(HoleTyId, EnvId, u32)> {
    // Frames: a node being scanned, the next child index, and the scope
    // length to restore when backtracking past it.
    let mut stack: Vec<(&'a PExpr, usize, usize)> = Vec::new();
    let mut current = expr;
    loop {
        match current {
            PExpr::Hole { ty, ctx } => return Some((*ty, *ctx, stack.len() as u32)),
            PExpr::Node { params, .. } => {
                let mark = scope.len();
                scope.extend(params.iter());
                stack.push((current, 0, mark));
            }
        }
        // Advance to the next unvisited child, backtracking out of exhausted
        // nodes (and unwinding their scope contribution).
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

/// Converts a hole-free expression to a term, resolving declaration heads
/// against the original environment. Iterative post-order — child terms
/// accumulate on a value stack and are drained when their node completes.
fn to_term(expr: &PExpr, env: &TypeEnv) -> Term {
    enum Step<'a> {
        Visit(&'a PExpr),
        Build(&'a PExpr),
    }
    let mut steps = vec![Step::Visit(expr)];
    let mut built: Vec<Term> = Vec::new();
    while let Some(step) = steps.pop() {
        match step {
            Step::Visit(e) => match e {
                PExpr::Hole { .. } => unreachable!("complete expressions have no holes"),
                PExpr::Node { args, .. } => {
                    steps.push(Step::Build(e));
                    // Children pushed in reverse so they complete left to
                    // right, landing on `built` in argument order.
                    for a in args.iter().rev() {
                        steps.push(Step::Visit(a));
                    }
                }
            },
            Step::Build(e) => {
                let PExpr::Node { params, head, args } = e else {
                    unreachable!("only nodes are scheduled for building")
                };
                let arg_terms = built.split_off(built.len() - args.len());
                built.push(Term {
                    params: params.iter().map(|(p, _)| p.clone()).collect(),
                    head: match head {
                        Head::Decl(i) => env.decls()[*i as usize].name.clone(),
                        Head::Binder(name) => name.to_string(),
                    },
                    args: arg_terms,
                });
            }
        }
    }
    built.pop().expect("one term per complete expression")
}

/// One link of an entry's *pedigree*: the pop key of the expansion that
/// created it. A popped entry's pop key is its accumulated weight plus its
/// own creation key — parent's pop key and index within that expansion —
/// recursively up to the root (represented by `None`).
///
/// In the plain best-first walk with monotone weights, entries pop in
/// nondecreasing `(weight, creation order)` order, and an entry's creation
/// order is exactly `(parent's pop order, expansion index)`. Comparing
/// pedigrees therefore reproduces the best-first walk's global FIFO
/// tie-break without a shared counter — which is what lets the A* walk,
/// whose *exploration* order is different, still emit equal-weight
/// completions in the identical order. (Monotonicity matters: with negative
/// weights a cheap entry can be created *after* a heavier one was already
/// popped, so creation counters and pop keys disagree — but the A* mode is
/// only ever active on monotone graphs.) Ancestor chains are `Arc`-shared,
/// so a pedigree costs one allocation per pop.
struct Pedigree {
    g: Weight,
    idx: u64,
    parent: Option<Arc<Pedigree>>,
}

impl Drop for Pedigree {
    fn drop(&mut self) {
        // Unlink the ancestor chain iteratively: chains grow with expansion
        // count along a lineage (not term depth), so the default recursive
        // Drop could overflow the stack on long walks. Stop at the first
        // ancestor another chain still shares.
        let mut parent = self.parent.take();
        while let Some(node) = parent {
            match Arc::try_unwrap(node) {
                Ok(mut node) => parent = node.parent.take(),
                Err(_) => break,
            }
        }
    }
}

/// Compares two parent pop keys; `None` is the root, whose pop precedes
/// everything (it is the only entry in the queue when the walk starts).
///
/// The defining recursion is `(g, parent pop key, idx)` lexicographically;
/// flattened, that is: weights leaf-to-root first (the leafmost difference
/// decides), then — only when every weight ties down to a shared anchor —
/// creation indices anchor-side-first. Both phases run iteratively because
/// chain length tracks expansion count and recursion could overflow the
/// stack (weights tie wholesale under
/// [`WeightMode::NoWeights`](crate::WeightMode::NoWeights)).
fn cmp_pop_key(a: &Option<Arc<Pedigree>>, b: &Option<Arc<Pedigree>>) -> std::cmp::Ordering {
    use std::cmp::Ordering;

    // Phase 1: weights, leaf to root, stopping at a shared ancestor (or the
    // root on both sides). Chains advance in lockstep, so a length mismatch
    // surfaces as (None, Some) before any anchor is reached.
    let (mut pa, mut pb) = (a, b);
    loop {
        match (pa, pb) {
            (None, None) => break,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(na), Some(nb)) => {
                if Arc::ptr_eq(na, nb) {
                    break;
                }
                match na.g.cmp(&nb.g) {
                    Ordering::Equal => {
                        pa = &na.parent;
                        pb = &nb.parent;
                    }
                    other => return other,
                }
            }
        }
    }

    // Phase 2: every weight tied — replay the (equal-length) prefixes in
    // reverse so creation indices decide anchor-side-first, exactly as the
    // recursive unwinding would. Only reached on full weight ties, so the
    // allocation is rare.
    let mut pairs: Vec<(&Arc<Pedigree>, &Arc<Pedigree>)> = Vec::new();
    let (mut pa, mut pb) = (a, b);
    while let (Some(na), Some(nb)) = (pa, pb) {
        if Arc::ptr_eq(na, nb) {
            break;
        }
        pairs.push((na, nb));
        pa = &na.parent;
        pb = &nb.parent;
    }
    for (na, nb) in pairs.into_iter().rev() {
        match na.idx.cmp(&nb.idx) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Priority-queue entry. The search key is `priority` — the accumulated
/// weight `g` in best-first mode, the completion bound `g + Σ h(open holes)`
/// in A* mode — followed by the mode's tie-break: A* entries replay the
/// best-first creation order through `(g, parent pop key, idx)` (see
/// [`Pedigree`]); best-first entries use the global creation counter `seq`
/// directly, which is exact even when negative weight overrides make
/// creation counters and pop keys disagree. `holes` and `depth` are
/// maintained incrementally so completeness and depth checks are O(1).
struct Entry {
    priority: Weight,
    g: Weight,
    /// `Σ h` over the open holes (exactly zero when `holes == 0`, and in
    /// best-first mode).
    hsum: Weight,
    /// `true` in A* mode; selects the tie-break and is uniform across a walk.
    astar: bool,
    seq: u64,
    parent: Option<Arc<Pedigree>>,
    idx: u64,
    expr: Arc<PExpr>,
    holes: u32,
    depth: u32,
}

impl Entry {
    fn search_key_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then_with(|| {
            if self.astar {
                self.g
                    .cmp(&other.g)
                    .then_with(|| cmp_pop_key(&self.parent, &other.parent))
                    .then_with(|| self.idx.cmp(&other.idx))
            } else {
                self.seq.cmp(&other.seq)
            }
        })
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.search_key_cmp(other) == std::cmp::Ordering::Equal
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
        // `BinaryHeap` pops the maximum; reverse so the smallest search key
        // pops first.
        other.search_key_cmp(self)
    }
}

/// Resolution and completion bound of a hole, memoized per `(context, type)`.
#[derive(Debug, Clone, Copy)]
struct HoleGoal {
    /// The hole's goal, or `None` when it is dead — no node at all, or
    /// (under the heuristic) a node whose completion bound is `∞`.
    node: Option<(EnvId, u32)>,
    /// Completion lower bound of the hole: its binder-parameter weight plus
    /// its node's bound. Zero in best-first mode (the bound is unused there);
    /// [`Weight::INFINITY`] when dead in either mode.
    cost: Weight,
}

/// Granularity of the dyadic grid hole costs are rounded *down* onto
/// (`2^-24` ≈ 6e-8). Rounding down keeps every cost an under-estimate
/// (admissibility is preserved), and sums and differences of grid multiples
/// below `2^29` are exact in `f64` — so the incrementally maintained
/// `Σ h` never drifts, and two paths summing the same memoized costs in
/// different orders reach bit-identical `Σ h` values. The loss of pruning
/// precision (≤ `holes · 2^-24`) is orders of magnitude below the smallest
/// gap between distinct realizable weight sums.
const COST_GRID: f64 = (1u64 << 24) as f64;

/// Looks up (or computes) the [`HoleGoal`] of a hole of type `ty` in context
/// environment `ctx`.
fn hole_goal(
    graph: &DerivationGraph,
    heuristic: Option<&Heuristic>,
    memo: &mut WalkMemo,
    ctx: EnvId,
    ty: HoleTyId,
) -> HoleGoal {
    *memo.entry((ctx, ty)).or_insert_with(|| {
        let resolved = graph.resolve(ctx, ty);
        match heuristic {
            None => HoleGoal {
                node: resolved,
                cost: if resolved.is_some() {
                    Weight::ZERO
                } else {
                    Weight::INFINITY
                },
            },
            Some(h) => match resolved {
                Some((env, node)) if h.node_bound[node as usize].is_finite() => {
                    let exact = graph
                        .hole_params_weight(ty)
                        .plus(h.node_bound[node as usize]);
                    HoleGoal {
                        node: Some((env, node)),
                        cost: Weight::new((exact.value() * COST_GRID).floor() / COST_GRID),
                    }
                }
                _ => HoleGoal {
                    node: None,
                    cost: Weight::INFINITY,
                },
            },
        }
    })
}

/// The branch-and-bound cutoff for a given n-th-best-candidate bound.
///
/// In best-first mode priorities are accumulated weights computed by the
/// exact operation sequence the unindexed oracle uses, so the comparison is
/// strict. In A* mode a priority is `g + hsum`: `hsum` itself is exact
/// (grid-rounded summands, see [`COST_GRID`]), but `g` is off-grid, so that
/// one final addition still rounds — and a partial expression whose true
/// bound ties the cutoff exactly (common: symmetric terms share
/// bit-identical weights) must not be pruned by that last half-ulp, or a
/// tied term the oracle emits could be lost. Pruning less is always
/// output-safe, so the A* cutoff is inflated by a margin that dwarfs the
/// final-addition rounding (≲ 1e-12 relative) while staying far below both
/// the grid step and the smallest gap between distinct realizable weight
/// sums.
fn prune_cutoff(bound: Weight, astar: bool) -> Weight {
    if astar {
        Weight::new(bound.value() + (bound.value().abs() * 1e-9 + 1e-9))
    } else {
        bound
    }
}

/// Runs term reconstruction over a derivation graph: an A* walk ordered by
/// `g + Σ h(open holes)` when the graph carries its completion-cost
/// heuristic, the plain best-first walk of [`generate_terms_best_first`]
/// otherwise (i.e. when negative weight overrides break monotonicity).
///
/// The returned terms are byte-identical (same terms, same weights, same
/// order) to what [`generate_terms_unindexed`](crate::generate_terms_unindexed)
/// produces from the same pattern set; the heuristic only changes which
/// partial expressions are *explored*, never what is emitted. `outcome.steps`
/// counts queue pops and is therefore typically much smaller than both the
/// unindexed and the best-first walk's; `outcome.pruned_enqueues` counts the
/// successors the bound discarded before they ever entered the queue.
pub fn generate_terms(
    graph: &DerivationGraph,
    env: &TypeEnv,
    n: usize,
    limits: &GenerateLimits,
) -> GenerateOutcome {
    walk(graph, env, n, limits, graph.heuristic.is_some())
}

/// Runs term reconstruction in plain best-first (accumulated-weight) order,
/// ignoring the heuristic even when the graph carries one.
///
/// This is the walk [`generate_terms`] falls back to on non-monotone graphs;
/// it is public as the measurable "before" of the A* refactor (the
/// `gent_ablation` benchmarks compare the two on the same graph) and returns
/// byte-identical terms — only `steps`/`pruned_enqueues` differ.
pub fn generate_terms_best_first(
    graph: &DerivationGraph,
    env: &TypeEnv,
    n: usize,
    limits: &GenerateLimits,
) -> GenerateOutcome {
    walk(graph, env, n, limits, false)
}

fn walk(
    graph: &DerivationGraph,
    env: &TypeEnv,
    n: usize,
    limits: &GenerateLimits,
    astar: bool,
) -> GenerateOutcome {
    let start = Instant::now();
    let mut outcome = GenerateOutcome {
        astar,
        ..GenerateOutcome::default()
    };
    if n == 0 {
        return outcome;
    }

    let mut state = WalkState::new(graph, astar);
    let mut bounded = Bounded {
        n,
        candidates: BinaryHeap::new(),
    };
    while state.emitted.len() < n
        && state
            .step_impl(graph, env, limits, &start, Some(&mut bounded))
            .is_some()
    {}
    state.merge_caches_into(graph);

    outcome.steps = state.steps;
    outcome.pruned_enqueues = state.pruned_enqueues;
    outcome.truncated = state.truncated || state.time_truncated || state.cancelled;
    outcome.terms = state.emitted.into_iter().map(|e| e.term).collect();
    outcome
}

/// Branch-and-bound control of an n-bounded walk: the target count and the
/// weights of the `n` best complete candidates enqueued so far (max-heap).
/// Once full, any expression whose completion bound exceeds the top can
/// never be emitted among the first `n`.
///
/// Streamed walks carry no `Bounded` — with no fixed `n` there is no cutoff
/// — and therefore never prune. That is output-safe *and* statistics-safe:
/// a pruned entry's bound exceeds the cutoff, which is at least the n-th
/// emission's weight, and (in the only mode that prunes, A* over a monotone
/// graph) entries pop in nondecreasing priority order — so no pruned entry
/// can pop strictly before the n-th emission. Pruning therefore changes
/// neither the emission sequence nor the pop count at any emission, which
/// is what keeps bounded and streamed trajectories byte-identical.
struct Bounded {
    n: usize,
    candidates: BinaryHeap<Weight>,
}

/// One term a walk has emitted, snapshotting the walk statistics at the
/// moment of emission. The snapshot is what lets a suspended walk report,
/// for any `n` inside its emitted prefix, exactly the `steps`/`truncated`
/// a from-scratch walk stopped at that `n` would report.
#[derive(Clone)]
pub(crate) struct EmittedTerm {
    pub(crate) term: RankedTerm,
    /// Cumulative queue pops up to and including the pop that emitted this
    /// term.
    pub(crate) steps: usize,
    /// Whether a deterministic budget (frontier cap) had already truncated
    /// the walk when this term was emitted.
    pub(crate) truncated: bool,
}

/// The complete, persistable state of one reconstruction walk: the frontier
/// heap, the per-walk memo caches, the tie-break counters and the emission
/// log — the former `walk` locals, extracted so a walk can be suspended
/// after any emission and resumed later. This is the engine shared by the
/// n-bounded [`generate_terms`] / [`generate_terms_best_first`] entry points
/// and the streamed [`Session::query_stream`](crate::Session::query_stream)
/// API.
///
/// A `WalkState` advances exclusively through [`WalkState::step_streamed`]
/// (or the module-internal bounded variant): one call pops entries until a
/// term is emitted (`Some`) or the walk stops (`None` — frontier exhausted,
/// step budget hit, or wall-clock expired; the flag accessors distinguish
/// the causes). Every state transition is deterministic except wall-clock
/// truncation, so a suspended state whose `time_truncated` flag is unset
/// replays exactly what a from-scratch walk would have done — the invariant
/// the session layer's resume discipline is built on (a time-truncated
/// state is never persisted).
pub(crate) struct WalkState {
    queue: BinaryHeap<Entry>,
    memo: WalkMemo,
    expansions: ExpansionCache,
    seeded_memo: usize,
    seeded_expansions: usize,
    seq: u64,
    steps: usize,
    pruned_enqueues: usize,
    emitted: Vec<EmittedTerm>,
    truncated: bool,
    time_truncated: bool,
    cancelled: bool,
    exhausted: bool,
    astar: bool,
    /// Whether this walk runs in the graph's natural mode and therefore
    /// exchanges warm hole-goal/expansion caches with it.
    persist: bool,
}

impl WalkState {
    /// Seeds a walk over `graph`: clones the persisted per-walk caches (when
    /// running in the graph's natural mode), resolves the root goal and
    /// enqueues the root hole. `astar` selects the queue order — callers
    /// pass [`DerivationGraph::has_heuristic`] for the natural mode.
    pub(crate) fn new(graph: &DerivationGraph, astar: bool) -> WalkState {
        // Hole-goal memo and expansion cache. Both are keyed by graph-local
        // ids only and their values are deterministic, so when the walk runs
        // in the graph's natural mode (the memoized costs depend on whether
        // the heuristic is consulted) it *clones* the caches persisted on
        // the graph (cheap: `Copy` values and `Arc` handles), extends them,
        // and merges them back when it suspends or finishes — repeated
        // same-goal queries skip rebuilding them from scratch, and
        // concurrent walks each start warm (a take-based scheme would leave
        // the second concurrent walk cold). A walk forced into the other
        // mode (e.g. [`generate_terms_best_first`] on a heuristic-carrying
        // graph) uses private caches and leaves the persisted ones
        // untouched.
        let persist = astar == graph.heuristic.is_some();
        let mut memo: WalkMemo = if persist {
            lock_recovering(&graph.walk_memo).clone()
        } else {
            WalkMemo::default()
        };
        let expansions: ExpansionCache = if persist {
            lock_recovering(&graph.walk_expansions).clone()
        } else {
            ExpansionCache::default()
        };
        // The merge back is skipped when the walk added nothing — after
        // warm-up the caches are saturated for a goal, and re-inserting
        // every unchanged entry under the mutex would serialize concurrent
        // warm walks on no-op work.
        let seeded_memo = memo.len();
        let seeded_expansions = expansions.len();

        let heuristic = if astar {
            graph.heuristic.as_ref()
        } else {
            None
        };
        let root_goal = hole_goal(
            graph,
            heuristic,
            &mut memo,
            graph.shape.init_env,
            graph.shape.root_ty,
        );
        let mut queue: BinaryHeap<Entry> = BinaryHeap::new();
        queue.push(Entry {
            // An uninhabited root makes this ∞; the pop bails out before any
            // arithmetic touches it.
            priority: root_goal.cost,
            g: Weight::ZERO,
            hsum: root_goal.cost,
            astar,
            seq: 0,
            parent: None,
            idx: 0,
            expr: Arc::new(PExpr::Hole {
                ty: graph.shape.root_ty,
                ctx: graph.shape.init_env,
            }),
            holes: 1,
            depth: 1,
        });

        WalkState {
            queue,
            memo,
            expansions,
            seeded_memo,
            seeded_expansions,
            seq: 0,
            steps: 0,
            pruned_enqueues: 0,
            emitted: Vec::new(),
            truncated: false,
            time_truncated: false,
            cancelled: false,
            exhausted: false,
            astar,
            persist,
        }
    }

    /// The emission log so far: every term this walk has popped, oldest
    /// first, with per-emission statistics snapshots.
    pub(crate) fn emitted(&self) -> &[EmittedTerm] {
        &self.emitted
    }

    /// Cumulative queue pops across all legs of this walk.
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Successors discarded by branch-and-bound before entering the queue
    /// (always zero for streamed walks, which never prune).
    pub(crate) fn pruned_enqueues(&self) -> usize {
        self.pruned_enqueues
    }

    /// `true` when this walk runs in A* order.
    pub(crate) fn astar(&self) -> bool {
        self.astar
    }

    /// `true` once a *deterministic* budget (step cap or frontier cap)
    /// truncated the walk.
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }

    /// `true` once a wall-clock limit truncated the walk. A time-truncated
    /// state may have lost part of an expansion and must never be resumed.
    pub(crate) fn time_truncated(&self) -> bool {
        self.time_truncated
    }

    /// `true` once a [`CancelToken`](crate::CancelToken) stopped the walk.
    /// The stop happens at a pop boundary (the popped entry is re-pushed),
    /// so the frontier itself stays consistent — but *when* the flag landed
    /// is a property of the moment, so the session layer treats a cancelled
    /// state like a time-truncated one and never persists it.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// `true` once the frontier drained: the emission log is the complete
    /// enumeration.
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Advances a streamed (unbounded, unpruned) walk by one emission,
    /// metering wall-clock time against `leg_start` — resumed walks get a
    /// fresh leg, so a suspended walk's earlier legs do not count against
    /// the current query's budget.
    pub(crate) fn step_streamed(
        &mut self,
        graph: &DerivationGraph,
        env: &TypeEnv,
        limits: &GenerateLimits,
        leg_start: &Instant,
    ) -> Option<&RankedTerm> {
        self.step_impl(graph, env, limits, leg_start, None)
    }

    /// The walk engine: pops and expands entries until a term is emitted
    /// (returned, and appended to the emission log) or the walk stops
    /// (`None`; the flags say why). `bounded` enables the branch-and-bound
    /// prunings of the n-bounded entry points.
    fn step_impl(
        &mut self,
        graph: &DerivationGraph,
        env: &TypeEnv,
        limits: &GenerateLimits,
        leg_start: &Instant,
        mut bounded: Option<&mut Bounded>,
    ) -> Option<&RankedTerm> {
        let heuristic = if self.astar {
            graph.heuristic.as_ref()
        } else {
            None
        };
        loop {
            let Some(entry) = self.queue.pop() else {
                self.exhausted = true;
                return None;
            };
            if self.steps >= limits.max_steps {
                // Budget stops re-push the popped entry: the heap's order is
                // total and deterministic, so restoring the frontier content
                // restores the exact trajectory on resume.
                self.queue.push(entry);
                self.truncated = true;
                return None;
            }
            if let Some(limit) = limits.time_limit {
                if leg_start.elapsed() > limit {
                    self.queue.push(entry);
                    self.time_truncated = true;
                    return None;
                }
            }
            if let Some(cancel) = &limits.cancel {
                if cancel.is_cancelled() {
                    self.queue.push(entry);
                    self.cancelled = true;
                    return None;
                }
            }
            self.steps += 1;

            if entry.holes == 0 {
                self.emitted.push(EmittedTerm {
                    term: RankedTerm {
                        term: to_term(&entry.expr, env),
                        weight: entry.g,
                    },
                    steps: self.steps,
                    truncated: self.truncated,
                });
                return self.emitted.last().map(|e| &e.term);
            }

            // A partial expression whose completion bound (accumulated
            // weight in best-first mode) exceeds the n-th best complete
            // candidate cannot contribute output; skip its expansion.
            if let Some(ctl) = bounded.as_deref_mut() {
                if graph.monotone && ctl.candidates.len() >= ctl.n {
                    if let Some(&bound) = ctl.candidates.peek() {
                        if entry.priority > prune_cutoff(bound, self.astar) {
                            continue;
                        }
                    }
                }
            }

            let mut scope: Vec<&(Param, HoleTyId)> = Vec::new();
            let (hole_ty, ctx, ancestors) = find_first_hole(&entry.expr, &mut scope)
                .expect("entry with holes > 0 contains a hole");
            let filled = hole_goal(graph, heuristic, &mut self.memo, ctx, hole_ty);
            let Some((node_env, node)) = filled.node else {
                // Dead hole (only reachable from the root; successors
                // containing dead holes are pruned at creation).
                continue;
            };
            let filled_cost = filled.cost;

            let info = &graph.shape.tys[hole_ty.as_usize()];
            let fresh: Vec<(Param, HoleTyId)> = info
                .args
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let ty = graph.shape.tys[a.as_usize()].ty.clone();
                    (Param::new(format!("var{}", scope.len() + i + 1), ty), a)
                })
                .collect();
            let params_weight = Weight::new(graph.shape.lambda_weight.value() * fresh.len() as f64);
            let params: Arc<[(Param, HoleTyId)]> = fresh.into();

            // This pop's key becomes the pedigree of every successor it
            // creates (the A* tie-break; best-first mode breaks ties on seq
            // and skips the allocation entirely).
            let pedigree = self.astar.then(|| {
                Arc::new(Pedigree {
                    g: entry.g,
                    idx: entry.idx,
                    parent: entry.parent.clone(),
                })
            });

            // Declaration-headed successors of this (environment, goal)
            // pair, dead-checked and bound-summed once, then reused by every
            // later pop of the same pair (and, via the persisted cache, by
            // later walks).
            if !self.expansions.contains_key(&(node_env, node)) {
                let memo = &mut self.memo;
                let built: Arc<[CachedVariant]> = graph
                    .shape
                    .variants(node)
                    .map(|vi| CachedVariant {
                        wanted: graph.shape.variant_wanted[vi],
                        edges: graph
                            .edges
                            .edges(vi)
                            .filter_map(|e| {
                                // Dead-hole pruning: an edge whose argument
                                // goals include an uncompletable one can
                                // never finish, in this environment or any
                                // extension reached through this hole.
                                let args = &graph.edges.edge_args[e];
                                let mut args_bound = Weight::ZERO;
                                for &a in args.iter() {
                                    let goal = hole_goal(graph, heuristic, memo, node_env, a);
                                    if !goal.cost.is_finite() {
                                        return None;
                                    }
                                    args_bound = args_bound.plus(goal.cost);
                                }
                                Some(CachedEdge {
                                    decl: graph.edges.edge_decl[e],
                                    weight: graph.edges.edge_weight[e],
                                    args: Arc::clone(args),
                                    args_bound,
                                })
                            })
                            .collect(),
                    })
                    .collect();
                self.expansions.insert((node_env, node), built);
            }
            let cached = Arc::clone(&self.expansions[&(node_env, node)]);

            let mut produced = 0usize;
            'expand: for variant in cached.iter() {
                // Declaration heads first, then binders in scope order — the
                // enumeration order of the unindexed walk. Declaration heads
                // carry their precomputed argument bound; binder heads are
                // marked `None` and checked in the loop body.
                let decl_heads = variant.edges.iter().map(|edge| {
                    (
                        Head::Decl(edge.decl),
                        edge.weight,
                        edge.args.clone(),
                        Some(edge.args_bound),
                    )
                });
                let binder_heads = scope
                    .iter()
                    .copied()
                    .chain(params.iter())
                    .filter(|(_, ty)| graph.shape.tys[ty.as_usize()].succ == variant.wanted)
                    .map(|(param, ty)| {
                        (
                            Head::Binder(Arc::from(param.name.as_str())),
                            graph.shape.lambda_weight,
                            Arc::clone(&graph.shape.tys[ty.as_usize()].args),
                            None,
                        )
                    });

                for (head, head_weight, arg_tys, decl_bound) in decl_heads.chain(binder_heads) {
                    produced += 1;
                    // Re-check the wall-clock budget periodically so one
                    // step cannot overshoot the reconstruction limit. A
                    // mid-expansion stop may leave a partially expanded pop
                    // behind, which is why time-truncated states are never
                    // resumed.
                    if produced.is_multiple_of(128) {
                        if let Some(limit) = limits.time_limit {
                            if leg_start.elapsed() > limit {
                                self.time_truncated = true;
                                return None;
                            }
                        }
                    }
                    if self.queue.len() >= limits.max_frontier {
                        // Stop enqueueing for this pop only — like the
                        // unindexed walk, the queue keeps draining so
                        // completions already enqueued are still emitted.
                        self.truncated = true;
                        break 'expand;
                    }

                    // Dead-hole pruning and Σ h for binder-headed successors
                    // (declaration edges carry both precomputed).
                    let args_bound = match decl_bound {
                        Some(bound) => bound,
                        None => {
                            let mut bound = Weight::ZERO;
                            let mut dead = false;
                            for &a in arg_tys.iter() {
                                let goal = hole_goal(graph, heuristic, &mut self.memo, node_env, a);
                                if !goal.cost.is_finite() {
                                    dead = true;
                                    break;
                                }
                                bound = bound.plus(goal.cost);
                            }
                            if dead {
                                continue;
                            }
                            bound
                        }
                    };

                    let new_weight = entry.g.plus(params_weight.plus(head_weight));
                    let new_holes = entry.holes - 1 + arg_tys.len() as u32;
                    // Pin `Σ h` of complete expressions to exactly zero so
                    // their priority is bit-for-bit their weight, untouched
                    // by the rounding of the incremental bound updates.
                    let new_hsum = if !self.astar || new_holes == 0 {
                        Weight::ZERO
                    } else {
                        Weight::new(entry.hsum.value() - filled_cost.value() + args_bound.value())
                    };
                    let new_priority = new_weight.plus(new_hsum);
                    if let Some(ctl) = bounded.as_deref_mut() {
                        if graph.monotone && ctl.candidates.len() >= ctl.n {
                            if let Some(&bound) = ctl.candidates.peek() {
                                if new_priority > prune_cutoff(bound, self.astar) {
                                    self.pruned_enqueues += 1;
                                    continue;
                                }
                            }
                        }
                    }

                    // Depth: the only lengthened path runs through the hole.
                    let replacement_depth = if arg_tys.is_empty() { 1 } else { 2 };
                    let new_depth = entry.depth.max(ancestors + replacement_depth);
                    if let Some(max_depth) = limits.max_depth {
                        if new_depth as usize > max_depth {
                            continue;
                        }
                    }

                    if let Some(ctl) = bounded.as_deref_mut() {
                        if graph.monotone && new_holes == 0 {
                            if ctl.candidates.len() < ctl.n {
                                ctl.candidates.push(new_weight);
                            } else if let Some(mut top) = ctl.candidates.peek_mut() {
                                if new_weight < *top {
                                    *top = new_weight;
                                }
                            }
                        }
                    }

                    let replacement = Arc::new(PExpr::Node {
                        params: Arc::clone(&params),
                        head,
                        args: arg_tys
                            .iter()
                            .map(|&a| {
                                Arc::new(PExpr::Hole {
                                    ty: a,
                                    ctx: node_env,
                                })
                            })
                            .collect(),
                    });
                    let new_expr = replace_first_hole(&entry.expr, &replacement);
                    self.seq += 1;
                    self.queue.push(Entry {
                        priority: new_priority,
                        g: new_weight,
                        hsum: new_hsum,
                        astar: self.astar,
                        seq: self.seq,
                        parent: pedigree.clone(),
                        idx: produced as u64,
                        expr: new_expr,
                        holes: new_holes,
                        depth: new_depth,
                    });
                }
            }
        }
    }

    /// Move-merges this walk's cache additions into the graph's persisted
    /// caches — the finishing step of the n-bounded entry points, which
    /// discard the state afterwards. Merge (rather than overwrite) so
    /// concurrent walks do not lose each other's additions; values are
    /// deterministic, so colliding keys carry identical entries. Walks that
    /// learned nothing skip the merge entirely.
    fn merge_caches_into(&mut self, graph: &DerivationGraph) {
        if !self.persist {
            return;
        }
        if self.memo.len() > self.seeded_memo {
            let memo = std::mem::take(&mut self.memo);
            let mut shared = lock_recovering(&graph.walk_memo);
            if shared.is_empty() {
                *shared = memo;
            } else {
                shared.extend(memo);
            }
        }
        if self.expansions.len() > self.seeded_expansions {
            let expansions = std::mem::take(&mut self.expansions);
            let mut shared = lock_recovering(&graph.walk_expansions);
            if shared.is_empty() {
                *shared = expansions;
            } else {
                shared.extend(expansions);
            }
        }
    }

    /// Clone-merges this walk's cache additions into the graph's persisted
    /// caches, keeping the state usable — the suspension step of a streamed
    /// walk, which parks the state for a later resume. Idempotent: the
    /// seeded watermarks advance, so a second sync with no new entries is a
    /// no-op.
    pub(crate) fn sync_caches_into(&mut self, graph: &DerivationGraph) {
        if !self.persist {
            return;
        }
        if self.memo.len() > self.seeded_memo {
            let mut shared = lock_recovering(&graph.walk_memo);
            if shared.is_empty() {
                *shared = self.memo.clone();
            } else {
                shared.extend(self.memo.iter().map(|(&k, &v)| (k, v)));
            }
            self.seeded_memo = self.memo.len();
        }
        if self.expansions.len() > self.seeded_expansions {
            let mut shared = lock_recovering(&graph.walk_expansions);
            if shared.is_empty() {
                *shared = self.expansions.clone();
            } else {
                shared.extend(self.expansions.iter().map(|(k, v)| (*k, Arc::clone(v))));
            }
            self.seeded_expansions = self.expansions.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::{DeclKind, Declaration};
    use crate::explore::{explore, ExploreLimits};
    use crate::genp::generate_patterns;
    use crate::gent::generate_terms_unindexed;

    /// Runs both reconstruction paths on the same pattern set and returns
    /// `(graph walk, unindexed reference, graph)`.
    fn both_walks(
        decls: Vec<Declaration>,
        goal: Ty,
        n: usize,
        limits: &GenerateLimits,
    ) -> (GenerateOutcome, GenerateOutcome, DerivationGraph) {
        let env: TypeEnv = decls.into_iter().collect();
        let weights = WeightConfig::default();
        let prepared = Arc::new(PreparedEnv::prepare(&env, &weights));
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let reference = generate_terms_unindexed(
            &prepared, &mut store, &patterns, &env, &weights, &goal, n, limits,
        );
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);
        let walked = generate_terms(&graph, &env, n, limits);
        (walked, reference, graph)
    }

    fn rendered(outcome: &GenerateOutcome) -> Vec<(String, u64)> {
        outcome
            .terms
            .iter()
            .map(|r| (r.term.to_string(), r.weight.value().to_bits()))
            .collect()
    }

    #[test]
    fn graph_walk_matches_reference_on_higher_order_goal() {
        let (walked, reference, graph) = both_walks(
            vec![
                Declaration::new(
                    "traverser",
                    Ty::fun(
                        vec![Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean"))],
                        Ty::base("Traverser"),
                    ),
                    DeclKind::Imported,
                ),
                Declaration::new(
                    "p",
                    Ty::fun(vec![Ty::base("Tree")], Ty::base("Boolean")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("Traverser"),
            5,
            &GenerateLimits::default(),
        );
        assert_eq!(rendered(&walked), rendered(&reference));
        assert_eq!(
            walked.terms[0].term.to_string(),
            "traverser(var1 => p(var1))"
        );
        assert!(graph.node_count() >= 2);
        assert!(graph.edge_count() >= 2);
    }

    #[test]
    fn negative_weight_overrides_disable_pruning_but_keep_results_identical() {
        // A negative override makes weights non-monotone along expansions;
        // the walk must detect that, fall back to unpruned search and still
        // agree with the reference byte for byte.
        let decls = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            )
            .with_weight(-2.0),
        ];
        let limits = GenerateLimits {
            max_depth: Some(4),
            ..GenerateLimits::default()
        };
        let (walked, reference, graph) = both_walks(decls, Ty::base("A"), 8, &limits);
        assert!(!graph.monotone);
        assert_eq!(rendered(&walked), rendered(&reference));
    }

    #[test]
    fn uninhabited_branches_never_become_graph_edges() {
        // `f : B -> A` is a dead end (B uninhabited); `g : C -> A` with
        // `c : C` works. No pattern is derived for the f branch, so `Select`
        // never resolves it into an edge — the graph only contains the g
        // chain, and the walk agrees with the reference byte for byte.
        let decls = vec![
            Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new(
                "g",
                Ty::fun(vec![Ty::base("C")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new("c", Ty::base("C"), DeclKind::Local),
        ];
        let (walked, reference, graph) =
            both_walks(decls, Ty::base("A"), 10, &GenerateLimits::default());
        assert_eq!(rendered(&walked), rendered(&reference));
        assert_eq!(walked.terms.len(), 1);
        assert_eq!(walked.terms[0].term.to_string(), "g(c)");
        // Two goal nodes (A and C), one edge each: g for A, c for C. The f
        // declaration appears nowhere.
        assert_eq!(graph.node_count(), 2);
        assert_eq!(graph.edge_count(), 2);
        // The pruned walk never pops more than the reference.
        assert!(walked.steps <= reference.steps);
    }

    #[test]
    fn zero_n_short_circuits() {
        let (walked, _, _) = both_walks(
            vec![Declaration::new("a", Ty::base("A"), DeclKind::Local)],
            Ty::base("A"),
            0,
            &GenerateLimits::default(),
        );
        assert!(walked.terms.is_empty());
        assert_eq!(walked.steps, 0);
    }

    #[test]
    fn heuristic_bound_is_exact_on_a_first_order_chain() {
        // Without binders the Dijkstra bound is not just admissible but
        // exact: h(root) equals the weight of the best term.
        let (walked, _, graph) = both_walks(
            vec![
                Declaration::new("name", Ty::base("String"), DeclKind::Local),
                Declaration::new(
                    "mkFile",
                    Ty::fun(vec![Ty::base("String")], Ty::base("File")),
                    DeclKind::Imported,
                ),
            ],
            Ty::base("File"),
            3,
            &GenerateLimits::default(),
        );
        assert!(graph.has_heuristic());
        assert!(walked.astar);
        let bound = graph.completion_bound().expect("monotone graph");
        assert_eq!(bound, walked.terms[0].weight);
    }

    #[test]
    fn uninhabited_goal_gets_an_infinite_bound() {
        let (walked, _, graph) = both_walks(
            vec![Declaration::new(
                "f",
                Ty::fun(vec![Ty::base("B")], Ty::base("A")),
                DeclKind::Local,
            )],
            Ty::base("A"),
            5,
            &GenerateLimits::default(),
        );
        assert!(walked.terms.is_empty());
        assert_eq!(graph.completion_bound(), Some(Weight::INFINITY));
    }

    #[test]
    fn astar_never_pops_more_than_the_best_first_walk() {
        let decls = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new(
                "join",
                Ty::fun(vec![Ty::base("A"), Ty::base("A")], Ty::base("A")),
                DeclKind::Imported,
            ),
        ];
        let env: TypeEnv = decls.iter().cloned().collect();
        let limits = GenerateLimits {
            max_depth: Some(4),
            ..GenerateLimits::default()
        };
        let (astar, _, graph) = both_walks(decls, Ty::base("A"), 6, &limits);
        let best_first = generate_terms_best_first(&graph, &env, 6, &limits);
        assert_eq!(
            rendered(&astar),
            rendered(&best_first),
            "both walks emit the identical list"
        );
        assert!(astar.steps <= best_first.steps);
        assert!(astar.astar);
        assert!(!best_first.astar);
    }

    #[test]
    fn long_lineages_with_wholesale_weight_ties_stay_ordered() {
        // NoWeights makes every expansion cost 1, so pedigree comparisons
        // fall through the weight phase into the index phase, and lineage
        // chains grow to ~n links — exercising the iterative cmp and the
        // iterative Drop on a four-digit chain.
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
        let weights = WeightConfig::new(crate::WeightMode::NoWeights);
        let prepared = Arc::new(PreparedEnv::prepare(&env, &weights));
        let goal = Ty::base("A");
        let mut store = prepared.scratch();
        let goal_succ = store.sigma(&goal);
        let space = explore(&prepared, &mut store, goal_succ, &ExploreLimits::default());
        let patterns = generate_patterns(&mut store, &space);
        let graph = DerivationGraph::build(&prepared, &mut store, &patterns, &env, &weights, &goal);

        // Depth-thousands regression: every expression helper on this path —
        // find/replace/to_term and the PExpr Drop, plus the pedigree cmp and
        // Drop — is iterative, so a chain far past any recursive stack budget
        // must complete on the default 2 MiB test-thread stack. The s-chain's
        // depth equals its node count, so n = 3000 drives each helper through
        // three thousand levels.
        let n = 3000;
        let outcome = generate_terms(&graph, &env, n, &GenerateLimits::default());
        assert_eq!(outcome.terms.len(), n);
        assert!(outcome.terms.windows(2).all(|w| w[0].weight <= w[1].weight));
        // The enumeration is the s-chain: a, s(a), s(s(a)), …
        assert_eq!(outcome.terms[0].term.to_string(), "a");
        assert_eq!(outcome.terms[1].term.to_string(), "s(a)");
        assert_eq!(outcome.terms[n - 1].term.depth(), n);
    }

    #[test]
    fn persisted_walk_caches_accumulate_and_never_change_results() {
        let decls = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "s",
                Ty::fun(vec![Ty::base("A")], Ty::base("A")),
                DeclKind::Local,
            ),
            Declaration::new(
                "join",
                Ty::fun(vec![Ty::base("A"), Ty::base("A")], Ty::base("A")),
                DeclKind::Imported,
            ),
        ];
        let env: TypeEnv = decls.iter().cloned().collect();
        let limits = GenerateLimits {
            max_depth: Some(4),
            ..GenerateLimits::default()
        };
        let (cold, _, graph) = both_walks(decls, Ty::base("A"), 6, &limits);
        assert!(
            graph.walk_memo_len() > 0,
            "the natural-mode walk persists its hole-goal memo"
        );

        // Warm walk: same results, same pop count, memo reused.
        let warm = generate_terms(&graph, &env, 6, &limits);
        assert_eq!(rendered(&warm), rendered(&cold));
        assert_eq!(warm.steps, cold.steps);
        assert_eq!(warm.pruned_enqueues, cold.pruned_enqueues);

        // A different n shares the caches too (they are n-independent).
        let fewer = generate_terms(&graph, &env, 2, &limits);
        assert_eq!(rendered(&fewer), rendered(&cold)[..2].to_vec());

        // The forced best-first walk on this heuristic-carrying graph must
        // not adopt (or pollute) the A*-mode caches — its memoized costs
        // would disagree — and still emits the identical list.
        let memo_before = graph.walk_memo_len();
        let best_first = generate_terms_best_first(&graph, &env, 6, &limits);
        assert_eq!(rendered(&best_first), rendered(&cold));
        assert_eq!(graph.walk_memo_len(), memo_before);

        // Clearing is semantically invisible.
        graph.clear_walk_caches();
        assert_eq!(graph.walk_memo_len(), 0);
        let recold = generate_terms(&graph, &env, 6, &limits);
        assert_eq!(rendered(&recold), rendered(&cold));
        assert_eq!(recold.steps, cold.steps);
    }

    #[test]
    fn sigma_colliding_arguments_get_distinct_hole_types() {
        // σ(A → B → C) = σ(B → A → C) = {A, B} → C, and σ(A → A → C) =
        // σ(A → C) = {A} → C: the σ-id shortcut of the build must still
        // give each argument type its own hole type, binder order included.
        let ab = Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C"));
        let ba = Ty::fun(vec![Ty::base("B"), Ty::base("A")], Ty::base("C"));
        let aa = Ty::fun(vec![Ty::base("A"), Ty::base("A")], Ty::base("C"));
        let a_c = Ty::fun(vec![Ty::base("A")], Ty::base("C"));
        let decls = vec![
            Declaration::new("x", Ty::base("A"), DeclKind::Local),
            Declaration::new(
                "join",
                Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C")),
                DeclKind::Local,
            ),
            Declaration::new("pick", a_c.clone(), DeclKind::Local),
            Declaration::new(
                "useAB",
                Ty::fun(vec![ab.clone()], Ty::base("Out")),
                DeclKind::Local,
            ),
            Declaration::new(
                "useBA",
                Ty::fun(vec![ba.clone()], Ty::base("Out")),
                DeclKind::Local,
            ),
            Declaration::new(
                "useAA",
                Ty::fun(vec![aa.clone()], Ty::base("Out")),
                DeclKind::Local,
            ),
            Declaration::new(
                "useAC",
                Ty::fun(vec![a_c.clone()], Ty::base("Out")),
                DeclKind::Local,
            ),
        ];
        let (walked, reference, graph) = both_walks(
            decls.clone(),
            Ty::base("Out"),
            20,
            &GenerateLimits::default(),
        );

        let ids: Vec<HoleTyId> = [&ab, &ba, &aa, &a_c]
            .iter()
            .map(|ty| graph.hole_ty(ty).expect("argument type is interned"))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "hole types {i} and earlier collide");
        }
        assert_eq!(
            graph.shape.tys[ids[0].as_usize()].succ,
            graph.shape.tys[ids[1].as_usize()].succ
        );
        assert_eq!(
            graph.shape.tys[ids[2].as_usize()].succ,
            graph.shape.tys[ids[3].as_usize()].succ
        );
        let a = graph.hole_ty(&Ty::base("A")).unwrap();
        let b = graph.hole_ty(&Ty::base("B")).unwrap();
        assert_eq!(&*graph.shape.tys[ids[0].as_usize()].args, &[a, b]);
        assert_eq!(&*graph.shape.tys[ids[1].as_usize()].args, &[b, a]);
        assert_eq!(&*graph.shape.tys[ids[2].as_usize()].args, &[a, a]);

        // Each `use*` edge carries the hole type of its own argument.
        for (name, id) in ["useAB", "useBA", "useAA", "useAC"].iter().zip(&ids) {
            let decl = decls.iter().position(|d| d.name == *name).unwrap() as u32;
            let edge = graph
                .edges
                .edge_decl
                .iter()
                .position(|&d| d == decl)
                .unwrap_or_else(|| panic!("{name} heads no edge"));
            assert_eq!(&*graph.edges.edge_args[edge], &[*id], "{name}");
        }

        assert_eq!(rendered(&walked), rendered(&reference));
        let terms: Vec<String> = walked.terms.iter().map(|r| r.term.to_string()).collect();
        for expected in [
            "useAB((var1, var2) => join(var1, var2))",
            "useBA((var1, var2) => join(var2, var1))",
            "useAA((var1, var2) => pick(var2))",
            "useAC(var1 => pick(var1))",
        ] {
            assert!(
                terms.iter().any(|t| t == expected),
                "{expected} missing from {terms:?}"
            );
        }
    }

    /// The graph for `goal` over `decls`, a patch of it for `edited` (whose
    /// first declarations are the kept ones, `old_to_new` mapping the old
    /// indices), and a fresh build over `edited`.
    fn patched_and_fresh(
        decls: Vec<Declaration>,
        edited: Vec<Declaration>,
        old_to_new: &[u32],
        goal: Ty,
    ) -> (DerivationGraph, Option<DerivationGraph>, DerivationGraph) {
        let weights = WeightConfig::default();
        let build = |prepared: &Arc<PreparedEnv>, env: &TypeEnv| {
            let mut store = prepared.scratch();
            let goal_succ = store.sigma(&goal);
            let space = explore(prepared, &mut store, goal_succ, &ExploreLimits::default());
            let patterns = generate_patterns(&mut store, &space);
            DerivationGraph::build(prepared, &mut store, &patterns, env, &weights, &goal)
        };
        let env: TypeEnv = decls.into_iter().collect();
        let prepared = Arc::new(PreparedEnv::prepare(&env, &weights));
        let graph = build(&prepared, &env);
        let edited: TypeEnv = edited.into_iter().collect();
        let kept: Vec<usize> = (0..env.len())
            .filter(|&i| old_to_new[i] != DECL_REMOVED)
            .collect();
        let next = Arc::new(PreparedEnv::prepare_incremental(
            &prepared,
            &kept,
            &edited,
            &weights,
            PreparedEnv::fingerprint_of(&edited, &weights),
        ));
        let patched = graph.patch(&next, &edited, &weights, old_to_new);
        let fresh = build(&Arc::new(PreparedEnv::prepare(&edited, &weights)), &edited);
        (graph, patched, fresh)
    }

    fn bounds(graph: &DerivationGraph) -> &Arc<[Weight]> {
        &graph.heuristic.as_ref().expect("monotone graph").node_bound
    }

    fn decl(name: &str, args: &[&str], ret: &str, weight: f64) -> Declaration {
        let args = args.iter().map(|a| Ty::base(*a)).collect::<Vec<_>>();
        let ty = if args.is_empty() {
            Ty::base(ret)
        } else {
            Ty::fun(args, Ty::base(ret))
        };
        Declaration::new(name, ty, DeclKind::Local).with_weight(weight)
    }

    #[test]
    fn patch_reuses_the_bounds_when_a_removed_tight_edge_keeps_a_strict_support() {
        // `a` and `a2` are equally cheap leaves of `A`: dropping `a2` leaves
        // `a` tight with no tails, so every bound stands.
        let (graph, patched, fresh) = patched_and_fresh(
            vec![
                decl("a", &[], "A", 5.0),
                decl("f", &["A"], "C", 3.0),
                decl("a2", &[], "A", 5.0),
            ],
            vec![decl("a", &[], "A", 5.0), decl("f", &["A"], "C", 3.0)],
            &[0, 1, DECL_REMOVED],
            Ty::base("C"),
        );
        let patched = patched.expect("a σ-inert removal patches");
        assert!(patched.identical_to(&fresh));
        assert!(Arc::ptr_eq(bounds(&patched), bounds(&graph)));
        assert!(Arc::ptr_eq(&patched.shape, &graph.shape));
    }

    #[test]
    fn patch_recomputes_the_bounds_when_a_zero_weight_cycle_is_the_only_other_tight_edge() {
        // `g` (5 + h(A) = 10) sets C's bound, and `z : C → C` at weight 0 is
        // tight too — but only through C itself. Without `g`, C costs
        // `f`'s 5 + 2·h(A) = 15, so the bounds must be recomputed. `f` keeps
        // the σ class `{A} → C` at weight 5, and it, not `g`, interned the
        // hole type `A`.
        let keep = vec![
            decl("a", &[], "A", 5.0),
            decl("f", &["A", "A"], "C", 5.0),
            decl("z", &["C"], "C", 0.0),
        ];
        let mut decls = keep.clone();
        decls.insert(2, decl("g", &["A"], "C", 5.0));
        let (graph, patched, fresh) =
            patched_and_fresh(decls, keep, &[0, 1, DECL_REMOVED, 2], Ty::base("C"));
        let patched = patched.expect("a σ-inert removal patches");
        assert!(patched.identical_to(&fresh));
        assert_ne!(bounds(&patched), bounds(&graph));
        assert_eq!(patched.completion_bound(), Some(Weight::new(15.0)));
    }

    #[test]
    fn patch_recomputes_the_bounds_when_an_added_edge_undercuts_one() {
        // `g : A → C` joins the σ class `{A} → C` at its weight, 5, but takes
        // one argument where `f` takes two: C's bound falls from 15 to 10.
        let keep = vec![decl("a", &[], "A", 5.0), decl("f", &["A", "A"], "C", 5.0)];
        let mut edited = keep.clone();
        edited.push(decl("g", &["A"], "C", 5.0));
        let (graph, patched, fresh) = patched_and_fresh(keep, edited, &[0, 1], Ty::base("C"));
        let patched = patched.expect("a σ-inert add patches");
        assert!(patched.identical_to(&fresh));
        assert!(!patched.identical_to(&graph));
        assert_eq!(patched.completion_bound(), Some(Weight::new(10.0)));
    }

    #[test]
    fn patch_falls_back_when_an_added_argument_type_is_interned_later() {
        let keep = vec![decl("a", &[], "A", 5.0), decl("f", &["A"], "C", 5.0)];
        let mut edited = keep.clone();
        edited.push(decl("f2", &["A"], "C", 9.0));
        let (_, patched, fresh) = patched_and_fresh(keep.clone(), edited, &[0, 1], Ty::base("C"));
        assert!(patched
            .expect("`A` is interned before")
            .identical_to(&fresh));

        // σ(A → A → B) = σ(A → B), so `q` joins `e`'s σ class. Its variant,
        // for the `Y` goal below the root, comes first, but the hole type
        // `A → B` is interned later, by `r` at the root goal `X`. A build
        // would intern it at `q` instead.
        let a_ab = Ty::fun(vec![Ty::base("A"), Ty::base("A")], Ty::base("B"));
        let ab = Ty::fun(vec![Ty::base("A")], Ty::base("B"));
        let decls = vec![
            decl("b", &[], "B", 5.0),
            Declaration::new("e", Ty::fun(vec![a_ab], Ty::base("Y")), DeclKind::Local),
            Declaration::new(
                "r",
                Ty::fun(vec![ab.clone()], Ty::base("X")),
                DeclKind::Local,
            ),
            decl("m", &["Y"], "X", 5.0),
        ];
        let mut edited = decls.clone();
        edited.push(Declaration::new(
            "q",
            Ty::fun(vec![ab], Ty::base("Y")),
            DeclKind::Local,
        ));
        let (_, patched, fresh) = patched_and_fresh(decls, edited, &[0, 1, 2, 3], Ty::base("X"));
        let ab_id = fresh.hole_ty(&Ty::fun(vec![Ty::base("A")], Ty::base("B")));
        assert!(ab_id.is_some());
        assert!(patched.is_none());
    }

    #[test]
    fn hole_type_interner_is_shared_across_edges() {
        let (_, _, graph) = both_walks(
            vec![
                Declaration::new("x", Ty::base("Int"), DeclKind::Local),
                Declaration::new(
                    "f",
                    Ty::fun(vec![Ty::base("Int"), Ty::base("Int")], Ty::base("Out")),
                    DeclKind::Local,
                ),
                Declaration::new(
                    "g",
                    Ty::fun(vec![Ty::base("Int")], Ty::base("Out")),
                    DeclKind::Local,
                ),
            ],
            Ty::base("Out"),
            4,
            &GenerateLimits::default(),
        );
        // Int, Out and the goal are each interned once.
        assert!(graph.hole_ty(&Ty::base("Int")).is_some());
        assert!(graph.hole_ty(&Ty::base("Missing")).is_none());
        assert!(graph.hole_ty_count() <= 3);
    }
}
