//! A pattern-indexed view of the derivable space: goals to pattern lists.
//!
//! The pattern generation phase derives succinct patterns `Γ@Π : t` one at a
//! time; the reconstruction phase then asks, over and over, "which patterns
//! fill a hole of base type `t` in environment `Γ`?". A [`PatternIndex`]
//! answers that query through dense *goal node* ids: every distinct
//! `(EnvId, ret)` pair that received a pattern becomes a [`GoalId`], and the
//! patterns of a goal are stored contiguously in insertion order. Downstream
//! consumers (the derivation graph of the reconstruction pipeline) key their
//! own tables by [`GoalId`] instead of hashing `(EnvId, Symbol)` pairs in the
//! hot loop.
//!
//! # Example
//!
//! ```
//! use insynth_succinct::{Pattern, PatternIndex, SuccinctStore, TypeStore};
//!
//! let mut store = SuccinctStore::new();
//! let int = store.mk_base("Int");
//! let string = store.base_symbol("String");
//! let env = store.mk_env(vec![int]);
//! let head = store.mk_ty(vec![int], string);
//! let mut index = PatternIndex::new();
//! assert!(index.insert(Pattern::new(env, head, vec![int], string)));
//! assert!(!index.insert(Pattern::new(env, head, vec![int], string))); // duplicate
//! let goal = index.goal(env, string).expect("goal was indexed");
//! assert_eq!(index.patterns_of(goal).count(), 1);
//! assert!(index.is_inhabited(string, env));
//! ```

use insynth_intern::{IdHashMap, IdHashSet, Symbol};

use crate::{EnvId, Pattern, SuccinctTyId, TypeStore};

/// Dense id of a `(environment, return type)` goal in a [`PatternIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GoalId(u32);

impl GoalId {
    /// The goal's position in [`PatternIndex::goals`] iteration order.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// The patterns derived for one `(environment, return type)` goal.
#[derive(Debug, Clone)]
struct GoalEntry {
    env: EnvId,
    ret: Symbol,
    /// Indices into the flat pattern table, in derivation order.
    members: Vec<u32>,
}

/// An insertion-ordered index from `(EnvId, ret)` goals to their patterns.
///
/// Iteration orders are deterministic: goals appear in first-insertion order
/// and each goal's patterns in derivation order, so everything built on top of
/// the index (notably the derivation graph) inherits a stable layout.
#[derive(Debug, Clone, Default)]
pub struct PatternIndex {
    patterns: Vec<Pattern>,
    goals: Vec<GoalEntry>,
    ids: IdHashMap<(EnvId, Symbol), GoalId>,
    /// The `(goal, head)` pairs already indexed. A pattern's head determines
    /// it within its goal, so this is the duplicate check.
    heads: IdHashSet<(GoalId, SuccinctTyId)>,
}

impl PatternIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pattern, creating its goal node if needed.
    ///
    /// Returns `false` (and stores nothing) if an equal pattern was already
    /// indexed under the same goal, i.e. one with the same `head`.
    pub fn insert(&mut self, pattern: Pattern) -> bool {
        let key = (pattern.env, pattern.ret);
        let goal = match self.ids.get(&key) {
            Some(&goal) => goal,
            None => {
                let goal = GoalId(self.goals.len() as u32);
                self.goals.push(GoalEntry {
                    env: pattern.env,
                    ret: pattern.ret,
                    members: Vec::new(),
                });
                self.ids.insert(key, goal);
                goal
            }
        };
        if !self.heads.insert((goal, pattern.head)) {
            return false;
        }
        self.goals[goal.as_usize()]
            .members
            .push(self.patterns.len() as u32);
        self.patterns.push(pattern);
        true
    }

    /// The goal node for `(env, ret)`, if any pattern was derived for it.
    pub fn goal(&self, env: EnvId, ret: Symbol) -> Option<GoalId> {
        self.ids.get(&(env, ret)).copied()
    }

    /// The `(env, ret)` pair of a goal.
    pub fn goal_key(&self, goal: GoalId) -> (EnvId, Symbol) {
        let entry = &self.goals[goal.as_usize()];
        (entry.env, entry.ret)
    }

    /// All goals, in first-insertion order.
    pub fn goals(&self) -> impl Iterator<Item = GoalId> {
        (0..self.goals.len() as u32).map(GoalId)
    }

    /// Number of distinct goals.
    pub fn goal_count(&self) -> usize {
        self.goals.len()
    }

    /// The patterns of a goal, in derivation order.
    pub fn patterns_of(&self, goal: GoalId) -> impl Iterator<Item = &Pattern> {
        self.goals[goal.as_usize()]
            .members
            .iter()
            .map(|&i| &self.patterns[i as usize])
    }

    /// The patterns usable to fill a hole of base type `ret` in environment
    /// `env` (the lookup performed by term reconstruction).
    pub fn lookup(&self, env: EnvId, ret: Symbol) -> impl Iterator<Item = &Pattern> {
        self.goal(env, ret)
            .into_iter()
            .flat_map(|goal| self.goals[goal.as_usize()].members.iter())
            .map(|&i| &self.patterns[i as usize])
    }

    /// Returns `true` if base type `ret` is known to be inhabited in `env`.
    pub fn is_inhabited(&self, ret: Symbol, env: EnvId) -> bool {
        self.ids.contains_key(&(env, ret))
    }

    /// All `(base type, environment)` pairs known to be inhabited.
    pub fn inhabited_pairs(&self) -> impl Iterator<Item = (Symbol, EnvId)> + '_ {
        self.goals.iter().map(|entry| (entry.ret, entry.env))
    }

    /// All patterns, in derivation order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Total number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if no pattern was indexed.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Renders every goal with its pattern count, e.g. for debugging:
    /// `{Int}@Int: 2 patterns`.
    pub fn render_summary<S: TypeStore>(&self, store: &S) -> String {
        self.goals
            .iter()
            .map(|entry| {
                format!(
                    "{}@{}: {} pattern(s)",
                    store.display_env(entry.env),
                    store.base_name(entry.ret),
                    entry.members.len()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuccinctStore;

    fn setup() -> (SuccinctStore, EnvId, Symbol, Symbol) {
        let mut store = SuccinctStore::new();
        let int = store.mk_base("Int");
        let string = store.base_symbol("String");
        let bool_sym = store.base_symbol("Boolean");
        let env = store.mk_env(vec![int]);
        (store, env, string, bool_sym)
    }

    fn pattern(
        store: &mut SuccinctStore,
        env: EnvId,
        args: Vec<SuccinctTyId>,
        ret: Symbol,
    ) -> Pattern {
        let head = store.mk_ty(args.clone(), ret);
        Pattern::new(env, head, args, ret)
    }

    #[test]
    fn goals_are_created_in_insertion_order() {
        let (mut store, env, string, boolean) = setup();
        let int = store.mk_base("Int");
        let mut index = PatternIndex::new();
        index.insert(pattern(&mut store, env, vec![int], string));
        index.insert(pattern(&mut store, env, vec![], boolean));
        index.insert(pattern(&mut store, env, vec![], string));
        let goals: Vec<_> = index.goals().collect();
        assert_eq!(goals.len(), 2);
        assert_eq!(index.goal_key(goals[0]), (env, string));
        assert_eq!(index.goal_key(goals[1]), (env, boolean));
        assert_eq!(index.patterns_of(goals[0]).count(), 2);
    }

    #[test]
    fn duplicate_patterns_are_rejected() {
        let (mut store, env, string, _) = setup();
        let int = store.mk_base("Int");
        let mut index = PatternIndex::new();
        assert!(index.insert(pattern(&mut store, env, vec![int], string)));
        assert!(!index.insert(pattern(&mut store, env, vec![int], string)));
        assert_eq!(index.len(), 1);
        // The same head under another goal is a different pattern.
        let other = store.mk_env(vec![]);
        assert!(index.insert(pattern(&mut store, other, vec![int], string)));
        assert!(!index.insert(pattern(&mut store, other, vec![int], string)));
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn lookup_and_inhabitation_agree() {
        let (mut store, env, string, boolean) = setup();
        let mut index = PatternIndex::new();
        index.insert(pattern(&mut store, env, vec![], string));
        assert!(index.is_inhabited(string, env));
        assert!(!index.is_inhabited(boolean, env));
        assert_eq!(index.lookup(env, string).count(), 1);
        assert_eq!(index.lookup(env, boolean).count(), 0);
    }
}
