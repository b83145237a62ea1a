//! Succinct types, environments and patterns (paper §3.2–§3.5).
//!
//! Succinct types are simple types taken modulo currying and the
//! commutativity / associativity / idempotence of the argument product:
//!
//! ```text
//! ts ::= {ts, …, ts} → v        v a base type
//! ```
//!
//! The conversion σ maps every simple type to a succinct type; many distinct
//! simple types collapse into one equivalence class, which is what shrinks the
//! search space explored by the synthesis engine (the paper reports
//! 3356 declarations → 1783 succinct types on the Figure 1 example).
//!
//! All succinct types and environments are interned into a [`SuccinctStore`]
//! so that the engine can hash and compare them as integers.
//!
//! # Example
//!
//! ```
//! use insynth_lambda::Ty;
//! use insynth_succinct::SuccinctStore;
//!
//! let mut store = SuccinctStore::new();
//! // A -> B -> C and B -> A -> C collapse to the same succinct type {A,B} -> C.
//! let t1 = store.sigma(&Ty::fun(vec![Ty::base("A"), Ty::base("B")], Ty::base("C")));
//! let t2 = store.sigma(&Ty::fun(vec![Ty::base("B"), Ty::base("A")], Ty::base("C")));
//! assert_eq!(t1, t2);
//! ```

mod calculus;
mod env;
mod fingerprint;
mod index;
mod pattern;
mod scratch;
mod store;
mod view;

pub use calculus::{
    match_rule, match_term, prod_rule, prop_rule, strip_rule, transfer_rule, BaseRequest,
    ReachabilityTerm, Request,
};
pub use env::EnvId;
pub use fingerprint::{EnvFingerprint, EnvFingerprintBuilder};
pub use index::{GoalId, PatternIndex};
pub use pattern::Pattern;
pub use scratch::ScratchStore;
pub use store::{SuccinctStore, SuccinctTy, SuccinctTyId};
pub use view::TypeStore;
