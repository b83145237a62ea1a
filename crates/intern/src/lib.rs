//! String interning and typed index utilities shared by all InSynth crates.
//!
//! The synthesis engine manipulates thousands of declarations, types and
//! environments; comparing and hashing them by interned integer ids instead of
//! by structural equality is what keeps the Explore / GenerateP phases cheap
//! (paper §3.2, §5.7).
//!
//! # Example
//!
//! ```
//! use insynth_intern::Interner;
//!
//! let mut interner = Interner::new();
//! let a = interner.intern("FileInputStream");
//! let b = interner.intern("FileInputStream");
//! assert_eq!(a, b);
//! assert_eq!(interner.resolve(a), "FileInputStream");
//! ```

mod idhash;
mod idvec;
mod interner;
mod stable;
mod symbol;

pub use idhash::{IdHashMap, IdHashSet, IdHasher};
pub use idvec::{Id, IdVec};
pub use interner::Interner;
pub use stable::StableHasher;
pub use symbol::Symbol;
