//! The simply typed lambda calculus substrate used by InSynth (paper §3.1).
//!
//! InSynth synthesizes *terms in long normal form* (LNF): `λx1…xm. f e1 … en`
//! where `f` is a declared symbol applied to exactly as many arguments as its
//! type demands and the body's type is a base type. This crate provides:
//!
//! * [`Ty`] — simple types `τ ::= v | τ → τ` over named base types,
//! * [`Term`] — terms already in LNF shape (leading binders, a head symbol and
//!   fully applied arguments),
//! * [`Bindings`] — ordered name ↦ type environments with shadowing,
//! * [`check`] / [`infer`] — the typing rules of Figure 2,
//!   restricted (as in the paper) to long normal form.
//!
//! # Example
//!
//! ```
//! use insynth_lambda::{Bindings, Ty, Term, check};
//!
//! // f : String -> File,  name : String   ⊢   f(name) : File
//! let mut env = Bindings::new();
//! env.bind("f", Ty::fun(vec![Ty::base("String")], Ty::base("File")));
//! env.bind("name", Ty::base("String"));
//!
//! let term = Term::app("f", vec![Term::var("name")]);
//! assert!(check(&env, &term, &Ty::base("File")).is_ok());
//! assert_eq!(term.to_string(), "f(name)");
//! ```

mod bindings;
mod checker;
mod term;
mod ty;

pub use bindings::Bindings;
pub use checker::{check, infer, is_long_normal_form, TypeError};
pub use term::{Param, Term};
pub use ty::Ty;
