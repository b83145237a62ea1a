//! Declarations and type environments (the Γo of the paper).

use std::fmt;
use std::sync::Arc;

use insynth_lambda::Ty;

/// The lexical/statistical category of a declaration, which determines its
/// base weight (paper Table 1).
///
/// Smaller weights mean "more desirable": local values beat class members,
/// which beat package members, which beat imported API symbols; coercion
/// functions introduced for subtyping are cheap so that subtype conversions do
/// not penalize a snippet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeclKind {
    /// A lambda binder introduced during synthesis (weight 1).
    Lambda,
    /// A value declared in the enclosing method/local scope (weight 5).
    Local,
    /// A coercion function witnessing a subtype edge (weight 10).
    Coercion,
    /// A member of the class where the completion is invoked (weight 20).
    Class,
    /// A member of the enclosing package (weight 25).
    Package,
    /// A literal placeholder (weight 200).
    Literal,
    /// An imported API symbol; weight additionally depends on its corpus
    /// frequency (weight `215 + 785/(1+f)`).
    Imported,
}

impl fmt::Display for DeclKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeclKind::Lambda => "lambda",
            DeclKind::Local => "local",
            DeclKind::Coercion => "coercion",
            DeclKind::Class => "class",
            DeclKind::Package => "package",
            DeclKind::Literal => "literal",
            DeclKind::Imported => "imported",
        };
        f.write_str(s)
    }
}

/// A named, typed declaration `x : τ` visible at the completion point.
///
/// # Example
///
/// ```
/// use insynth_core::{Declaration, DeclKind};
/// use insynth_lambda::Ty;
///
/// let d = Declaration::simple(
///     "FileInputStream",
///     Ty::fun(vec![Ty::base("String")], Ty::base("FileInputStream")),
///     DeclKind::Imported,
/// )
/// .with_frequency(120);
/// assert_eq!(d.name, "FileInputStream");
/// assert_eq!(d.frequency, Some(120));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// The symbol name as it appears in source.
    pub name: String,
    /// The declaration's simple type (receivers of instance methods are
    /// modelled as the first argument).
    pub ty: Ty,
    /// Its lexical/statistical category.
    pub kind: DeclKind,
    /// Number of occurrences of the symbol in the training corpus, if known.
    pub frequency: Option<u64>,
    /// An explicit weight that overrides the Table 1 formula, if set.
    pub weight_override: Option<f64>,
}

impl Declaration {
    /// Creates a declaration with no corpus frequency and no weight override.
    pub fn new(name: impl Into<String>, ty: Ty, kind: DeclKind) -> Self {
        Declaration {
            name: name.into(),
            ty,
            kind,
            frequency: None,
            weight_override: None,
        }
    }

    /// Alias of [`Declaration::new`]; reads better in example code.
    pub fn simple(name: impl Into<String>, ty: Ty, kind: DeclKind) -> Self {
        Self::new(name, ty, kind)
    }

    /// Sets the corpus frequency (number of uses observed in the corpus).
    pub fn with_frequency(mut self, frequency: u64) -> Self {
        self.frequency = Some(frequency);
        self
    }

    /// Overrides the computed weight with an explicit value.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight_override = Some(weight);
        self
    }
}

impl fmt::Display for Declaration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {} [{}]", self.name, self.ty, self.kind)
    }
}

/// The iterator [`TypeEnv::iter`] returns: the shared declarations, borrowed
/// through their `Arc`s.
pub type DeclIter<'a> =
    std::iter::Map<std::slice::Iter<'a, Arc<Declaration>>, fn(&Arc<Declaration>) -> &Declaration>;

/// The original type environment Γo: an ordered collection of declarations.
///
/// Declarations are held behind [`Arc`]s, so cloning an environment copies
/// pointers, not names and types: an edited environment (see
/// [`EnvDelta::apply`](crate::EnvDelta::apply)) shares every declaration the
/// edit leaves alone with the environment it was derived from.
/// [`TypeEnv::iter_mut`] copies each declaration another environment still
/// shares before handing it out, so a mutation never shows through a clone.
///
/// # Example
///
/// ```
/// use insynth_core::{Declaration, DeclKind, TypeEnv};
/// use insynth_lambda::Ty;
///
/// let mut env = TypeEnv::new();
/// env.push(Declaration::simple("name", Ty::base("String"), DeclKind::Local));
/// assert_eq!(env.len(), 1);
/// assert!(env.find("name").is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeEnv {
    decls: Vec<Arc<Declaration>>,
}

impl TypeEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a declaration.
    pub fn push(&mut self, decl: Declaration) {
        self.decls.push(Arc::new(decl));
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Returns `true` if the environment has no declarations.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// All declarations, in insertion order.
    pub fn decls(&self) -> &[Arc<Declaration>] {
        &self.decls
    }

    /// Iterates over the declarations.
    pub fn iter(&self) -> DeclIter<'_> {
        self.decls.iter().map(|d| &**d)
    }

    /// Iterates mutably over the declarations (e.g. to attach corpus
    /// frequencies after extraction). Each declaration another environment
    /// still shares is copied as the iterator reaches it, so mutations stay
    /// local to `self`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Declaration> {
        self.decls.iter_mut().map(Arc::make_mut)
    }

    /// Finds the first declaration with the given name.
    pub fn find(&self, name: &str) -> Option<&Declaration> {
        self.iter().find(|d| d.name == name)
    }

    /// The `Select` function of Figure 4: all declarations whose type maps to
    /// the given simple type exactly (used by the reference reconstruction).
    pub fn select_by_ty(&self, ty: &Ty) -> Vec<&Declaration> {
        self.iter().filter(|d| &d.ty == ty).collect()
    }

    /// Converts the environment into lambda-calculus [`insynth_lambda::Bindings`]
    /// for type checking synthesized snippets.
    ///
    /// Note that [`insynth_lambda::Bindings`] resolves a name to a single
    /// type, so overloaded declarations (e.g. the several constructors of
    /// `java.io.BufferedReader`) shadow one another; use [`TypeEnv::admits`]
    /// to type-check terms against an environment with overloading.
    pub fn to_bindings(&self) -> insynth_lambda::Bindings {
        self.decls
            .iter()
            .map(|d| (d.name.clone(), d.ty.clone()))
            .collect()
    }

    /// Overload-aware type checking: returns `true` if the term (in long
    /// normal form) has the expected type under this environment, trying
    /// every declaration that shares the head's name.
    ///
    /// # Example
    ///
    /// ```
    /// use insynth_core::{Declaration, DeclKind, TypeEnv};
    /// use insynth_lambda::{Term, Ty};
    ///
    /// // Two overloads of `mk`; the one-argument overload applies here.
    /// let env: TypeEnv = vec![
    ///     Declaration::simple("s", Ty::base("String"), DeclKind::Local),
    ///     Declaration::simple("mk", Ty::fun(vec![Ty::base("String")], Ty::base("R")), DeclKind::Imported),
    ///     Declaration::simple(
    ///         "mk",
    ///         Ty::fun(vec![Ty::base("String"), Ty::base("Int")], Ty::base("R")),
    ///         DeclKind::Imported,
    ///     ),
    /// ]
    /// .into_iter()
    /// .collect();
    /// let term = Term::app("mk", vec![Term::var("s")]);
    /// assert!(env.admits(&term, &Ty::base("R")));
    /// assert!(!env.admits(&term, &Ty::base("Other")));
    /// ```
    pub fn admits(&self, term: &insynth_lambda::Term, expected: &Ty) -> bool {
        let mut binders: Vec<(String, Ty)> = Vec::new();
        self.admits_rec(&mut binders, term, expected)
    }

    fn admits_rec(
        &self,
        binders: &mut Vec<(String, Ty)>,
        term: &insynth_lambda::Term,
        expected: &Ty,
    ) -> bool {
        let (expected_args, expected_ret) = expected.uncurry();
        if term.params.len() > expected_args.len() {
            return false;
        }
        for (param, want) in term.params.iter().zip(expected_args.iter()) {
            if &param.ty != *want {
                return false;
            }
        }
        // The type the head application must produce: the expected type with
        // the bound arrows stripped off.
        let remaining = Ty::fun(
            expected_args[term.params.len()..]
                .iter()
                .map(|t| (*t).clone())
                .collect(),
            expected_ret.clone(),
        );

        let mark = binders.len();
        binders.extend(term.params.iter().map(|p| (p.name.clone(), p.ty.clone())));

        // Innermost binder shadows; otherwise every declaration sharing the
        // name is a candidate (overloading).
        let candidates: Vec<Ty> =
            if let Some((_, ty)) = binders.iter().rev().find(|(name, _)| name == &term.head) {
                vec![ty.clone()]
            } else {
                self.decls
                    .iter()
                    .filter(|d| d.name == term.head)
                    .map(|d| d.ty.clone())
                    .collect()
            };

        let ok = candidates.iter().any(|head_ty| {
            let (params, ret) = head_ty.uncurry();
            if params.len() != term.args.len() || ret != &remaining {
                return false;
            }
            term.args
                .iter()
                .zip(params.iter())
                .all(|(arg, param)| self.admits_rec(binders, arg, param))
        });

        binders.truncate(mark);
        ok
    }
}

impl FromIterator<Declaration> for TypeEnv {
    fn from_iter<I: IntoIterator<Item = Declaration>>(iter: I) -> Self {
        iter.into_iter().map(Arc::new).collect()
    }
}

/// Collects already-shared declarations without copying them.
impl FromIterator<Arc<Declaration>> for TypeEnv {
    fn from_iter<I: IntoIterator<Item = Arc<Declaration>>>(iter: I) -> Self {
        TypeEnv {
            decls: iter.into_iter().collect(),
        }
    }
}

impl Extend<Declaration> for TypeEnv {
    fn extend<I: IntoIterator<Item = Declaration>>(&mut self, iter: I) {
        self.decls.extend(iter.into_iter().map(Arc::new));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_set_fields() {
        let d = Declaration::new("x", Ty::base("Int"), DeclKind::Local)
            .with_frequency(7)
            .with_weight(3.5);
        assert_eq!(d.frequency, Some(7));
        assert_eq!(d.weight_override, Some(3.5));
    }

    #[test]
    fn display_mentions_name_type_and_kind() {
        let d = Declaration::new(
            "f",
            Ty::fun(vec![Ty::base("A")], Ty::base("B")),
            DeclKind::Imported,
        );
        assert_eq!(d.to_string(), "f : A -> B [imported]");
    }

    #[test]
    fn env_find_returns_first_match() {
        let mut env = TypeEnv::new();
        env.push(Declaration::new("x", Ty::base("A"), DeclKind::Local));
        env.push(Declaration::new("x", Ty::base("B"), DeclKind::Imported));
        assert_eq!(env.find("x").unwrap().ty, Ty::base("A"));
        assert!(env.find("missing").is_none());
    }

    #[test]
    fn select_by_ty_matches_exact_simple_types() {
        let mut env = TypeEnv::new();
        let f_ty = Ty::fun(vec![Ty::base("A")], Ty::base("B"));
        env.push(Declaration::new("f", f_ty.clone(), DeclKind::Imported));
        env.push(Declaration::new("g", Ty::base("B"), DeclKind::Local));
        assert_eq!(env.select_by_ty(&f_ty).len(), 1);
        assert_eq!(env.select_by_ty(&Ty::base("B")).len(), 1);
        assert!(env.select_by_ty(&Ty::base("C")).is_empty());
    }

    #[test]
    fn to_bindings_preserves_names_and_types() {
        let mut env = TypeEnv::new();
        env.push(Declaration::new("x", Ty::base("A"), DeclKind::Local));
        let b = env.to_bindings();
        assert_eq!(b.lookup("x"), Some(&Ty::base("A")));
    }

    #[test]
    fn env_collects_from_iterator() {
        let env: TypeEnv = vec![
            Declaration::new("a", Ty::base("A"), DeclKind::Local),
            Declaration::new("b", Ty::base("B"), DeclKind::Local),
        ]
        .into_iter()
        .collect();
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn clones_share_declarations_and_writes_copy_on_write() {
        let mut original = TypeEnv::new();
        original.push(Declaration::new("a", Ty::base("A"), DeclKind::Local));
        original.push(Declaration::new("b", Ty::base("B"), DeclKind::Local));
        let untouched = |env: &TypeEnv| {
            env.iter()
                .all(|d| d.frequency.is_none() && d.weight_override.is_none())
        };

        let mut written = original.clone();
        assert!(Arc::ptr_eq(&written.decls()[0], &original.decls()[0]));
        for decl in written.iter_mut() {
            decl.frequency = Some(3);
        }
        assert!(written.iter().all(|d| d.frequency == Some(3)));
        assert!(
            untouched(&original),
            "iter_mut wrote through a shared declaration"
        );
        assert!(!Arc::ptr_eq(&written.decls()[0], &original.decls()[0]));

        // A reweighting delta copies only the declaration it changes; the
        // other one stays shared with the environment it came from.
        let edited = crate::EnvDelta::new().reweight("a", 2.5).apply(&original);
        assert_eq!(edited.decls()[0].weight_override, Some(2.5));
        assert!(
            untouched(&original),
            "apply wrote through a shared declaration"
        );
        assert!(!Arc::ptr_eq(&edited.decls()[0], &original.decls()[0]));
        assert!(Arc::ptr_eq(&edited.decls()[1], &original.decls()[1]));
    }

    #[test]
    fn decl_kind_ordering_matches_proximity() {
        assert!(DeclKind::Lambda < DeclKind::Local);
        assert!(DeclKind::Local < DeclKind::Imported);
    }
}
