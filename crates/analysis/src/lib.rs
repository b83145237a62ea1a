//! Goal-independent static analysis over σ-lowered environments.
//!
//! The explore phase (paper Figure 7) is a *backward*, goal-directed
//! reachability fixpoint. This crate implements its forward dual: starting
//! from the succinct images of every declaration, it computes the largest
//! environment any completion walk can ever run in (`E_max`) and the set of
//! base types producible there — without fixing a goal. On top of that
//! producibility fixpoint it emits deterministic, severity-coded
//! diagnostics:
//!
//! * **dead declarations** — a parameter type is unproducible even in
//!   `E_max`, so the declaration can appear in no completion for any goal;
//! * **uninhabitable types** — base types mentioned in the environment's
//!   signatures that no term can ever have;
//! * **ambiguous overload groups** — σ-indistinguishable declarations with
//!   equal effective weight, whose relative ranking is pure tie-break order;
//! * **duplicate declarations** — identical `(name, type)` pairs that render
//!   identical completions;
//! * **weight anomalies** — negative effective weights, which break weight
//!   monotonicity and force the engine's best-first fallback (disabling A*).
//!
//! # The `E_max` construction
//!
//! Exploration only ever grows an environment through the STRIP rule: when a
//! *functional* succinct type `{b₁,…,bₖ} → v` is requested, its arguments
//! become environment members (lambda binders) and `v` is requested in the
//! extended environment. Requestable positions are exactly the argument
//! types of environment members. So the closure
//!
//! * members `M` ⩴ σ-images of the declarations (plus any extra seeds),
//! * for every `m ∈ M`, every argument of `m` is *requestable*,
//! * for every requestable `r`, every argument of `r` is a member,
//!
//! reaches a fixpoint `E_max` that contains every environment any walk can
//! construct. Producibility then collapses to a Horn-style fixpoint over
//! base-type symbols: a member `{a₁,…,aₖ} → v` produces `v` once every
//! `R(aᵢ)` is producible (leaf members seed the set). Because inhabitation
//! is monotone in the environment and every walk environment is a subset of
//! `E_max`, a type unproducible here is unproducible everywhere — which is
//! what makes the dead-declaration verdict sound.
//!
//! The crate is deliberately a leaf: it depends only on the succinct-type
//! store and works on plain per-declaration facts ([`DeclFacts`]), so the
//! engine, the CLI and the server all adapt to it rather than the other way
//! around. Every output vector is sorted, so reports are byte-stable across
//! runs.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

use insynth_intern::Symbol;
use insynth_succinct::{SuccinctTyId, TypeStore};

/// The per-declaration facts the analyzer consumes: everything it needs from
/// a prepared environment, with no dependency on the engine's types.
#[derive(Debug, Clone)]
pub struct DeclFacts {
    /// The declaration's source name.
    pub name: String,
    /// Its simple type, rendered (used in messages only).
    pub rendered_ty: String,
    /// Its lexical kind, rendered (used in messages only).
    pub kind: String,
    /// The σ image of its type, interned in the store under analysis.
    pub succ: SuccinctTyId,
    /// Its effective weight (after the Table 1 formula and any override).
    pub weight: f64,
}

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; never fails a `--check`.
    Info,
    /// A real defect in the environment (wasted work or redundant results).
    Warning,
    /// Degrades the engine itself (e.g. disables the A* walk).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The five diagnostic categories the analyzer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticKind {
    /// Negative effective weight: monotonicity broken, A* disabled.
    WeightAnomaly,
    /// A declaration that can appear in no completion for any goal.
    DeadDecl,
    /// Identical `(name, type)` declarations rendering identical snippets.
    DuplicateDecl,
    /// A mentioned base type no term can ever have.
    UninhabitableType,
    /// σ-indistinguishable declarations with equal effective weight.
    AmbiguousOverloads,
}

impl DiagnosticKind {
    /// The stable machine-readable code, also the allowlist key.
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticKind::WeightAnomaly => "weight-anomaly",
            DiagnosticKind::DeadDecl => "dead-decl",
            DiagnosticKind::DuplicateDecl => "duplicate-decl",
            DiagnosticKind::UninhabitableType => "uninhabitable-type",
            DiagnosticKind::AmbiguousOverloads => "ambiguous-overloads",
        }
    }

    /// The severity this kind is reported at.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticKind::WeightAnomaly => Severity::Error,
            DiagnosticKind::DeadDecl => Severity::Warning,
            DiagnosticKind::DuplicateDecl => Severity::Warning,
            DiagnosticKind::UninhabitableType => Severity::Info,
            DiagnosticKind::AmbiguousOverloads => Severity::Info,
        }
    }
}

/// One finding: a severity-coded, allowlist-addressable fact about the
/// environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Reporting severity (always `kind.severity()`).
    pub severity: Severity,
    /// The category.
    pub kind: DiagnosticKind,
    /// What the finding is *about*: a declaration name, a base-type name, or
    /// a rendered succinct type. The allowlist matches on `(code, subject)`.
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
    /// Indices (into the analyzed declaration list) of the declarations
    /// involved, sorted ascending.
    pub decls: Vec<usize>,
}

impl Diagnostic {
    fn new(kind: DiagnosticKind, subject: String, message: String, mut decls: Vec<usize>) -> Self {
        decls.sort_unstable();
        Diagnostic {
            severity: kind.severity(),
            kind,
            subject,
            message,
            decls,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity,
            self.kind.code(),
            self.message
        )
    }
}

/// The result of analyzing one environment. Every vector is sorted, so equal
/// environments produce byte-equal reports.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Number of declarations analyzed.
    pub decl_count: usize,
    /// Number of member types of `E_max` (σ images plus lambda-binder
    /// closure).
    pub member_types: usize,
    /// Number of base-type symbols producible in `E_max`.
    pub producible_types: usize,
    /// Sorted names of mentioned base types that are *not* producible.
    pub unproducible_types: Vec<String>,
    /// Sorted indices of declarations proven dead (usable in no completion).
    pub dead_decls: Vec<usize>,
    /// `false` when any effective weight (declaration or lambda) is
    /// negative — the condition that disables the A* walk.
    pub weights_monotone: bool,
    /// All findings, sorted by descending severity, then kind, subject and
    /// involved declarations.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// The highest severity among the diagnostics, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of diagnostics of the given kind.
    pub fn count_of(&self, kind: DiagnosticKind) -> usize {
        self.diagnostics.iter().filter(|d| d.kind == kind).count()
    }

    /// Number of diagnostics at the given severity.
    pub fn count_at(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Diagnostics at or above `threshold` that `allowlist` does not cover —
    /// the set a `--check` gate fails on.
    pub fn failing<'a>(
        &'a self,
        threshold: Severity,
        allowlist: &Allowlist,
    ) -> Vec<&'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= threshold && !allowlist.allows(d))
            .collect()
    }

    /// Renders the report as human-readable lines: one per diagnostic, then
    /// a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} declarations, {} member types, {} producible base types; \
             {} diagnostics ({} error, {} warning, {} info), {} dead declarations\n",
            self.decl_count,
            self.member_types,
            self.producible_types,
            self.diagnostics.len(),
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Info),
            self.dead_decls.len(),
        ));
        out
    }
}

/// The `E_max` closure and its producibility fixpoint — the reachability
/// half of the analysis, reusable on its own (the differential tests
/// consume it without building a report).
#[derive(Debug, Clone)]
pub struct Reachability {
    members: Vec<SuccinctTyId>,
    requestable: Vec<SuccinctTyId>,
    producible: HashSet<Symbol>,
}

impl Reachability {
    /// Computes the member closure and producibility fixpoint from the given
    /// seed member types (declaration σ images, plus — for a goal-directed
    /// verdict — the goal's argument types, which STRIP would add).
    pub fn compute<S: TypeStore>(store: &S, seeds: &[SuccinctTyId]) -> Reachability {
        // Member / requestable closure: args of members are requestable;
        // args of requestable (functional) types become members (the lambda
        // binders STRIP introduces).
        let mut members: BTreeSet<SuccinctTyId> = seeds.iter().copied().collect();
        let mut work: Vec<SuccinctTyId> = members.iter().copied().collect();
        let mut requestable: BTreeSet<SuccinctTyId> = BTreeSet::new();
        while let Some(member) = work.pop() {
            for &arg in store.args_of(member) {
                if requestable.insert(arg) {
                    for &binder in store.args_of(arg) {
                        if members.insert(binder) {
                            work.push(binder);
                        }
                    }
                }
            }
        }
        let members: Vec<SuccinctTyId> = members.into_iter().collect();
        let requestable: Vec<SuccinctTyId> = requestable.into_iter().collect();

        // Horn-style propagation: member i fires (producing R(i)) once all
        // its distinct argument return types are producible.
        let mut producible: HashSet<Symbol> = HashSet::new();
        let mut queue: Vec<Symbol> = Vec::new();
        let mut waiting: HashMap<Symbol, Vec<usize>> = HashMap::new();
        let mut missing: Vec<usize> = Vec::with_capacity(members.len());
        for (idx, &member) in members.iter().enumerate() {
            let needs: BTreeSet<Symbol> = store
                .args_of(member)
                .iter()
                .map(|&a| store.ret_of(a))
                .collect();
            missing.push(needs.len());
            if needs.is_empty() {
                let ret = store.ret_of(member);
                if producible.insert(ret) {
                    queue.push(ret);
                }
            } else {
                for need in needs {
                    waiting.entry(need).or_default().push(idx);
                }
            }
        }
        while let Some(sym) = queue.pop() {
            for &idx in waiting.get(&sym).map(Vec::as_slice).unwrap_or(&[]) {
                missing[idx] -= 1;
                if missing[idx] == 0 {
                    let ret = store.ret_of(members[idx]);
                    if producible.insert(ret) {
                        queue.push(ret);
                    }
                }
            }
        }

        Reachability {
            members,
            requestable,
            producible,
        }
    }

    /// The member types of `E_max`, sorted by id.
    pub fn members(&self) -> &[SuccinctTyId] {
        &self.members
    }

    /// Every type appearing in a requestable (hole) position, sorted by id.
    pub fn requestable(&self) -> &[SuccinctTyId] {
        &self.requestable
    }

    /// `true` if some term of base type `sym` is producible in `E_max`.
    pub fn is_producible(&self, sym: Symbol) -> bool {
        self.producible.contains(&sym)
    }

    /// Number of producible base-type symbols.
    pub fn producible_count(&self) -> usize {
        self.producible.len()
    }

    /// The first (lowest-id) argument of `succ` whose return type is
    /// unproducible, if any — `None` means every hole of the type can be
    /// filled, i.e. a declaration of this type is usable.
    pub fn blocking_arg<S: TypeStore>(&self, store: &S, succ: SuccinctTyId) -> Option<Symbol> {
        store
            .args_of(succ)
            .iter()
            .map(|&a| store.ret_of(a))
            .find(|ret| !self.is_producible(*ret))
    }
}

/// Analyzes one environment: computes the producibility fixpoint and emits
/// the full diagnostic report. `lambda_weight` is the weight of lambda
/// binders under the active weight configuration (it participates in the
/// monotonicity check).
pub fn analyze<S: TypeStore>(store: &S, decls: &[DeclFacts], lambda_weight: f64) -> AnalysisReport {
    let seeds: Vec<SuccinctTyId> = decls.iter().map(|d| d.succ).collect();
    let reachability = Reachability::compute(store, &seeds);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Dead declarations: some hole type can never be filled.
    let mut dead_decls: Vec<usize> = Vec::new();
    for (idx, decl) in decls.iter().enumerate() {
        if let Some(blocked) = reachability.blocking_arg(store, decl.succ) {
            dead_decls.push(idx);
            diagnostics.push(Diagnostic::new(
                DiagnosticKind::DeadDecl,
                decl.name.clone(),
                format!(
                    "`{} : {}` [{}] can appear in no completion: no term of type `{}` is producible",
                    decl.name,
                    decl.rendered_ty,
                    decl.kind,
                    store.base_name(blocked),
                ),
                vec![idx],
            ));
        }
    }

    // Uninhabitable types: mentioned base types outside the producible set.
    // "Mentioned" = the return type of any member or requestable type, which
    // covers every base name occurring anywhere in a declaration signature.
    let mut mentioned: BTreeMap<&str, Symbol> = BTreeMap::new();
    for &ty in reachability
        .members()
        .iter()
        .chain(reachability.requestable())
    {
        let ret = store.ret_of(ty);
        mentioned.insert(store.base_name(ret), ret);
    }
    let mut unproducible_types: Vec<String> = Vec::new();
    for (name, sym) in mentioned {
        if reachability.is_producible(sym) {
            continue;
        }
        unproducible_types.push(name.to_owned());
        let blocked_decls: Vec<usize> = decls
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                store
                    .args_of(d.succ)
                    .iter()
                    .any(|&a| store.ret_of(a) == sym)
            })
            .map(|(idx, _)| idx)
            .collect();
        diagnostics.push(Diagnostic::new(
            DiagnosticKind::UninhabitableType,
            name.to_owned(),
            format!("no term of type `{name}` is producible from this environment"),
            blocked_decls,
        ));
    }

    // Duplicates: identical (name, simple type) declarations.
    let mut by_identity: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (idx, decl) in decls.iter().enumerate() {
        by_identity
            .entry((decl.name.as_str(), decl.rendered_ty.as_str()))
            .or_default()
            .push(idx);
    }
    for ((name, ty), group) in &by_identity {
        if group.len() < 2 {
            continue;
        }
        diagnostics.push(Diagnostic::new(
            DiagnosticKind::DuplicateDecl,
            (*name).to_owned(),
            format!(
                "declaration `{} : {}` appears {} times; the copies render identical completions",
                name,
                ty,
                group.len(),
            ),
            group.clone(),
        ));
    }

    // Ambiguous overload groups: σ-indistinguishable declarations with equal
    // effective weight — the walk's tie-break (declaration order) is the
    // only thing ranking them. Exact duplicates are already reported above
    // and excluded here so one defect yields one finding.
    let mut by_succ: BTreeMap<SuccinctTyId, Vec<usize>> = BTreeMap::new();
    for (idx, decl) in decls.iter().enumerate() {
        by_succ.entry(decl.succ).or_default().push(idx);
    }
    for (&succ, group) in &by_succ {
        if group.len() < 2 {
            continue;
        }
        let mut by_weight: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &idx in group {
            by_weight
                .entry(decls[idx].weight.to_bits())
                .or_default()
                .push(idx);
        }
        for (bits, tied) in &by_weight {
            if tied.len() < 2 {
                continue;
            }
            let identities: BTreeSet<(&str, &str)> = tied
                .iter()
                .map(|&i| (decls[i].name.as_str(), decls[i].rendered_ty.as_str()))
                .collect();
            if identities.len() < 2 {
                continue; // pure duplicates, reported as duplicate-decl
            }
            let names: Vec<&str> = identities.iter().map(|(name, _)| *name).collect();
            diagnostics.push(Diagnostic::new(
                DiagnosticKind::AmbiguousOverloads,
                store.display_ty(succ),
                format!(
                    "{} declarations ({}) are σ-indistinguishable as `{}` with equal effective \
                     weight {}: their relative ranking is tie-break order",
                    tied.len(),
                    names.join(", "),
                    store.display_ty(succ),
                    f64::from_bits(*bits),
                ),
                tied.clone(),
            ));
        }
    }

    // Weight anomalies: negative effective weights select the best-first
    // fallback for the whole environment (A* disabled).
    let mut weights_monotone = true;
    for (idx, decl) in decls.iter().enumerate() {
        if decl.weight < 0.0 {
            weights_monotone = false;
            diagnostics.push(Diagnostic::new(
                DiagnosticKind::WeightAnomaly,
                decl.name.clone(),
                format!(
                    "declaration `{}` has negative effective weight {}: weight monotonicity is \
                     broken and the A* walk is disabled",
                    decl.name, decl.weight,
                ),
                vec![idx],
            ));
        }
    }
    if lambda_weight < 0.0 {
        weights_monotone = false;
        diagnostics.push(Diagnostic::new(
            DiagnosticKind::WeightAnomaly,
            "<lambda>".to_owned(),
            format!(
                "the lambda binder weight {lambda_weight} is negative: weight monotonicity is \
                 broken and the A* walk is disabled",
            ),
            Vec::new(),
        ));
    }

    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.kind.cmp(&b.kind))
            .then_with(|| a.subject.cmp(&b.subject))
            .then_with(|| a.decls.cmp(&b.decls))
    });

    AnalysisReport {
        decl_count: decls.len(),
        member_types: reachability.members().len(),
        producible_types: reachability.producible_count(),
        unproducible_types,
        dead_decls,
        weights_monotone,
        diagnostics,
    }
}

/// Intentional findings recorded as `(code, subject)` pairs; `*` as subject
/// covers every finding of that code. Consumed by `insynth-envlint --check`
/// and the bench harness's diagnostic gate.
///
/// File format: one entry per line, `code subject` separated by whitespace
/// (subjects may contain spaces — everything after the first field counts);
/// blank lines and lines starting with `#` are skipped. `#` elsewhere is
/// part of the subject (declaration names use `Class#member`), so there are
/// no trailing comments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    entries: BTreeSet<(String, String)>,
}

impl Allowlist {
    /// An empty allowlist (allows nothing).
    pub fn new() -> Self {
        Allowlist::default()
    }

    /// Parses the `code subject` line format. Unknown codes are rejected so
    /// a typo cannot silently allow nothing.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        const CODES: [&str; 5] = [
            "weight-anomaly",
            "dead-decl",
            "duplicate-decl",
            "uninhabitable-type",
            "ambiguous-overloads",
        ];
        let mut entries = BTreeSet::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (code, subject) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("line {}: expected `code subject`", lineno + 1))?;
            if !CODES.contains(&code) {
                return Err(format!("line {}: unknown code {:?}", lineno + 1, code));
            }
            entries.insert((code.to_owned(), subject.trim().to_owned()));
        }
        Ok(Allowlist { entries })
    }

    /// Adds one entry programmatically.
    pub fn allow(&mut self, code: &str, subject: &str) {
        self.entries.insert((code.to_owned(), subject.to_owned()));
    }

    /// `true` if the diagnostic is covered by an entry (exact subject or
    /// `*`).
    pub fn allows(&self, diagnostic: &Diagnostic) -> bool {
        let code = diagnostic.kind.code();
        self.entries
            .contains(&(code.to_owned(), diagnostic.subject.clone()))
            || self.entries.contains(&(code.to_owned(), "*".to_owned()))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insynth_lambda::Ty;
    use insynth_succinct::SuccinctStore;

    fn facts(store: &mut SuccinctStore, name: &str, ty: Ty, weight: f64) -> DeclFacts {
        DeclFacts {
            name: name.to_owned(),
            rendered_ty: ty.to_string(),
            kind: "local".to_owned(),
            succ: store.sigma(&ty),
            weight,
        }
    }

    #[test]
    fn empty_environment_has_no_findings() {
        let store = SuccinctStore::new();
        let report = analyze(&store, &[], 1.0);
        assert_eq!(report.decl_count, 0);
        assert_eq!(report.member_types, 0);
        assert!(report.diagnostics.is_empty());
        assert!(report.weights_monotone);
        assert_eq!(report.max_severity(), None);
    }

    #[test]
    fn base_declarations_are_producible_and_alive() {
        let mut store = SuccinctStore::new();
        let decls = vec![facts(&mut store, "x", Ty::base("A"), 5.0)];
        let report = analyze(&store, &decls, 1.0);
        assert_eq!(report.producible_types, 1);
        assert!(report.dead_decls.is_empty());
        assert!(report.unproducible_types.is_empty());
    }

    #[test]
    fn missing_argument_producer_kills_the_declaration() {
        let mut store = SuccinctStore::new();
        let decls = vec![
            facts(&mut store, "x", Ty::base("A"), 5.0),
            facts(
                &mut store,
                "f",
                Ty::fun(vec![Ty::base("B")], Ty::base("C")),
                20.0,
            ),
        ];
        let report = analyze(&store, &decls, 1.0);
        assert_eq!(report.dead_decls, vec![1]);
        // B is mentioned but unproducible; C is unproducible too (its only
        // producer is dead).
        assert_eq!(report.unproducible_types, vec!["B", "C"]);
        assert_eq!(report.count_of(DiagnosticKind::DeadDecl), 1);
        assert_eq!(report.count_of(DiagnosticKind::UninhabitableType), 2);
        assert_eq!(report.max_severity(), Some(Severity::Warning));
    }

    #[test]
    fn producer_chains_resolve_transitively() {
        let mut store = SuccinctStore::new();
        let decls = vec![
            facts(&mut store, "a", Ty::base("A"), 5.0),
            facts(
                &mut store,
                "f",
                Ty::fun(vec![Ty::base("A")], Ty::base("B")),
                20.0,
            ),
            facts(
                &mut store,
                "g",
                Ty::fun(vec![Ty::base("B")], Ty::base("C")),
                20.0,
            ),
        ];
        let report = analyze(&store, &decls, 1.0);
        assert_eq!(report.producible_types, 3);
        assert!(report.dead_decls.is_empty());
    }

    #[test]
    fn lambda_binders_of_functional_holes_count_as_producers() {
        // h : (A -> B) -> C. Requesting the hole `{A} -> B` strips `A` into
        // scope, so A is producible even with no declaration of type A — but
        // B still needs a real producer, so `h` is dead here.
        let mut store = SuccinctStore::new();
        let hof = Ty::fun(
            vec![Ty::fun(vec![Ty::base("A")], Ty::base("B"))],
            Ty::base("C"),
        );
        let dead = vec![facts(&mut store, "h", hof.clone(), 20.0)];
        let report = analyze(&store, &dead, 1.0);
        assert_eq!(report.dead_decls, vec![0]);
        assert!(report.unproducible_types.contains(&"B".to_owned()));
        // A *is* producible (the binder), so it is not reported.
        assert!(!report.unproducible_types.contains(&"A".to_owned()));

        // Add a way to get a B from an A and the same declaration revives.
        let mut store = SuccinctStore::new();
        let alive = vec![
            facts(&mut store, "h", hof, 20.0),
            facts(
                &mut store,
                "f",
                Ty::fun(vec![Ty::base("A")], Ty::base("B")),
                20.0,
            ),
        ];
        let report = analyze(&store, &alive, 1.0);
        assert!(report.dead_decls.is_empty());
    }

    #[test]
    fn duplicates_and_equal_weight_overloads_are_distinguished() {
        let mut store = SuccinctStore::new();
        let decls = vec![
            facts(&mut store, "x", Ty::base("A"), 5.0),
            facts(&mut store, "x", Ty::base("A"), 5.0),
            facts(&mut store, "y", Ty::base("A"), 5.0),
            facts(&mut store, "z", Ty::base("A"), 7.0),
        ];
        let report = analyze(&store, &decls, 1.0);
        // x/x is a duplicate; {x, y} at weight 5 is an ambiguous tie; z has
        // a distinct weight and joins no group.
        assert_eq!(report.count_of(DiagnosticKind::DuplicateDecl), 1);
        assert_eq!(report.count_of(DiagnosticKind::AmbiguousOverloads), 1);
        let ambiguous = report
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagnosticKind::AmbiguousOverloads)
            .unwrap();
        assert_eq!(ambiguous.decls, vec![0, 1, 2]);
    }

    #[test]
    fn pure_duplicate_ties_do_not_double_report_as_ambiguity() {
        let mut store = SuccinctStore::new();
        let decls = vec![
            facts(&mut store, "x", Ty::base("A"), 5.0),
            facts(&mut store, "x", Ty::base("A"), 5.0),
        ];
        let report = analyze(&store, &decls, 1.0);
        assert_eq!(report.count_of(DiagnosticKind::DuplicateDecl), 1);
        assert_eq!(report.count_of(DiagnosticKind::AmbiguousOverloads), 0);
    }

    #[test]
    fn negative_weights_raise_errors_and_clear_monotone() {
        let mut store = SuccinctStore::new();
        let decls = vec![facts(&mut store, "x", Ty::base("A"), -3.0)];
        let report = analyze(&store, &decls, 1.0);
        assert!(!report.weights_monotone);
        assert_eq!(report.max_severity(), Some(Severity::Error));
        assert_eq!(report.count_of(DiagnosticKind::WeightAnomaly), 1);
        // Errors sort first.
        assert_eq!(report.diagnostics[0].kind, DiagnosticKind::WeightAnomaly);

        let report = analyze(&store, &decls[..0], -1.0);
        assert!(!report.weights_monotone);
        assert_eq!(report.diagnostics[0].subject, "<lambda>");
    }

    #[test]
    fn goal_extension_revives_goal_dependent_declarations() {
        // f : {B} -> C is dead alone, but a goal B -> C makes B a member.
        let mut store = SuccinctStore::new();
        let f = store.sigma(&Ty::fun(vec![Ty::base("B")], Ty::base("C")));
        let alone = Reachability::compute(&store, &[f]);
        assert!(alone.blocking_arg(&store, f).is_some());
        let b = store.sigma(&Ty::base("B"));
        let with_goal = Reachability::compute(&store, &[f, b]);
        assert_eq!(with_goal.blocking_arg(&store, f), None);
    }

    #[test]
    fn reports_are_deterministic() {
        let mut store = SuccinctStore::new();
        let decls = vec![
            facts(&mut store, "x", Ty::base("A"), 5.0),
            facts(
                &mut store,
                "f",
                Ty::fun(vec![Ty::base("Missing")], Ty::base("B")),
                20.0,
            ),
            facts(&mut store, "x", Ty::base("A"), 5.0),
        ];
        let a = analyze(&store, &decls, 1.0);
        let b = analyze(&store, &decls, 1.0);
        assert_eq!(a, b);
        assert_eq!(a.render_human(), b.render_human());
    }

    #[test]
    fn allowlist_parses_matches_and_rejects_unknown_codes() {
        let text = "# intentional\n dead-decl  f \nuninhabitable-type *\ndead-decl C#member\n";
        let allow = Allowlist::parse(text).unwrap();
        assert_eq!(allow.len(), 3);
        let member = Diagnostic::new(
            DiagnosticKind::DeadDecl,
            "C#member".to_owned(),
            String::new(),
            vec![2],
        );
        assert!(allow.allows(&member));
        let dead = Diagnostic::new(
            DiagnosticKind::DeadDecl,
            "f".to_owned(),
            String::new(),
            vec![0],
        );
        let other = Diagnostic::new(
            DiagnosticKind::DeadDecl,
            "g".to_owned(),
            String::new(),
            vec![1],
        );
        let uninhabitable = Diagnostic::new(
            DiagnosticKind::UninhabitableType,
            "Anything".to_owned(),
            String::new(),
            Vec::new(),
        );
        assert!(allow.allows(&dead));
        assert!(!allow.allows(&other));
        assert!(allow.allows(&uninhabitable));
        assert!(Allowlist::parse("no-such-code x").is_err());
        assert!(Allowlist::parse("dead-decl").is_err());
        assert!(Allowlist::parse("").unwrap().is_empty());
    }
}
