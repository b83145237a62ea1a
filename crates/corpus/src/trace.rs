//! Editor traces: a versioned, deterministic record of completion traffic.
//!
//! A trace is what an editor session looks like from the engine's side: a
//! sequence of events against named **program points** — open a point with
//! its local declarations, query it, page for more results, edit it by
//! delta, close it — with logical **ticks** instead of wall-clock
//! timestamps (the workspace bans `SystemTime::now`; replay timing is the
//! replay driver's job, not the trace's). The same trace can be replayed
//! against the library path (`Engine`/`Session`) or rendered to the JSON
//! protocol and driven through the server, which is what makes
//! library-vs-server overhead measurable on identical workloads.
//!
//! Two entry points:
//!
//! * [`generate_trace`] — a seeded generator with knobs for point count,
//!   hot-set skew (Zipf over points), delta mix, and burst shape. Same
//!   seed + knobs → byte-identical trace, scalable to millions of events.
//! * the line-oriented text codec ([`Trace::to_text`] /
//!   [`Trace::parse`]) — versioned, diffable, greppable.
//!
//! # Format (`insynth-trace v1`)
//!
//! ```text
//! insynth-trace v1
//! env figure1 4
//! o 0 0 p0_a:local:String p0_b:local:String
//! q 0 0 10 SequenceInputStream
//! u 1 0 +p0_d0:local:String ~p0_a:50
//! p 2 0 10 10 SequenceInputStream
//! c 3 0
//! ```
//!
//! One event per line: `<op> <tick> <point> <payload…>`, ops `o`pen,
//! `q`uery, `p`age, `u`pdate, `c`lose. Declarations are encoded
//! `name:kind:type[:f=freq][:w=weight]`; names and base-type names are
//! percent-escaped so spaces and metacharacters cannot corrupt framing.
//! Function types are `(A,B->C)`, curried right-associatively on parse.

use std::collections::HashMap;
use std::fmt::Write as _;

use insynth_core::{DeclKind, Declaration};
use insynth_lambda::Ty;
use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The trace format version this module reads and writes.
pub const TRACE_VERSION: u32 = 1;

/// Which benchmark environment a trace's program points draw their ambient
/// declarations from. The trace stores the *recipe*, not the declarations:
/// resolving it (via `insynth_bench`) keeps the trace file small and the
/// corpus crate free of benchmark dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEnvSpec {
    /// The paper's Figure 1 environment with `filler` extra packages
    /// (`insynth_bench::phases_environment`).
    Figure1 { filler: usize },
    /// The scaled synthetic API model at roughly `target_decls` declarations
    /// (`insynth_bench::scaled_environment`).
    Scaled { target_decls: usize },
}

/// One timed event against a program point.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Logical timestamp. Ticks are non-decreasing across a trace; events
    /// sharing a tick form a burst that replay may issue concurrently.
    pub tick: u64,
    /// The program point the event targets. Points are dense small integers;
    /// the replay driver maps them to sessions.
    pub point: u32,
    pub kind: TraceEventKind,
}

/// The event payload.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// Open the point with these local declarations on top of the ambient
    /// environment. Reopening a closed point resets it to exactly this list.
    Open { locals: Vec<Declaration> },
    /// Ask for the best `n` completions of `goal`.
    Query { goal: Ty, n: usize },
    /// Page deeper into `goal`'s ranked stream: skip `cursor`, take `n`.
    Page { goal: Ty, n: usize, cursor: usize },
    /// Edit the point by delta.
    Update {
        adds: Vec<Declaration>,
        removes: Vec<String>,
        reweights: Vec<(String, f64)>,
    },
    /// Close the point, releasing its session.
    Close,
}

impl TraceEventKind {
    /// The single-letter opcode used in the text format.
    pub fn op(&self) -> char {
        match self {
            TraceEventKind::Open { .. } => 'o',
            TraceEventKind::Query { .. } => 'q',
            TraceEventKind::Page { .. } => 'p',
            TraceEventKind::Update { .. } => 'u',
            TraceEventKind::Close => 'c',
        }
    }
}

/// A complete versioned trace: the environment recipe plus the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub env: TraceEnvSpec,
    pub events: Vec<TraceEvent>,
}

/// Per-kind event counts for a trace (the `inspect` summary and the
/// deterministic counters the CI gate pins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub events: usize,
    pub opens: usize,
    pub queries: usize,
    pub pages: usize,
    pub updates: usize,
    pub removals: usize,
    pub closes: usize,
    pub points: usize,
    pub last_tick: u64,
}

impl Trace {
    /// Serializes to the versioned line-oriented text format. Byte-stable:
    /// the same trace always renders to the same string.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "insynth-trace v{TRACE_VERSION}");
        match self.env {
            TraceEnvSpec::Figure1 { filler } => {
                let _ = writeln!(out, "env figure1 {filler}");
            }
            TraceEnvSpec::Scaled { target_decls } => {
                let _ = writeln!(out, "env scaled {target_decls}");
            }
        }
        for event in &self.events {
            let _ = write!(out, "{} {} {}", event.kind.op(), event.tick, event.point);
            match &event.kind {
                TraceEventKind::Open { locals } => {
                    for decl in locals {
                        out.push(' ');
                        encode_decl(decl, &mut out);
                    }
                }
                TraceEventKind::Query { goal, n } => {
                    let _ = write!(out, " {n} ");
                    encode_ty(goal, &mut out);
                }
                TraceEventKind::Page { goal, n, cursor } => {
                    let _ = write!(out, " {n} {cursor} ");
                    encode_ty(goal, &mut out);
                }
                TraceEventKind::Update {
                    adds,
                    removes,
                    reweights,
                } => {
                    for decl in adds {
                        out.push_str(" +");
                        encode_decl(decl, &mut out);
                    }
                    for name in removes {
                        out.push_str(" -");
                        out.push_str(&escape(name));
                    }
                    for (name, weight) in reweights {
                        out.push_str(" ~");
                        out.push_str(&escape(name));
                        let _ = write!(out, ":{weight}");
                    }
                }
                TraceEventKind::Close => {}
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Trace::to_text`].
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(0, "empty trace"))?;
        if header.trim() != format!("insynth-trace v{TRACE_VERSION}") {
            return Err(err(1, format!("bad header {header:?}")));
        }
        let (env_no, env_line) = lines.next().ok_or_else(|| err(1, "missing env line"))?;
        let env = parse_env_line(env_line).map_err(|m| err(env_no + 1, m))?;
        let mut events = Vec::new();
        let mut last_tick = 0u64;
        for (no, line) in lines {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let event = parse_event_line(line).map_err(|m| err(no + 1, m))?;
            if event.tick < last_tick {
                return Err(err(no + 1, "ticks must be non-decreasing"));
            }
            last_tick = event.tick;
            events.push(event);
        }
        Ok(Trace { env, events })
    }

    /// Counts events by kind (plus distinct points and the final tick).
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut points = std::collections::HashSet::new();
        for event in &self.events {
            s.events += 1;
            points.insert(event.point);
            s.last_tick = event.tick;
            match &event.kind {
                TraceEventKind::Open { .. } => s.opens += 1,
                TraceEventKind::Query { .. } => s.queries += 1,
                TraceEventKind::Page { .. } => s.pages += 1,
                TraceEventKind::Update { removes, .. } => {
                    s.updates += 1;
                    s.removals += removes.len();
                }
                TraceEventKind::Close => s.closes += 1,
            }
        }
        s.points = points.len();
        s
    }
}

/// A parse failure: the 1-based line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

fn err(line: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Token codecs
// ---------------------------------------------------------------------------

/// Characters with structural meaning somewhere in the format; escaped
/// everywhere so names can never corrupt framing.
fn is_meta(c: char) -> bool {
    matches!(
        c,
        '%' | ' ' | ':' | '(' | ')' | ',' | '-' | '+' | '~' | '\n'
    )
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if is_meta(c) {
            let mut buf = [0u8; 4];
            for byte in c.encode_utf8(&mut buf).bytes() {
                let _ = write!(out, "%{byte:02X}");
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let mut bytes = Vec::with_capacity(s.len());
    let mut chars = s.bytes();
    while let Some(b) = chars.next() {
        if b == b'%' {
            let hi = chars.next().ok_or("truncated % escape")?;
            let lo = chars.next().ok_or("truncated % escape")?;
            let hex = [hi, lo];
            let hex = std::str::from_utf8(&hex).map_err(|_| "bad % escape")?;
            bytes.push(u8::from_str_radix(hex, 16).map_err(|_| "bad % escape")?);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes).map_err(|_| "escape decodes to invalid UTF-8".to_string())
}

fn encode_ty(ty: &Ty, out: &mut String) {
    match ty {
        Ty::Base(name) => out.push_str(&escape(name)),
        Ty::Arrow(..) => {
            let (args, ret) = ty.uncurry();
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_ty(arg, out);
            }
            out.push_str("->");
            encode_ty(ret, out);
            out.push(')');
        }
    }
}

/// Recursive-descent parser over the `encode_ty` grammar.
struct TyParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> TyParser<'a> {
    fn parse(src: &'a str) -> Result<Ty, String> {
        let mut p = TyParser { src, pos: 0 };
        let ty = p.ty()?;
        if p.pos != p.src.len() {
            return Err(format!("trailing input in type {src:?}"));
        }
        Ok(ty)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn ty(&mut self) -> Result<Ty, String> {
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let mut args = Vec::new();
            loop {
                args.push(self.ty()?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'-') => {
                        if self.src[self.pos..].starts_with("->") {
                            self.pos += 2;
                            break;
                        }
                        return Err(format!("stray '-' in type {:?}", self.src));
                    }
                    other => return Err(format!("expected ',' or '->', got {other:?}")),
                }
            }
            let ret = self.ty()?;
            if self.peek() != Some(b')') {
                return Err(format!("unterminated '(' in type {:?}", self.src));
            }
            self.pos += 1;
            Ok(Ty::fun(args, ret))
        } else {
            let start = self.pos;
            while let Some(b) = self.peek() {
                // Unescaped metacharacters end the base-type name; '%'
                // escapes pass through.
                if matches!(b, b'(' | b')' | b',' | b'-' | b':' | b' ' | b'+' | b'~') {
                    break;
                }
                self.pos += 1;
            }
            if self.pos == start {
                return Err(format!("empty type name in {:?}", self.src));
            }
            Ok(Ty::Base(unescape(&self.src[start..self.pos])?))
        }
    }
}

fn kind_name(kind: DeclKind) -> &'static str {
    match kind {
        DeclKind::Lambda => "lambda",
        DeclKind::Local => "local",
        DeclKind::Coercion => "coercion",
        DeclKind::Class => "class",
        DeclKind::Package => "package",
        DeclKind::Literal => "literal",
        DeclKind::Imported => "imported",
    }
}

fn kind_from_name(name: &str) -> Option<DeclKind> {
    Some(match name {
        "lambda" => DeclKind::Lambda,
        "local" => DeclKind::Local,
        "coercion" => DeclKind::Coercion,
        "class" => DeclKind::Class,
        "package" => DeclKind::Package,
        "literal" => DeclKind::Literal,
        "imported" => DeclKind::Imported,
        _ => return None,
    })
}

fn encode_decl(decl: &Declaration, out: &mut String) {
    out.push_str(&escape(&decl.name));
    out.push(':');
    out.push_str(kind_name(decl.kind));
    out.push(':');
    encode_ty(&decl.ty, out);
    if let Some(f) = decl.frequency {
        let _ = write!(out, ":f={f}");
    }
    if let Some(w) = decl.weight_override {
        let _ = write!(out, ":w={w}");
    }
}

fn parse_decl(token: &str) -> Result<Declaration, String> {
    let mut fields = token.split(':');
    let name = unescape(fields.next().ok_or("empty declaration")?)?;
    let kind_field = fields
        .next()
        .ok_or_else(|| format!("declaration {token:?} has no kind"))?;
    let kind = kind_from_name(kind_field)
        .ok_or_else(|| format!("unknown declaration kind {kind_field:?}"))?;
    let ty_field = fields
        .next()
        .ok_or_else(|| format!("declaration {token:?} has no type"))?;
    let mut decl = Declaration::new(name, TyParser::parse(ty_field)?, kind);
    for extra in fields {
        if let Some(f) = extra.strip_prefix("f=") {
            decl.frequency = Some(f.parse().map_err(|_| format!("bad frequency {extra:?}"))?);
        } else if let Some(w) = extra.strip_prefix("w=") {
            decl.weight_override = Some(w.parse().map_err(|_| format!("bad weight {extra:?}"))?);
        } else {
            return Err(format!("unknown declaration field {extra:?}"));
        }
    }
    Ok(decl)
}

fn parse_env_line(line: &str) -> Result<TraceEnvSpec, String> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("env") {
        return Err(format!("expected env line, got {line:?}"));
    }
    let which = parts.next().ok_or("env line missing model")?;
    let arg = parts
        .next()
        .ok_or("env line missing parameter")?
        .parse::<usize>()
        .map_err(|_| "env parameter must be an integer".to_string())?;
    if parts.next().is_some() {
        return Err(format!("trailing input on env line {line:?}"));
    }
    match which {
        "figure1" => Ok(TraceEnvSpec::Figure1 { filler: arg }),
        "scaled" => Ok(TraceEnvSpec::Scaled { target_decls: arg }),
        other => Err(format!("unknown env model {other:?}")),
    }
}

fn parse_event_line(line: &str) -> Result<TraceEvent, String> {
    let mut parts = line.split(' ').filter(|t| !t.is_empty());
    let op = parts.next().ok_or("empty event line")?;
    let tick = parts
        .next()
        .ok_or("event missing tick")?
        .parse::<u64>()
        .map_err(|_| "tick must be an integer".to_string())?;
    let point = parts
        .next()
        .ok_or("event missing point")?
        .parse::<u32>()
        .map_err(|_| "point must be an integer".to_string())?;
    let kind = match op {
        "o" => TraceEventKind::Open {
            locals: parts.map(parse_decl).collect::<Result<_, _>>()?,
        },
        "q" | "p" => {
            let n = parts
                .next()
                .ok_or("query missing n")?
                .parse::<usize>()
                .map_err(|_| "n must be an integer".to_string())?;
            let cursor = if op == "p" {
                parts
                    .next()
                    .ok_or("page missing cursor")?
                    .parse::<usize>()
                    .map_err(|_| "cursor must be an integer".to_string())?
            } else {
                0
            };
            let goal = TyParser::parse(parts.next().ok_or("query missing goal type")?)?;
            if parts.next().is_some() {
                return Err(format!("trailing input on event {line:?}"));
            }
            if op == "q" {
                TraceEventKind::Query { goal, n }
            } else {
                TraceEventKind::Page { goal, n, cursor }
            }
        }
        "u" => {
            let mut adds = Vec::new();
            let mut removes = Vec::new();
            let mut reweights = Vec::new();
            for token in parts {
                if let Some(decl) = token.strip_prefix('+') {
                    adds.push(parse_decl(decl)?);
                } else if let Some(name) = token.strip_prefix('-') {
                    removes.push(unescape(name)?);
                } else if let Some(rw) = token.strip_prefix('~') {
                    let (name, weight) = rw
                        .split_once(':')
                        .ok_or_else(|| format!("reweight {token:?} missing ':weight'"))?;
                    reweights.push((
                        unescape(name)?,
                        weight
                            .parse::<f64>()
                            .map_err(|_| format!("bad reweight value {weight:?}"))?,
                    ));
                } else {
                    return Err(format!("unknown update token {token:?}"));
                }
            }
            TraceEventKind::Update {
                adds,
                removes,
                reweights,
            }
        }
        "c" => {
            if parts.next().is_some() {
                return Err(format!("trailing input on event {line:?}"));
            }
            TraceEventKind::Close
        }
        other => return Err(format!("unknown event op {other:?}")),
    };
    Ok(TraceEvent { tick, point, kind })
}

// ---------------------------------------------------------------------------
// Seeded generator
// ---------------------------------------------------------------------------

/// Knobs for [`generate_trace`]. The defaults describe a plausible editing
/// session: a hot working set (Zipf s=1.1 over points), one edit per ~6
/// queries, occasional paging, rare closes, short bursts.
#[derive(Debug, Clone)]
pub struct TraceGenConfig {
    pub seed: u64,
    /// Number of distinct program points.
    pub points: u32,
    /// Total events to generate.
    pub events: u64,
    /// Environment recipe recorded in the trace header.
    pub env: TraceEnvSpec,
    /// Zipf exponent for the point sampler: 0 = uniform traffic, larger =
    /// hotter hot set.
    pub zipf_exponent: f64,
    /// Probability an event on an open point is an update.
    pub update_fraction: f64,
    /// Probability an update also removes a previously added declaration
    /// (exercising the engine's removal path).
    pub remove_fraction: f64,
    /// Probability an event on an open point pages deeper instead of
    /// starting a fresh query.
    pub page_fraction: f64,
    /// Probability an event on an open point closes it.
    pub close_fraction: f64,
    /// Maximum events sharing one tick (burst size ≥ 1).
    pub burst: u32,
    /// Queries ask for `1..=max_n` completions.
    pub max_n: usize,
    /// Goal types queries draw from (uniformly).
    pub goals: Vec<Ty>,
}

impl Default for TraceGenConfig {
    fn default() -> Self {
        TraceGenConfig {
            seed: 42,
            points: 8,
            events: 1000,
            env: TraceEnvSpec::Figure1 { filler: 4 },
            zipf_exponent: 1.1,
            update_fraction: 0.15,
            remove_fraction: 0.3,
            page_fraction: 0.2,
            close_fraction: 0.02,
            burst: 4,
            max_n: 10,
            // Inhabited in both the Figure 1 and the scaled environments.
            goals: vec![
                Ty::base("SequenceInputStream"),
                Ty::base("String"),
                Ty::base("BufferedReader"),
                Ty::base("FileInputStream"),
            ],
        }
    }
}

/// Per-point generator state.
#[derive(Default)]
struct PointState {
    open: bool,
    /// Names added by updates since the last open (removal candidates).
    added: Vec<String>,
    /// Monotonic counter naming added declarations (never reused, so a
    /// remove-then-add sequence cannot silently collide).
    next_add: u64,
    /// Paging cursor per goal index.
    cursors: HashMap<usize, usize>,
}

/// The two stable locals every point opens with. Names are prefixed with the
/// point id, so distinct points always have distinct environment
/// fingerprints and never share engine cache entries by accident.
fn base_locals(point: u32) -> Vec<Declaration> {
    vec![
        Declaration::new(format!("p{point}_a"), Ty::base("String"), DeclKind::Local),
        Declaration::new(
            format!("p{point}_b"),
            Ty::fun(vec![Ty::base("String")], Ty::base("String")),
            DeclKind::Local,
        ),
    ]
}

/// Generates a deterministic trace: a pure function of the config, so the
/// same seed and knobs always yield a byte-identical trace.
pub fn generate_trace(config: &TraceGenConfig) -> Trace {
    assert!(config.points > 0, "trace needs at least one point");
    assert!(
        !config.goals.is_empty(),
        "trace needs at least one goal type"
    );
    assert!(config.max_n > 0, "max_n must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.points as u64, config.zipf_exponent)
        .expect("Zipf parameters are validated above");
    let mut states: Vec<PointState> = (0..config.points).map(|_| PointState::default()).collect();
    let mut events = Vec::with_capacity(config.events.min(1 << 20) as usize);
    let mut tick = 0u64;
    let mut burst_left = 0u32;

    for _ in 0..config.events {
        if burst_left == 0 {
            tick += rng.gen_range(1u64..4);
            burst_left = if config.burst > 1 {
                rng.gen_range(1u32..config.burst + 1)
            } else {
                1
            };
        }
        burst_left -= 1;

        let point = (zipf.sample(&mut rng) - 1) as u32;
        let state = &mut states[point as usize];

        let kind = if !state.open {
            state.open = true;
            state.added.clear();
            state.cursors.clear();
            TraceEventKind::Open {
                locals: base_locals(point),
            }
        } else {
            let roll = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if roll < config.close_fraction {
                state.open = false;
                TraceEventKind::Close
            } else if roll < config.close_fraction + config.update_fraction {
                let mut adds = Vec::new();
                let mut removes = Vec::new();
                let mut reweights = Vec::new();
                let id = state.next_add;
                state.next_add += 1;
                let decl = if rng.gen_bool(0.5) {
                    Declaration::new(
                        format!("p{point}_d{id}"),
                        Ty::base("String"),
                        DeclKind::Local,
                    )
                } else {
                    Declaration::new(
                        format!("p{point}_f{id}"),
                        Ty::fun(vec![Ty::base("String")], Ty::base("String")),
                        DeclKind::Imported,
                    )
                    .with_frequency(rng.gen_range(0u64..500))
                };
                state.added.push(decl.name.clone());
                adds.push(decl);
                if !state.added.is_empty() && rng.gen_bool(config.remove_fraction) {
                    let victim = rng.gen_range(0..state.added.len());
                    removes.push(state.added.swap_remove(victim));
                }
                if rng.gen_bool(0.25) {
                    reweights.push((format!("p{point}_a"), rng.gen_range(1u32..100) as f64));
                }
                TraceEventKind::Update {
                    adds,
                    removes,
                    reweights,
                }
            } else {
                let goal_idx = rng.gen_range(0..config.goals.len());
                let n = rng.gen_range(1..config.max_n + 1);
                let cursor = state.cursors.entry(goal_idx).or_insert(0);
                if *cursor > 0
                    && roll < config.close_fraction + config.update_fraction + config.page_fraction
                {
                    let at = *cursor;
                    *cursor += n;
                    TraceEventKind::Page {
                        goal: config.goals[goal_idx].clone(),
                        n,
                        cursor: at,
                    }
                } else {
                    *cursor = n;
                    TraceEventKind::Query {
                        goal: config.goals[goal_idx].clone(),
                        n,
                    }
                }
            }
        };
        events.push(TraceEvent { tick, point, kind });
    }

    Trace {
        env: config.env,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_roundtrips() {
        let config = TraceGenConfig {
            events: 500,
            ..TraceGenConfig::default()
        };
        let a = generate_trace(&config);
        let b = generate_trace(&config);
        assert_eq!(a.to_text(), b.to_text());
        let parsed = Trace::parse(&a.to_text()).expect("roundtrip parse");
        assert_eq!(parsed, a);

        let other = generate_trace(&TraceGenConfig { seed: 43, ..config });
        assert_ne!(a.to_text(), other.to_text());
    }

    #[test]
    fn summary_counts_reflect_the_mix() {
        let trace = generate_trace(&TraceGenConfig {
            events: 2000,
            ..TraceGenConfig::default()
        });
        let s = trace.summary();
        assert_eq!(s.events, 2000);
        assert!(s.opens >= 1, "every used point opens at least once");
        assert!(s.queries > s.updates, "queries dominate the default mix");
        assert!(s.updates > 0 && s.removals > 0 && s.pages > 0 && s.closes > 0);
        assert!(s.points <= 8);
        assert!(s.last_tick > 0);
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let decl = Declaration::new(
            "weird name:with (all) the, meta-chars +%~",
            Ty::fun(
                vec![
                    Ty::base("A B"),
                    Ty::fun(vec![Ty::base("C:D")], Ty::base("E")),
                ],
                Ty::base("F,G"),
            ),
            DeclKind::Imported,
        )
        .with_frequency(7)
        .with_weight(12.5);
        let trace = Trace {
            env: TraceEnvSpec::Scaled {
                target_decls: 13000,
            },
            events: vec![
                TraceEvent {
                    tick: 0,
                    point: 3,
                    kind: TraceEventKind::Open {
                        locals: vec![decl.clone()],
                    },
                },
                TraceEvent {
                    tick: 1,
                    point: 3,
                    kind: TraceEventKind::Update {
                        adds: vec![],
                        removes: vec![decl.name.clone()],
                        reweights: vec![("an~other + name".to_string(), 3.25)],
                    },
                },
                TraceEvent {
                    tick: 4,
                    point: 3,
                    kind: TraceEventKind::Page {
                        goal: Ty::fun(vec![Ty::base("X")], Ty::base("Y Z")),
                        n: 5,
                        cursor: 10,
                    },
                },
            ],
        };
        let text = trace.to_text();
        assert_eq!(Trace::parse(&text).expect("roundtrip"), trace);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(Trace::parse("").is_err());
        assert!(Trace::parse("insynth-trace v99\nenv figure1 4\n").is_err());
        assert!(Trace::parse("insynth-trace v1\nenv mars 4\n").is_err());
        assert!(Trace::parse("insynth-trace v1\nenv figure1 4\nx 0 0\n").is_err());
        assert!(Trace::parse("insynth-trace v1\nenv figure1 4\nq 0 0 10\n").is_err(),);
        // Ticks must be non-decreasing.
        assert!(Trace::parse("insynth-trace v1\nenv figure1 4\nc 5 0\nc 4 0\n").is_err());
        // Close takes no payload.
        assert!(Trace::parse("insynth-trace v1\nenv figure1 4\nc 0 0 extra\n").is_err());
    }

    #[test]
    fn zipf_skew_concentrates_traffic() {
        let skewed = generate_trace(&TraceGenConfig {
            points: 16,
            events: 4000,
            zipf_exponent: 1.5,
            close_fraction: 0.0,
            ..TraceGenConfig::default()
        });
        let mut per_point = [0usize; 16];
        for e in &skewed.events {
            per_point[e.point as usize] += 1;
        }
        let hottest = *per_point.iter().max().unwrap();
        assert!(
            hottest > 4000 / 4,
            "expected a hot point under s=1.5, got {per_point:?}"
        );
    }
}
