//! The dispatcher and handlers: a [`Server`] owns the engine, the session
//! table, the cancellation registry, and the metrics, and turns one parsed
//! request into one response object.
//!
//! Threading contract: every method takes `&self`; the transport may call
//! them from any worker. `$/cancel` and envelope errors are *resolved* at
//! parse time (on the transport's reader thread) via [`Server::parse_line`]
//! so a cancellation is never stuck in the queue behind the request it
//! targets — but the metrics they imply are deferred ([`Bookkeeping`],
//! applied via [`Server::record`] when the canned response is served in
//! arrival order, keeping scripted stats deterministic). Everything else
//! executes via [`Server::execute`].
//!
//! Admission control is deliberately boring: page sizes clamp to
//! [`ServerConfig::max_n`] and never exceed [`MAX_PAGE_VALUES`], per-request step/time budgets can only *lower*
//! the engine's configured caps (never raise them), and `env/open` beyond
//! [`ServerConfig::max_sessions`] is refused — so one pathological client
//! request cannot starve the loop or grow state without bound.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use insynth_core::{AnalysisReport, CancelToken, Engine, Query, Session};

use crate::json::{parse, Json};
use crate::metrics::{Method, Metrics};
use crate::protocol::{
    delta_from_json, env_from_json, parse_request, response_err, response_ok, ty_from_json,
    ProtocolError, Request, CANCELLED, METHOD_NOT_FOUND, PARSE_ERROR, SESSION_LIMIT,
    SESSION_NOT_FOUND,
};

/// The most values one `completion/complete` page may hold: the MCP
/// completion result schema allows at most 100. [`ServerConfig::max_n`]
/// can lower the page size below this but never raise it above.
pub const MAX_PAGE_VALUES: usize = 100;

/// Server-level admission limits. The engine's own [`SynthesisConfig`]
/// budgets stay the per-query ceiling; these bound the server around it.
///
/// [`SynthesisConfig`]: insynth_core::SynthesisConfig
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently open sessions (`env/open` refuses beyond it).
    pub max_sessions: usize,
    /// Maximum page size per `completion/complete`; larger `n`s clamp.
    /// Values above [`MAX_PAGE_VALUES`] act as [`MAX_PAGE_VALUES`].
    pub max_n: usize,
    /// Maximum parsed-but-unserved requests before the transport refuses
    /// new work with an `OVERLOADED` error.
    pub max_queue_depth: usize,
    /// Worker threads serving requests. The default of 1 keeps scripted
    /// transcripts byte-stable (responses are sequenced in arrival order
    /// regardless, but single-flight also makes engine counters exact).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_n: MAX_PAGE_VALUES,
            max_queue_depth: 256,
            workers: 1,
        }
    }
}

#[derive(Debug, Default)]
struct SessionTable {
    next_id: u64,
    open: HashMap<u64, Arc<Session>>,
}

/// In-flight cancellation state. Tokens register at parse time (reader
/// thread), so `$/cancel` can reach a request that is still queued; ids
/// cancelled before their request ever arrives are remembered and applied
/// on arrival.
#[derive(Debug, Default)]
struct CancelRegistry {
    active: HashMap<u64, CancelToken>,
    pre_cancelled: HashSet<u64>,
}

/// Metric bookkeeping a canned response implies. Recorded via
/// [`Server::record`] when the response is *served* (in arrival order, on a
/// worker), not when the line was parsed: the reader thread runs well ahead
/// of the workers, and counters bumped at parse time would race with the
/// `server/stats` requests a scripted session interleaves — the transcript
/// would no longer be byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bookkeeping {
    /// One protocol error (unparseable line or bad envelope).
    Error,
    /// One `$/cancel` request, acknowledged.
    Cancel,
    /// One `$/cancel` request that was itself malformed.
    CancelError,
}

/// What the reader thread got out of one input line.
#[derive(Debug)]
pub enum Parsed {
    /// A request to enqueue for a worker, with its pre-registered token.
    Job {
        request: Request,
        cancel: CancelToken,
    },
    /// A pre-computed response (envelope errors, `$/cancel` acks) — still
    /// sequenced into the output at this line's position, with its metrics
    /// applied via [`Server::record`] only when it is served.
    Immediate {
        response: Json,
        bookkeeping: Bookkeeping,
    },
}

/// The completion service: engine + sessions + cancellation + metrics.
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    config: ServerConfig,
    metrics: Metrics,
    sessions: Mutex<SessionTable>,
    cancels: Mutex<CancelRegistry>,
    /// Queue depth, maintained by the transport (parse increments, worker
    /// pickup decrements); `parse_line` refuses work beyond the cap.
    queued: AtomicU64,
}

fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Server {
    pub fn new(engine: Engine, config: ServerConfig) -> Self {
        Server {
            engine,
            config,
            metrics: Metrics::new(),
            sessions: Mutex::new(SessionTable::default()),
            cancels: Mutex::new(CancelRegistry::default()),
            queued: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of requests parsed but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    pub(crate) fn enqueue(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn dequeue(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// Reader-thread entry point: parse one input line into either a job
    /// (with its cancellation token registered) or an immediate response.
    ///
    /// `$/cancel` is handled here, not in a worker: if the target request
    /// is registered its token fires at once (a worker mid-walk observes it
    /// at the next pop boundary); otherwise the id is remembered and the
    /// request is refused on arrival. Both are acknowledged with
    /// `{"cancelled": target, "in_flight": bool}`.
    pub fn parse_line(&self, line: &str) -> Parsed {
        let value = match parse(line) {
            Ok(value) => value,
            Err(err) => {
                return Parsed::Immediate {
                    response: response_err(
                        None,
                        &ProtocolError::new(PARSE_ERROR, format!("invalid JSON: {err}")),
                    ),
                    bookkeeping: Bookkeeping::Error,
                };
            }
        };
        let request = match parse_request(&value) {
            Ok(request) => request,
            Err(err) => {
                let id = value.get("id").and_then(Json::as_u64);
                return Parsed::Immediate {
                    response: response_err(id, &err),
                    bookkeeping: Bookkeeping::Error,
                };
            }
        };
        if request.method == Method::Cancel.name() {
            let (response, bookkeeping) = match request.params.get("id").and_then(Json::as_u64) {
                Some(target) => {
                    let in_flight = self.cancel_request(target);
                    (
                        response_ok(
                            request.id,
                            Json::object([
                                ("cancelled", Json::from(target)),
                                ("in_flight", Json::from(in_flight)),
                            ]),
                        ),
                        Bookkeeping::Cancel,
                    )
                }
                None => (
                    response_err(
                        Some(request.id),
                        &ProtocolError::invalid_params("$/cancel needs integer \"id\""),
                    ),
                    Bookkeeping::CancelError,
                ),
            };
            return Parsed::Immediate {
                response,
                bookkeeping,
            };
        }
        let cancel = self.register_cancel(request.id);
        Parsed::Job { request, cancel }
    }

    /// Applies the metric bookkeeping of a canned response. Called by
    /// whoever *serves* the response (a transport worker, or
    /// [`handle_line`](Server::handle_line)) so counter updates happen in
    /// arrival order, never racing ahead on the reader thread.
    pub fn record(&self, bookkeeping: Bookkeeping) {
        match bookkeeping {
            Bookkeeping::Error => self.metrics.record_error(),
            Bookkeeping::Cancel => self.metrics.record_request(Method::Cancel),
            Bookkeeping::CancelError => {
                self.metrics.record_request(Method::Cancel);
                self.metrics.record_error();
            }
        }
    }

    /// Fires the token of an in-flight request (returning `true`), or
    /// records the id for pre-arrival cancellation (returning `false`).
    pub fn cancel_request(&self, target: u64) -> bool {
        let mut registry = lock_recovering(&self.cancels);
        match registry.active.get(&target) {
            Some(token) => {
                token.cancel();
                true
            }
            None => {
                registry.pre_cancelled.insert(target);
                false
            }
        }
    }

    /// Registers a token for `request_id`, pre-fired if a `$/cancel` for
    /// that id already arrived.
    fn register_cancel(&self, request_id: u64) -> CancelToken {
        let token = CancelToken::new();
        let mut registry = lock_recovering(&self.cancels);
        if registry.pre_cancelled.remove(&request_id) {
            token.cancel();
        }
        registry.active.insert(request_id, token.clone());
        token
    }

    fn unregister_cancel(&self, request_id: u64) {
        lock_recovering(&self.cancels).active.remove(&request_id);
    }

    /// Worker entry point: dispatch one parsed request to its handler and
    /// package the response. Never panics on bad input — every failure is
    /// an error reply, and the loop keeps serving.
    pub fn execute(&self, request: &Request, cancel: &CancelToken) -> Json {
        let started = Instant::now();
        let outcome = match Method::from_name(&request.method) {
            None => Err(ProtocolError::new(
                METHOD_NOT_FOUND,
                format!("unknown method {:?}", request.method),
            )),
            Some(method) => {
                self.metrics.record_request(method);
                if cancel.is_cancelled() {
                    Err(ProtocolError::cancelled())
                } else {
                    match method {
                        Method::EnvOpen => self.env_open(&request.params),
                        Method::EnvUpdate => self.env_update(&request.params),
                        Method::EnvAnalyze => self.env_analyze(&request.params),
                        Method::Complete => self.complete(&request.params, cancel, started),
                        Method::SessionClose => self.session_close(&request.params),
                        Method::Stats => self.stats(&request.params),
                        Method::Cancel => unreachable!("$/cancel is handled at parse time"),
                    }
                }
            }
        };
        self.unregister_cancel(request.id);
        match outcome {
            Ok(result) => response_ok(request.id, result),
            Err(err) => {
                if err.code == CANCELLED {
                    self.metrics.record_cancelled();
                } else {
                    self.metrics.record_error();
                }
                response_err(Some(request.id), &err)
            }
        }
    }

    /// Convenience for tests and embedders: parse + execute one line.
    pub fn handle_line(&self, line: &str) -> Json {
        match self.parse_line(line) {
            Parsed::Immediate {
                response,
                bookkeeping,
            } => {
                self.record(bookkeeping);
                response
            }
            Parsed::Job { request, cancel } => self.execute(&request, &cancel),
        }
    }

    fn env_open(&self, params: &Json) -> Result<Json, ProtocolError> {
        let env = env_from_json(
            params
                .get("env")
                .ok_or_else(|| ProtocolError::invalid_params("env/open needs \"env\""))?,
        )?;
        {
            let table = lock_recovering(&self.sessions);
            if table.open.len() >= self.config.max_sessions {
                return Err(ProtocolError::new(
                    SESSION_LIMIT,
                    format!("session table full ({} open)", table.open.len()),
                ));
            }
        }
        // Prepare outside the table lock: σ can be the expensive part, and
        // other workers' lookups must not wait on it.
        let session = Arc::new(self.engine.prepare(&env));
        let mut table = lock_recovering(&self.sessions);
        table.next_id += 1;
        let id = table.next_id;
        table.open.insert(id, Arc::clone(&session));
        Ok(session_summary(id, &session))
    }

    fn env_update(&self, params: &Json) -> Result<Json, ProtocolError> {
        let id = session_id(params)?;
        let delta = delta_from_json(
            params
                .get("delta")
                .ok_or_else(|| ProtocolError::invalid_params("env/update needs \"delta\""))?,
        )?;
        let session = self.lookup(id)?;
        // The session id now addresses the edited point; the previous
        // point's preparation and graphs stay cached on the engine, so
        // reverting the edit later is again incremental.
        let updated = Arc::new(session.update(&delta));
        lock_recovering(&self.sessions)
            .open
            .insert(id, Arc::clone(&updated));
        Ok(session_summary(id, &updated))
    }

    fn env_analyze(&self, params: &Json) -> Result<Json, ProtocolError> {
        let id = session_id(params)?;
        let session = self.lookup(id)?;
        // Served from the report kept on the session's prepared point when
        // that point (the identical declaration list) was analyzed before;
        // diagnostics are deterministic, so repeated calls are
        // byte-identical.
        let report = session.analyze();
        Ok(report_to_json(&report))
    }

    fn complete(
        &self,
        params: &Json,
        cancel: &CancelToken,
        started: Instant,
    ) -> Result<Json, ProtocolError> {
        let id = session_id(params)?;
        let session = self.lookup(id)?;
        let goal =
            ty_from_json(params.get("goal").ok_or_else(|| {
                ProtocolError::invalid_params("completion/complete needs \"goal\"")
            })?)?;
        let n = optional_u64(params, "n")?
            .unwrap_or(10)
            .min(self.config.max_n.min(MAX_PAGE_VALUES) as u64) as usize;
        let cursor = optional_u64(params, "cursor")?.unwrap_or(0) as usize;

        let mut query = Query::new(goal)
            .with_n(cursor.saturating_add(n))
            .with_cancel_token(cancel.clone());
        // Per-request budget overrides are admission-clamped: they can
        // lower the engine's configured caps but never raise them.
        let engine_config = self.engine.config();
        if let Some(steps) = optional_u64(params, "max_steps")? {
            query = query.with_max_reconstruction_steps(
                (steps as usize).min(engine_config.max_reconstruction_steps),
            );
        }
        if let Some(depth) = optional_u64(params, "max_depth")? {
            query = query.with_max_depth(depth as usize);
        }
        if let Some(ms) = optional_u64(params, "timeout_ms")? {
            let requested = Duration::from_millis(ms);
            let capped = match engine_config.reconstruction_time_limit {
                Some(limit) => requested.min(limit),
                None => requested,
            };
            query = query.with_reconstruction_time_limit(Some(capped));
        }

        let result = session.query(&query);
        if cancel.is_cancelled() {
            return Err(ProtocolError::cancelled());
        }

        let values: Vec<Json> = result
            .snippets
            .iter()
            .skip(cursor)
            .map(|snippet| {
                Json::object([
                    ("term", Json::from(snippet.term.to_string())),
                    ("weight", Json::from(snippet.weight.value())),
                    ("depth", Json::from(snippet.depth)),
                    ("coercions", Json::from(snippet.coercions)),
                ])
            })
            .collect();
        self.metrics
            .record_completion(values.len(), result.stats.resumed, started.elapsed());
        Ok(Json::object([
            ("values", Json::Arr(values)),
            ("total", Json::from(result.snippets.len())),
            ("has_more", Json::from(result.stats.has_more)),
            ("cursor", Json::from(result.snippets.len())),
            ("resumed", Json::from(result.stats.resumed)),
            ("truncated", Json::from(result.stats.truncated)),
            ("steps", Json::from(result.stats.reconstruction_new_steps)),
        ]))
    }

    fn session_close(&self, params: &Json) -> Result<Json, ProtocolError> {
        let id = session_id(params)?;
        match lock_recovering(&self.sessions).open.remove(&id) {
            Some(_) => Ok(Json::object([("closed", Json::from(id))])),
            None => Err(unknown_session(id)),
        }
    }

    fn stats(&self, params: &Json) -> Result<Json, ProtocolError> {
        let counters_only = params
            .get("counters_only")
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| ProtocolError::invalid_params("\"counters_only\" is a bool"))
            })
            .transpose()?
            .unwrap_or(false);
        let engine = self.engine.stats();
        let sessions_open = lock_recovering(&self.sessions).open.len();
        let requests = Json::Obj(
            Method::ALL
                .into_iter()
                .map(|m| {
                    (
                        m.name().to_string(),
                        Json::from(self.metrics.request_count(m)),
                    )
                })
                .collect(),
        );
        let mut fields = vec![
            ("sessions", Json::from(sessions_open)),
            ("requests", requests),
            (
                "completions",
                Json::object([
                    ("count", Json::from(self.metrics.completion_count())),
                    ("values", Json::from(self.metrics.values_served())),
                    ("resumed", Json::from(self.metrics.resumed_count())),
                    ("cancelled", Json::from(self.metrics.cancelled_count())),
                    ("errors", Json::from(self.metrics.error_count())),
                ]),
            ),
            (
                "engine",
                Json::object([
                    ("prepare_count", Json::from(engine.prepare_count)),
                    ("graph_build_count", Json::from(engine.graph_build_count)),
                    ("graph_patch_count", Json::from(engine.graph_patch_count)),
                    ("cached_point_count", Json::from(engine.cached_point_count)),
                    ("cached_graph_count", Json::from(engine.cached_graph_count)),
                    (
                        "suspended_walk_count",
                        Json::from(engine.suspended_walk_count),
                    ),
                    ("analysis_count", Json::from(engine.analysis_count)),
                ]),
            ),
        ];
        if !counters_only {
            // Wall-clock-derived figures: useful interactively, omitted in
            // counters_only mode so scripted transcripts stay byte-stable.
            let opens = self.metrics.request_count(Method::EnvOpen)
                + self.metrics.request_count(Method::EnvUpdate);
            let completions = self.metrics.completion_count();
            let (p50, p99, mean, count) = self.metrics.latency_summary_us();
            fields.push((
                "rates",
                Json::object([
                    (
                        "queries_per_sec",
                        Json::from(self.metrics.queries_per_sec()),
                    ),
                    (
                        "point_cache_hit_rate",
                        hit_rate(opens, engine.prepare_count as u64),
                    ),
                    (
                        "graph_cache_hit_rate",
                        hit_rate(
                            completions,
                            (engine.graph_build_count + engine.graph_patch_count) as u64,
                        ),
                    ),
                    (
                        "walk_resume_rate",
                        hit_rate(completions, completions - self.metrics.resumed_count()),
                    ),
                ]),
            ));
            fields.push((
                "latency_us",
                Json::object([
                    ("p50", Json::from(p50)),
                    ("p99", Json::from(p99)),
                    ("mean", Json::from(mean)),
                    ("count", Json::from(count)),
                ]),
            ));
            fields.push((
                "prepare_time_us",
                Json::object([("total", Json::from(engine.prepare_time_ns / 1_000))]),
            ));
        }
        Ok(Json::object(fields))
    }

    fn lookup(&self, id: u64) -> Result<Arc<Session>, ProtocolError> {
        lock_recovering(&self.sessions)
            .open
            .get(&id)
            .cloned()
            .ok_or_else(|| unknown_session(id))
    }
}

/// The fraction of `requests` served without paying `misses` (0 when no
/// requests happened yet).
fn hit_rate(requests: u64, misses: u64) -> Json {
    if requests == 0 {
        Json::from(0.0)
    } else {
        Json::from(1.0 - (misses.min(requests) as f64 / requests as f64))
    }
}

fn unknown_session(id: u64) -> ProtocolError {
    ProtocolError::new(SESSION_NOT_FOUND, format!("no open session {id}"))
}

fn session_id(params: &Json) -> Result<u64, ProtocolError> {
    params
        .get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::invalid_params("needs integer \"session\""))
}

fn optional_u64(params: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match params.get(key) {
        None => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::invalid_params(format!("\"{key}\" must be an integer"))),
    }
}

/// Serializes an [`AnalysisReport`] for the `env/analyze` reply. Field
/// order is fixed and the report itself is deterministically sorted, so the
/// wire form is byte-stable across runs. Public so the `insynth-envlint`
/// CLI's `--json` output is byte-identical to the server's reply.
pub fn report_to_json(report: &AnalysisReport) -> Json {
    let diagnostics: Vec<Json> = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::object([
                ("severity", Json::from(d.severity.to_string())),
                ("code", Json::from(d.kind.code())),
                ("subject", Json::from(d.subject.clone())),
                ("message", Json::from(d.message.clone())),
                (
                    "decls",
                    Json::Arr(d.decls.iter().map(|&i| Json::from(i)).collect()),
                ),
            ])
        })
        .collect();
    Json::object([
        ("decl_count", Json::from(report.decl_count)),
        ("member_types", Json::from(report.member_types)),
        ("producible_types", Json::from(report.producible_types)),
        (
            "unproducible_types",
            Json::Arr(
                report
                    .unproducible_types
                    .iter()
                    .map(|name| Json::from(name.clone()))
                    .collect(),
            ),
        ),
        (
            "dead_decls",
            Json::Arr(report.dead_decls.iter().map(|&i| Json::from(i)).collect()),
        ),
        ("weights_monotone", Json::from(report.weights_monotone)),
        ("diagnostics", Json::Arr(diagnostics)),
    ])
}

fn session_summary(id: u64, session: &Session) -> Json {
    Json::object([
        ("session", Json::from(id)),
        (
            "fingerprint",
            Json::from(format!("{}", session.fingerprint())),
        ),
        ("decls", Json::from(session.env().len())),
    ])
}
