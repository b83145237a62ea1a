//! One pass of a workload: every op of its seeded input, once, from fresh
//! engine state, on one client thread in a closed loop (each op waits for
//! the previous reply). Only the ops themselves are timed; checks and traced
//! re-runs happen between ops, outside the measured intervals.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use insynth_apimodel::render_term;
use insynth_core::{Engine, Session, SynthesisConfig, SynthesisResult, TypeEnv};
use insynth_lambda::Ty;
use insynth_server::{parse_json, Json, Parsed, Server, ServerConfig};

use crate::digest::{fold, EventDigest};
use crate::layers::{Layers, Tracer};
use crate::setup::{LibOp, Task, TraceSetup};

/// Work counters of one pass. They depend only on the seed and the program,
/// never on timing: two passes over one input must agree exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub sigma_runs: u64,
    pub graph_builds: u64,
    pub completions: u64,
    pub resumed: u64,
    pub new_steps: u64,
    pub values: u64,
    pub digest: u64,
}

/// What one pass measured and found.
#[derive(Debug, Default)]
pub struct Pass {
    /// Time spent inside the ops.
    pub elapsed: Duration,
    pub completion_ms: Vec<f64>,
    /// `Session::update` / `env/update` latencies.
    pub update_ms: Vec<f64>,
    /// Per-event result digests.
    pub events: Vec<u64>,
    /// Ops that failed: an error response, a truncated result, a term the
    /// environment does not admit, weights decreasing within a page, or a
    /// result differing from the reference pass.
    pub failed: Vec<bool>,
    /// Correctness violations (every failure except truncation).
    pub problems: Vec<String>,
    pub counters: Counters,
    /// Table 2 quality: tasks with the expected snippet in the top 10 / at
    /// rank 1.
    pub top10: u64,
    pub top1: u64,
}

impl Pass {
    fn new(ops: usize) -> Pass {
        Pass {
            events: vec![0; ops],
            failed: vec![false; ops],
            ..Pass::default()
        }
    }

    fn problem(&mut self, index: usize, message: String) {
        self.failed[index] = true;
        if self.problems.len() < 8 {
            self.problems.push(format!("op {index}: {message}"));
        }
    }

    pub fn failed_count(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// Marks every op whose digest differs from `reference`'s as failed.
    pub fn check_against(&mut self, reference: &[u64], what: &str) {
        let differing: Vec<usize> = self
            .events
            .iter()
            .zip(reference)
            .enumerate()
            .filter(|(_, (ours, theirs))| ours != theirs)
            .map(|(index, _)| index)
            .collect();
        for index in differing {
            self.problem(index, format!("result differs from the {what}"));
        }
    }

    fn finish(&mut self) {
        self.counters.digest = fold(&self.events);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks one served page: every term type-checks against the environment
/// and weights never decrease. Returns whether the result was truncated.
fn check_page(
    pass: &mut Pass,
    index: usize,
    result: &SynthesisResult,
    cursor: usize,
    env: &TypeEnv,
    goal: &Ty,
) -> bool {
    let page = result.snippets.get(cursor..).unwrap_or(&[]);
    for snippet in page {
        if !env.admits(&snippet.raw_term, goal) {
            pass.problem(
                index,
                format!("term {} is not admitted at type {goal}", snippet.raw_term),
            );
        }
    }
    if page
        .windows(2)
        .any(|w| w[1].weight.value() < w[0].weight.value())
    {
        pass.problem(index, "weights decrease within the page".into());
    }
    result.stats.truncated
}

/// Replays a trace through `Engine` / `Session` directly.
pub fn library_pass(ops: &[LibOp], mut tracer: Option<&mut Tracer>) -> Pass {
    let engine = Engine::new(SynthesisConfig::default());
    let mut sessions: HashMap<u32, Session> = HashMap::new();
    let mut pass = Pass::new(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let sigma_before = engine.prepare_count();
        let builds_before = engine.graph_build_count();
        match op {
            LibOp::Open { point, env } => {
                let started = Instant::now();
                let session = engine.prepare(env);
                let took = started.elapsed();
                pass.elapsed += took;
                let mut d = EventDigest::new(index, 'o', *point);
                d.text(&session.fingerprint().to_string());
                pass.events[index] = d.finish();
                if let Some(t) = tracer.as_deref_mut() {
                    t.layers.prepare_calls += 1;
                    t.layers.open_prepare += took;
                    if engine.prepare_count() > sigma_before {
                        t.layers.sigma_runs += 1;
                        t.sigma_run(*point, &session, true);
                    }
                }
                sessions.insert(*point, session);
            }
            LibOp::Update { point, delta } => {
                let Some(session) = sessions.get(point) else {
                    pass.problem(index, format!("update of unopened point {point}"));
                    continue;
                };
                let started = Instant::now();
                let updated = session.update(delta);
                let took = started.elapsed();
                pass.elapsed += took;
                pass.update_ms.push(ms(took));
                let mut d = EventDigest::new(index, 'u', *point);
                d.text(&updated.fingerprint().to_string());
                pass.events[index] = d.finish();
                if let Some(t) = tracer.as_deref_mut() {
                    t.layers.prepare_calls += 1;
                    t.layers.update += took;
                    if engine.prepare_count() > sigma_before {
                        t.layers.sigma_runs += 1;
                        t.sigma_run(*point, &updated, false);
                    }
                }
                sessions.insert(*point, updated);
            }
            LibOp::Complete {
                point,
                op,
                query,
                cursor,
            } => {
                let Some(session) = sessions.get(point) else {
                    pass.problem(index, format!("query of unopened point {point}"));
                    continue;
                };
                let started = Instant::now();
                let result = session.query(query);
                let queried = Instant::now();
                let terms: Vec<String> = result
                    .snippets
                    .iter()
                    .skip(*cursor)
                    .map(|s| s.term.to_string())
                    .collect();
                let rendered = Instant::now();
                pass.elapsed += rendered - started;
                pass.completion_ms.push(ms(rendered - started));

                let mut d = EventDigest::new(index, *op, *point);
                for term in &terms {
                    d.text(term);
                }
                pass.events[index] = d.finish();
                let c = &mut pass.counters;
                c.completions += 1;
                c.values += terms.len() as u64;
                c.resumed += u64::from(result.stats.resumed);
                c.new_steps += result.stats.reconstruction_new_steps as u64;
                if check_page(
                    &mut pass,
                    index,
                    &result,
                    *cursor,
                    session.env(),
                    query.goal(),
                ) {
                    pass.failed[index] = true;
                }
                if let Some(t) = tracer.as_deref_mut() {
                    t.layers.completions += 1;
                    t.layers.query += queried - started;
                    t.layers.render += rendered - queried;
                    t.layers.resumed += u64::from(result.stats.resumed);
                    t.layers.walk_new_steps += result.stats.reconstruction_new_steps as u64;
                    if engine.graph_build_count() > builds_before {
                        t.layers.graph_builds += 1;
                        if let Some(problem) = t.graph_build(*point, session, query, &result) {
                            pass.problem(index, problem);
                        }
                    }
                }
            }
            LibOp::Close { point } => {
                let started = Instant::now();
                sessions.remove(point);
                pass.elapsed += started.elapsed();
            }
        }
    }
    pass.counters.sigma_runs = engine.prepare_count() as u64;
    pass.counters.graph_builds = engine.graph_build_count() as u64;
    if let Some(t) = tracer {
        t.layers.lib_passes += 1;
    }
    pass.finish();
    pass
}

/// Replays a trace's pre-rendered request lines through the server's
/// public entry points, as its transport does: `parse_line`, `execute`,
/// then serialization of the response. Responses are digested and checked
/// after the pass.
pub fn server_pass(setup: &TraceSetup, layers: Option<&mut Layers>) -> Pass {
    let server = Server::new(
        Engine::new(SynthesisConfig::default()),
        ServerConfig::default(),
    );
    let mut pass = Pass::new(setup.lines.len());
    let mut responses = Vec::with_capacity(setup.lines.len());
    let (mut parse, mut execute, mut serialize) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (line, event) in setup.lines.iter().zip(&setup.trace.events) {
        let started = Instant::now();
        let parsed = server.parse_line(line);
        let parsed_at = Instant::now();
        let response = match parsed {
            Parsed::Job { request, cancel } => server.execute(&request, &cancel),
            Parsed::Immediate {
                response,
                bookkeeping,
            } => {
                server.record(bookkeeping);
                response
            }
        };
        let executed = Instant::now();
        let text = response.to_string();
        let done = Instant::now();
        parse += parsed_at - started;
        execute += executed - parsed_at;
        serialize += done - executed;
        pass.elapsed += done - started;
        match event.kind.op() {
            'q' | 'p' => pass.completion_ms.push(ms(done - started)),
            'u' => pass.update_ms.push(ms(done - started)),
            _ => {}
        }
        responses.push(text);
    }
    let stats = server.engine().stats();
    pass.counters.sigma_runs = stats.prepare_count as u64;
    pass.counters.graph_builds = stats.graph_build_count as u64;
    if let Some(layers) = layers {
        layers.server_parse += parse;
        layers.server_execute += execute;
        layers.server_serialize += serialize;
        layers.server_passes += 1;
    }
    drop(server);

    for (index, (text, event)) in responses.iter().zip(&setup.trace.events).enumerate() {
        if let Err(problem) = check_response(&mut pass, index, text, event.kind.op(), event.point) {
            pass.problem(index, problem);
        }
    }
    pass.finish();
    pass
}

/// Digests and checks one serialized server response.
fn check_response(
    pass: &mut Pass,
    index: usize,
    text: &str,
    op: char,
    point: u32,
) -> Result<(), String> {
    let response = parse_json(text).map_err(|e| format!("unparseable response: {e}"))?;
    if let Some(error) = response.get("error") {
        return Err(format!("error response {error}"));
    }
    let result = response.get("result").ok_or("response has no result")?;
    let mut d = EventDigest::new(index, op, point);
    match op {
        'o' | 'u' => {
            let fingerprint = result
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("open/update response lacks a fingerprint")?;
            d.text(fingerprint);
        }
        'q' | 'p' => {
            let values = result
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("completion response lacks values")?;
            let mut last = f64::NEG_INFINITY;
            for value in values {
                d.text(
                    value
                        .get("term")
                        .and_then(Json::as_str)
                        .ok_or("value lacks a term")?,
                );
                let weight = value
                    .get("weight")
                    .and_then(Json::as_f64)
                    .ok_or("value lacks a weight")?;
                if weight < last {
                    return Err("weights decrease within the page".into());
                }
                last = weight;
            }
            let flag = |key| result.get(key).and_then(Json::as_bool).unwrap_or(false);
            if flag("truncated") {
                pass.failed[index] = true;
            }
            let c = &mut pass.counters;
            c.completions += 1;
            c.values += values.len() as u64;
            c.resumed += u64::from(flag("resumed"));
            c.new_steps += result.get("steps").and_then(Json::as_u64).unwrap_or(0);
        }
        _ => return Ok(()),
    }
    pass.events[index] = d.finish();
    Ok(())
}

/// The Table 2 quality probe, untimed: each task in paper order as a fresh
/// `Engine` → `prepare` → top-10 `query` → `render_term` of the answers,
/// counting the tasks whose expected snippet is in the top 10 / at rank 1.
pub fn table2_probe(tasks: &[Task]) -> Pass {
    let mut pass = Pass::new(tasks.len());
    for (index, task) in tasks.iter().enumerate() {
        let engine = Engine::new(SynthesisConfig::default());
        let result = engine.prepare(&task.env).query(&task.query);
        let rendered: Vec<String> = result
            .snippets
            .iter()
            .map(|s| render_term(&s.term))
            .collect();
        match rendered.iter().position(|s| *s == task.bench.expected) {
            Some(0) => {
                pass.top1 += 1;
                pass.top10 += 1;
            }
            Some(_) => pass.top10 += 1,
            None => {}
        }
        if check_page(&mut pass, index, &result, 0, &task.env, task.query.goal()) {
            pass.failed[index] = true;
        }
    }
    pass
}
