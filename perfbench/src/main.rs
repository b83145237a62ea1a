//! The repository benchmark: end-to-end and per-layer performance of the
//! InSynth completion engine on two seeded workloads.
//!
//! ```text
//! perfbench --workload <editor_trace|edit_heavy> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--workload <name>] [--seed <n>]
//! ```
//!
//! A run sets its workload up several times (reporting the median as
//! `setup_s`), then replays its seeded traces until `--seconds` of op time
//! have been measured, checks every result, and prints one metric per line
//! followed by a JSON object on the last line. With `--trace 0` the metrics
//! are the end-to-end ones. With `--trace 1` the run alternates
//! untraced and traced passes for `--seconds` of wall time and reports the
//! per-layer metrics (see `layers.rs`). `--self-test` checks the benchmark
//! itself: two passes over one seed must do identical work, and another
//! seed must change the input. See README.md.

mod digest;
mod layers;
mod passes;
mod setup;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use insynth_server::Json;
use layers::Tracer;
use passes::{library_pass, server_pass, table2_probe, Counters, Pass};
use setup::{table2_tasks, trace_setups, TraceSetup, Workload};

const USAGE: &str = "usage: perfbench --workload <editor_trace|edit_heavy> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test [--workload <name>] [--seed <n>]";

/// A run repeats its set-up at least `MIN_SETUPS` times and until
/// `SETUP_BUDGET_S` seconds of set-up have been timed (at most `MAX_SETUPS`
/// times), and reports the median as `setup_s`. Cheap set-ups vary most from
/// run to run, so they get the most repetitions.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(args.workload, args.seed);
    }
    let workload = args.workload.expect("checked by parse_args");
    let report = if args.trace {
        traced_run(workload, args.seed, args.seconds)
    } else {
        measured_run(workload, args.seed, args.seconds)
    };
    report.print(workload, args.seed);
    ExitCode::SUCCESS
}

/// Sets the workload up repeatedly (see [`MIN_SETUPS`]); returns the median
/// set-up time, the number of set-ups and the traces.
fn timed_set_up(workload: Workload, seed: u64) -> (f64, usize, Vec<TraceSetup>) {
    let mut times: Vec<f64> = Vec::new();
    let mut input = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(input.take());
        let started = Instant::now();
        input = Some(trace_setups(workload, seed));
        times.push(started.elapsed().as_secs_f64());
    }
    let count = times.len();
    let median = stats::median(&mut times).expect("MIN_SETUPS > 0");
    (median, count, input.expect("MIN_SETUPS > 0"))
}

/// One metric line of the report.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let value = if value.is_finite() {
            value
        } else {
            self.problems.push(format!("{name} is not finite"));
            0.0
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Counts a measured pass's ops and failures.
    fn add_pass(&mut self, pass: &Pass) {
        self.attempted += pass.failed.len() as u64;
        self.failed += pass.failed_count();
        self.problems.extend(pass.problems.iter().cloned());
    }

    fn print(&self, workload: Workload, seed: u64) {
        let correct = self.problems.is_empty();
        println!("workload {} seed {seed}", workload.name());
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!(
                "  {:<26} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  ops attempted {} failed {} correct {correct}",
            self.attempted, self.failed
        );
        for problem in &self.problems {
            eprintln!("perfbench: {problem}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value =
                    Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.to_owned(), value)
            })
            .collect();
        let result = Json::object([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ]);
        println!("{result}");
    }
}

/// What a pass over one input must reproduce exactly.
struct Reference {
    events: Vec<u64>,
    failed: Vec<bool>,
    counters: Counters,
}

impl Reference {
    fn of(pass: &Pass) -> Reference {
        Reference {
            events: pass.events.clone(),
            failed: pass.failed.clone(),
            counters: pass.counters,
        }
    }
}

/// Runs and checks a workload's passes. Every pass over a trace must
/// repeat its reference's per-event results and work counters: on
/// `editor_trace` the reference is a library pass over the same trace (so
/// the server must serve exactly what the library computes), on
/// `edit_heavy` the run's first pass over that trace.
struct Run<'a> {
    workload: Workload,
    input: &'a [TraceSetup],
    /// Present in traced runs; the `editor_trace` reference library passes
    /// are always traced into it.
    tracer: Option<Tracer>,
    refs: Vec<Option<Reference>>,
    report: Report,
}

impl<'a> Run<'a> {
    fn new(workload: Workload, input: &'a [TraceSetup], traced: bool) -> Run<'a> {
        Run {
            workload,
            input,
            tracer: traced.then(Tracer::new),
            refs: (0..input.len()).map(|_| None).collect(),
            report: Report::default(),
        }
    }

    /// One measured pass over trace `k`: the server path on
    /// `editor_trace`, the library path on `edit_heavy`.
    fn pass(&mut self, k: usize, traced: bool) -> Pass {
        let setup = &self.input[k];
        if self.workload == Workload::EditorTrace && self.refs[k].is_none() {
            let library = library_pass(&setup.ops, self.tracer.as_mut());
            self.report
                .problems
                .extend(library.problems.iter().cloned());
            self.refs[k] = Some(Reference::of(&library));
        }
        let tracer = if traced { self.tracer.as_mut() } else { None };
        let mut pass = match self.workload {
            Workload::EditorTrace => server_pass(setup, tracer.map(|t| &mut t.layers)),
            Workload::EditHeavy => library_pass(&setup.ops, tracer),
        };
        match &self.refs[k] {
            Some(reference) => {
                pass.check_against(&reference.events, "reference pass");
                for (failed, &ref_failed) in pass.failed.iter_mut().zip(&reference.failed) {
                    *failed |= ref_failed;
                }
                if pass.counters != reference.counters {
                    self.report.problems.push(format!(
                        "input {k}: counters {:?} differ from the reference {:?}",
                        pass.counters, reference.counters
                    ));
                }
            }
            None => self.refs[k] = Some(Reference::of(&pass)),
        }
        self.report.add_pass(&pass);
        pass
    }
}

/// The Table 2 tasks once, untimed: the quality oracle every workload
/// reports.
fn quality_probe(report: &mut Report) -> (u64, u64) {
    let probe = table2_probe(&table2_tasks());
    report.problems.extend(probe.problems.iter().cloned());
    (probe.top10, probe.top1)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics. Passes cycle over the run's
/// traces until `seconds` of op time are measured, and stop only after a
/// whole cycle, so every trace weighs the same in the run's samples (the
/// traces' latency mixes differ, and an extra pass of one would move the
/// quantiles). Quantiles are taken over every sample of the run.
fn measured_run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let (setup_s, setups, input) = timed_set_up(workload, seed);
    let mut run = Run::new(workload, &input, false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut measured = Duration::ZERO;
    while !passes.len().is_multiple_of(input.len()) || measured.as_secs_f64() < seconds {
        let pass = run.pass(passes.len() % input.len(), false);
        measured += pass.elapsed;
        passes.push(pass);
    }
    let mut report = run.report;
    let (top10, top1) = quality_probe(&mut report);

    let mut completion: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.completion_ms.iter().copied())
        .collect();
    let mut update: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.update_ms.iter().copied())
        .collect();
    let elapsed = measured.as_secs_f64();
    let ops: usize = passes.iter().map(|p| p.failed.len()).sum();
    report.notes.push(format!(
        "{} passes over {} traces, {ops} ops, {elapsed:.3} s measured, digest {:016x}",
        passes.len(),
        input.len(),
        passes[0].counters.digest
    ));
    let pass_s: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.elapsed.as_secs_f64()))
        .collect();
    report
        .notes
        .push(format!("seconds per pass: {}", pass_s.join(" ")));

    let profile: Vec<String> = [0.1, 0.25, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.99]
        .iter()
        .map(|&q| format!("{:.3}", stats::quantile(&mut completion, q).unwrap_or(0.0)))
        .collect();
    report.notes.push(format!(
        "completion ms at p10 p25 p50 p60 p70 p75 p80 p90 p99: {}",
        profile.join(" ")
    ));

    // The tail is the highest percentile with at least ten samples beyond
    // it in a run: p99 on editor_trace, p95 on edit_heavy, whose runs hold
    // about 450 completions.
    let tail_q = match workload {
        Workload::EditorTrace => 0.99,
        Workload::EditHeavy => 0.95,
    };
    let mut percentile = |name, samples: &mut Vec<f64>, q: f64, what: &str| {
        let n = samples.len();
        let value = stats::quantile(samples, q).unwrap_or(0.0);
        let beyond = stats::beyond(n, q);
        let mut note = format!("p{} of {n} {what}, {beyond} beyond", q * 100.0);
        if beyond < 10 {
            note.push_str(" (FEWER THAN 10 BEYOND)");
        }
        report.metric(name, value, "ms", note);
    };
    percentile("completion_p50_ms", &mut completion, 0.5, "completions");
    percentile("completion_p90_ms", &mut completion, 0.9, "completions");
    percentile("completion_tail_ms", &mut completion, tail_q, "completions");
    percentile("update_p50_ms", &mut update, 0.5, "updates");
    percentile("update_p90_ms", &mut update, 0.9, "updates");
    report.metric(
        "ops_per_s",
        ops as f64 / elapsed,
        "1/s",
        format!("{ops} ops in {elapsed:.3} s"),
    );
    report.metric(
        "top10_found",
        top10 as f64,
        "count",
        "of 50 Table 2 tasks".into(),
    );
    report.metric(
        "top1_found",
        top1 as f64,
        "count",
        "of 50 Table 2 tasks".into(),
    );
    let (attempted, failed) = (report.attempted, report.failed);
    report.metric(
        "ok_ops_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted} ops failed"),
    );
    report.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {setups} set-ups"),
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM".into());
    report
}

/// The traced run: per-layer metrics. Untraced and traced passes alternate
/// over the run's traces for `seconds` of wall time (the tracer's cold
/// re-runs make a traced pass several times slower than the op time it
/// measures); their elapsed times give the tracing overhead. On
/// `editor_trace` the engine-side layers come from the traced library pass
/// over each trace, which does the same engine work as the server passes.
fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let input = trace_setups(workload, seed);
    let mut run = Run::new(workload, &input, true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let k = traced.len() % input.len();
        // Alternate which side runs first, so warm-up favours neither.
        let turns = if traced.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced_turn in turns {
            let pass = run.pass(k, traced_turn);
            if traced_turn {
                traced.push(pass);
            } else {
                untraced.push(pass);
            }
        }
    }
    let secs = |passes: &[Pass]| {
        let mut v: Vec<f64> = passes.iter().map(|p| p.elapsed.as_secs_f64()).collect();
        stats::median(&mut v).unwrap_or(0.0)
    };
    let (untraced_s, traced_s) = (secs(&untraced), secs(&traced));
    let traced_mean_ms = traced
        .iter()
        .map(|p| p.elapsed.as_secs_f64() * 1e3)
        .sum::<f64>()
        / traced.len() as f64;
    let overhead = if untraced_s > 0.0 {
        traced_s / untraced_s - 1.0
    } else {
        0.0
    };
    let mut report = run.report;
    report.notes.push(format!(
        "{} untraced + {} traced passes: median {untraced_s:.4} s vs {traced_s:.4} s",
        untraced.len(),
        traced.len()
    ));
    let layers = &run.tracer.as_ref().expect("traced run").layers;
    for (name, value, unit) in layers.metrics(traced_mean_ms, overhead) {
        report.metric(name, value, unit, "per pass".into());
    }
    report
}

/// Checks the benchmark itself: two traced passes over one seed must do
/// identical work, the next seed must change the input, and the Table 2
/// probe must find the same tasks twice.
fn self_test(only: Option<Workload>, seed: u64) -> ExitCode {
    let mut ok = true;
    let mut check = |pass: bool, what: &str| {
        println!("  {} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };
    for workload in Workload::ALL {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let input = trace_setups(workload, seed);
        let run = || {
            let mut run = Run::new(workload, &input, true);
            let pass = run.pass(0, true);
            let l = &run.tracer.as_ref().expect("traced run").layers;
            let work = [
                pass.counters.sigma_runs,
                pass.counters.graph_builds,
                l.explore_requests,
                l.walk_steps,
                pass.counters.new_steps,
                pass.counters.digest,
            ];
            (work, run.report.problems)
        };
        let (first, problems) = run();
        let (second, _) = run();
        let other = input[0].trace.to_text() != trace_setups(workload, seed + 1)[0].trace.to_text();
        println!(
            "self-test {}: work [σ runs, graph builds, explore requests, walk steps, new steps, digest] = {first:?}",
            workload.name()
        );
        check(first == second, "a second pass repeats the work exactly");
        check(other, "seed + 1 gives a different input");
        check(problems.is_empty(), "results are correct");
        for problem in problems {
            println!("    {problem}");
        }
    }
    let tasks = table2_tasks();
    let (first, second) = (table2_probe(&tasks), table2_probe(&tasks));
    println!(
        "self-test table2 probe: [top10, top1] = {:?}",
        [first.top10, first.top1]
    );
    check(
        [first.top10, first.top1] == [second.top10, second.top1],
        "a second probe finds the same tasks",
    );
    check(first.problems.is_empty(), "probe results are correct");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
