//! `insynth-trace` — generate, inspect, and replay editor traces.
//!
//! ```text
//! insynth-trace generate [knobs] [--out FILE]        write a seeded trace
//! insynth-trace inspect FILE                         summarize a trace file
//! insynth-trace replay [FILE | knobs] [--mode M]     replay and report
//! ```
//!
//! `replay` accepts either a trace file or the same generation knobs as
//! `generate` (the trace is then generated in memory — handy for CI, which
//! never needs the file). Reports are human-readable by default; `--json`
//! prints the [`ReplayReport`] JSON, and `--counters-only` drops the
//! wall-clock section so two runs of the same trace diff clean.
//!
//! Generation knobs: `--seed N --points N --events N --env figure1:4|scaled:13000
//! --zipf F --update-fraction F --remove-fraction F --page-fraction F
//! --close-fraction F --burst N --max-n N`.

use std::process::ExitCode;

use insynth_bench::replay::{
    replay_library, replay_server, trace_environment, ReplayMode, ReplayReport,
};
use insynth_corpus::trace::{generate_trace, Trace, TraceEnvSpec, TraceGenConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => generate(rest),
        "inspect" => inspect(rest),
        "replay" => replay(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("insynth-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  insynth-trace generate [--seed N] [--points N] [--events N] [--env figure1:4|scaled:13000]
                         [--zipf F] [--update-fraction F] [--remove-fraction F]
                         [--page-fraction F] [--close-fraction F] [--burst N] [--max-n N]
                         [--out FILE]
  insynth-trace inspect FILE
  insynth-trace replay [FILE] [generation knobs] [--mode library|server]
                       [--workers N] [--json] [--counters-only]";

/// Parses the generation knobs shared by `generate` and `replay`. Returns
/// the config and the arguments it did not consume.
fn parse_gen_config(args: &[String]) -> Result<(TraceGenConfig, Vec<String>), String> {
    let mut config = TraceGenConfig::default();
    let mut leftover = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => config.seed = parse_num(&take("--seed")?, "--seed")?,
            "--points" => config.points = parse_num(&take("--points")?, "--points")?,
            "--events" => config.events = parse_num(&take("--events")?, "--events")?,
            "--env" => config.env = parse_env_spec(&take("--env")?)?,
            "--zipf" => config.zipf_exponent = parse_num(&take("--zipf")?, "--zipf")?,
            "--update-fraction" => {
                config.update_fraction =
                    parse_num(&take("--update-fraction")?, "--update-fraction")?
            }
            "--remove-fraction" => {
                config.remove_fraction =
                    parse_num(&take("--remove-fraction")?, "--remove-fraction")?
            }
            "--page-fraction" => {
                config.page_fraction = parse_num(&take("--page-fraction")?, "--page-fraction")?
            }
            "--close-fraction" => {
                config.close_fraction = parse_num(&take("--close-fraction")?, "--close-fraction")?
            }
            "--burst" => config.burst = parse_num(&take("--burst")?, "--burst")?,
            "--max-n" => config.max_n = parse_num(&take("--max-n")?, "--max-n")?,
            _ => leftover.push(arg.clone()),
        }
    }
    Ok((config, leftover))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_env_spec(value: &str) -> Result<TraceEnvSpec, String> {
    let (model, arg) = value
        .split_once(':')
        .ok_or_else(|| format!("--env wants model:param, got {value:?}"))?;
    let arg: usize = parse_num(arg, "--env")?;
    match model {
        "figure1" => Ok(TraceEnvSpec::Figure1 { filler: arg }),
        "scaled" => Ok(TraceEnvSpec::Scaled { target_decls: arg }),
        other => Err(format!("--env: unknown model {other:?}")),
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let (config, leftover) = parse_gen_config(args)?;
    let mut out_path = None;
    let mut it = leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(it.next().ok_or("--out needs a path")?.clone()),
            other => return Err(format!("generate: unknown argument {other:?}")),
        }
    }
    let trace = generate_trace(&config);
    let text = trace.to_text();
    match out_path {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            let s = trace.summary();
            eprintln!(
                "wrote {} events over {} points to {path} ({} bytes)",
                s.events,
                s.points,
                text.len()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Trace::parse(&text).map_err(|e| e.to_string())
}

fn inspect(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("inspect wants exactly one trace file".to_string());
    };
    let trace = load_trace(path)?;
    let s = trace.summary();
    let env = match trace.env {
        TraceEnvSpec::Figure1 { filler } => format!("figure1 (filler {filler})"),
        TraceEnvSpec::Scaled { target_decls } => format!("scaled (~{target_decls} decls)"),
    };
    println!("trace      {path}");
    println!("env        {env}");
    println!("events     {}", s.events);
    println!("points     {}", s.points);
    println!("ticks      0..={}", s.last_tick);
    println!(
        "mix        {} opens, {} queries, {} pages, {} updates ({} removals), {} closes",
        s.opens, s.queries, s.pages, s.updates, s.removals, s.closes
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), String> {
    let (config, leftover) = parse_gen_config(args)?;
    let mut mode = ReplayMode::Library;
    let mut workers = 1usize;
    let mut json = false;
    let mut counters_only = false;
    let mut path = None;
    let mut it = leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some("library") => ReplayMode::Library,
                    Some("server") => ReplayMode::Server,
                    other => return Err(format!("--mode wants library|server, got {other:?}")),
                }
            }
            "--workers" => {
                workers = parse_num(it.next().ok_or("--workers needs a value")?, "--workers")?
            }
            "--json" => json = true,
            "--counters-only" => counters_only = true,
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("replay: unknown argument {other:?}")),
        }
    }
    let trace = match path {
        Some(path) => load_trace(&path)?,
        None => generate_trace(&config),
    };
    let ambient = trace_environment(trace.env);
    let report = match mode {
        ReplayMode::Library => replay_library(&trace, &ambient, workers),
        ReplayMode::Server => replay_server(&trace, &ambient, workers),
    };
    if json {
        println!("{}", report.to_json(counters_only));
    } else {
        print_human(&report);
    }
    if report.errors > 0 {
        return Err(format!("{} events failed during replay", report.errors));
    }
    Ok(())
}

fn print_human(report: &ReplayReport) {
    let s = &report.summary;
    println!(
        "replayed   {} events over {} points ({} mode, {} worker{})",
        s.events,
        s.points,
        report.mode.name(),
        report.workers,
        if report.workers == 1 { "" } else { "s" }
    );
    println!("env        {} ambient declarations", report.env_decls);
    println!(
        "mix        {} opens, {} queries, {} pages, {} updates ({} removals), {} closes",
        s.opens, s.queries, s.pages, s.updates, s.removals, s.closes
    );
    println!(
        "engine     {} prepares ({} incremental), {} graph builds, {} graph patches, {} graph evictions",
        report.prepares,
        report.incremental_prepares,
        report.graph_builds,
        report.graph_patches,
        report.graph_evictions
    );
    println!(
        "results    {} completions, {} values, {} resumed, {} errors",
        report.completions, report.values, report.resumed, report.errors
    );
    println!("digest     {}", report.digest_hex());
    println!(
        "timing     {} ms ({:.1} events/s)",
        report.elapsed.as_millis(),
        report.events_per_sec()
    );
    println!(
        "latency    p50 {} us, p90 {} us, p99 {} us, mean {} us over {} completions",
        report.latency.quantile_us(0.50),
        report.latency.quantile_us(0.90),
        report.latency.quantile_us(0.99),
        report.latency.mean_us(),
        report.latency.count()
    );
}
