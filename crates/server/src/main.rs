//! The `insynth-server` binary: serve the InSynth engine over stdio.
//!
//! ```text
//! insynth-server [--workers N] [--max-sessions N] [--max-n N] [--max-queue N]
//! ```
//!
//! Reads one JSON request per line from stdin, writes one JSON response per
//! line to stdout, and exits cleanly at end-of-input. See the library docs
//! for the protocol reference.

use std::io;
use std::process::ExitCode;

use insynth_core::{Engine, SynthesisConfig};
use insynth_server::{run, Server, ServerConfig};

const USAGE: &str =
    "usage: insynth-server [--workers N] [--max-sessions N] [--max-n N] [--max-queue N]

A persistent completion server: line-delimited JSON requests on stdin,
one response per line on stdout. Methods: env/open, env/update,
completion/complete, session/close, server/stats, $/cancel.
--max-n caps the page size; no page holds more than 100 values.";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--workers" | "--max-sessions" | "--max-n" | "--max-queue" => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .parse::<usize>()
                    .map_err(|_| format!("{flag} needs an unsigned integer"))?;
                match flag.as_str() {
                    "--workers" => config.workers = value.max(1),
                    "--max-sessions" => config.max_sessions = value,
                    "--max-n" => config.max_n = value,
                    "--max-queue" => config.max_queue_depth = value,
                    _ => unreachable!(),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let server = Server::new(Engine::new(SynthesisConfig::default()), config);
    let stdin = io::stdin().lock();
    // `Stdout` (unlike `StdoutLock`) is `Send`, which the sequencer thread
    // needs; it locks per write, and the sequencer is the only writer.
    match run(&server, stdin, io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("insynth-server: I/O error: {err}");
            ExitCode::FAILURE
        }
    }
}
