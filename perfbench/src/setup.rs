//! Workload set-up: environments, traces, rendered requests and prebuilt
//! library operations. Everything here runs before the measured window, so
//! no client-side construction work is billed to the engine or server.

use insynth_bench::replay::render_server_script;
use insynth_bench::{phases_environment, scaled_environment};
use insynth_benchsuite::{all_benchmarks, build_environment, Benchmark, HarnessConfig};
use insynth_core::{EnvDelta, Query, TypeEnv};
use insynth_corpus::trace::{generate_trace, Trace, TraceEnvSpec, TraceEventKind, TraceGenConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EditorTrace,
    EditHeavy,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::EditorTrace, Workload::EditHeavy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EditorTrace => "editor_trace",
            Workload::EditHeavy => "edit_heavy",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The seeded trace of a trace workload.
pub fn trace_config(workload: Workload, seed: u64) -> TraceGenConfig {
    match workload {
        // The generator's default mix (8 points on figure-1 filler-4) with
        // one edit per twenty events instead of 0.15. Completion latency is
        // multi-modal: replays from a parked walk's emission log (~20 µs),
        // resumes that step the walk (~0.3 ms), graph builds (~3-10 ms).
        // Under the default, graph hits are 51-58% of completions depending
        // on the seed, so the median falls between modes and moves up to 5x
        // from seed to seed; at 0.10 it still sits on the steep edge of the
        // replay mode (2x). At 0.05 it lies inside the replay mode.
        Workload::EditorTrace => TraceGenConfig {
            seed,
            events: 2_000,
            update_fraction: 0.05,
            ..TraceGenConfig::default()
        },
        Workload::EditHeavy => TraceGenConfig {
            seed,
            points: 4,
            events: 200,
            env: TraceEnvSpec::Scaled {
                target_decls: 13_000,
            },
            update_fraction: 0.4,
            remove_fraction: 0.8,
            ..TraceGenConfig::default()
        },
    }
}

/// One trace event, prebuilt for the library path.
pub enum LibOp {
    Open {
        point: u32,
        env: TypeEnv,
    },
    Update {
        point: u32,
        delta: EnvDelta,
    },
    /// A query (`op` `'q'`) or page (`'p'`): asks for `cursor + n` and
    /// serves the terms past `cursor`, as `completion/complete` does.
    Complete {
        point: u32,
        op: char,
        query: Query,
        cursor: usize,
    },
    Close {
        point: u32,
    },
}

/// A trace workload after set-up.
pub struct TraceSetup {
    pub trace: Trace,
    pub ops: Vec<LibOp>,
    /// One protocol request line per event (server path only), with the
    /// session ids a fresh server assigns.
    pub lines: Vec<String>,
}

/// How many distinct traces one run replays. A single trace's mix of cache
/// hits and misses varies with its seed by several percent, so a run pools
/// two. Two also give `edit_heavy` about 220 distinct completions, enough
/// for ten beyond its p95.
pub const TRACES_PER_RUN: usize = 2;

/// The generator seed of a run's `k`-th trace; trace 0 uses the run seed
/// itself.
fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generates a trace workload's traces and prebuilds their requests.
pub fn trace_setups(workload: Workload, seed: u64) -> Vec<TraceSetup> {
    let ambient = match trace_config(workload, seed).env {
        TraceEnvSpec::Figure1 { filler } => phases_environment(filler),
        TraceEnvSpec::Scaled { target_decls } => scaled_environment(target_decls),
    };
    let render_lines = workload == Workload::EditorTrace;
    (0..TRACES_PER_RUN)
        .map(|k| {
            let trace = generate_trace(&trace_config(workload, trace_seed(seed, k)));
            trace_ops(trace, &ambient, render_lines)
        })
        .collect()
}

fn trace_ops(trace: Trace, ambient: &TypeEnv, render_lines: bool) -> TraceSetup {
    let lines = if render_lines {
        render_server_script(&trace, ambient)
            .lines()
            .map(str::to_owned)
            .collect()
    } else {
        Vec::new()
    };
    let ops = trace
        .events
        .iter()
        .map(|event| {
            let point = event.point;
            match &event.kind {
                TraceEventKind::Open { locals } => {
                    let mut env = ambient.clone();
                    for decl in locals {
                        env.push(decl.clone());
                    }
                    LibOp::Open { point, env }
                }
                TraceEventKind::Update {
                    adds,
                    removes,
                    reweights,
                } => {
                    let mut delta = EnvDelta::new();
                    for decl in adds {
                        delta = delta.add(decl.clone());
                    }
                    for name in removes {
                        delta = delta.remove(name.clone());
                    }
                    for (name, weight) in reweights {
                        delta = delta.reweight(name.clone(), *weight);
                    }
                    LibOp::Update { point, delta }
                }
                TraceEventKind::Query { goal, n } => LibOp::Complete {
                    point,
                    op: 'q',
                    query: Query::new(goal.clone()).with_n(*n),
                    cursor: 0,
                },
                TraceEventKind::Page { goal, n, cursor } => LibOp::Complete {
                    point,
                    op: 'p',
                    query: Query::new(goal.clone()).with_n(cursor.saturating_add(*n)),
                    cursor: *cursor,
                },
                TraceEventKind::Close => LibOp::Close { point },
            }
        })
        .collect();
    TraceSetup { trace, ops, lines }
}

/// One Table 2 task with its environment built.
pub struct Task {
    pub bench: Benchmark,
    pub env: TypeEnv,
    pub query: Query,
}

/// The 50 Table 2 tasks at the paper's environment sizes (full weights,
/// top 10).
pub fn table2_tasks() -> Vec<Task> {
    let config = HarnessConfig::default();
    all_benchmarks()
        .into_iter()
        .map(|bench| Task {
            env: build_environment(&bench, &config),
            query: Query::new(bench.goal.clone()).with_n(config.n),
            bench,
        })
        .collect()
}
