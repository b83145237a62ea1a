//! The evaluation benchmark suite (paper §7).
//!
//! Table 2 evaluates InSynth on 50 completion tasks constructed from API-usage
//! examples: each task removes a goal expression from a program, records the
//! declared type at that position, and asks the tool to re-synthesize the
//! expression. This crate contains:
//!
//! * [`all_benchmarks`] — the 50 tasks, each with its program point (locals,
//!   literals, imports), goal type, expected snippet (in the renderer's
//!   surface syntax) and the numbers the paper reports for it,
//! * [`run_benchmark`] — the harness: build the environment (API model +
//!   filler to reach the paper's environment size + corpus frequencies),
//!   prepare a session and run the query under a chosen weight mode, and
//!   report the rank of the expected snippet together with the preparation
//!   time (once per program point) and the query phase timings,
//! * [`run_benchmark_repeated`] — the amortization experiment: one prepared
//!   session answering the same query many times (§7.5's interactive
//!   deployment), with preparation counted once,
//! * [`run_provers`] — the same inhabitation query handed to the two baseline
//!   intuitionistic provers (the Imogen / fCube stand-ins),
//! * [`table2_header`] / [`table2_row`] / [`summarize`] — Table 2 row
//!   formatting and the §7.5 summary statistics.
//!
//! # Example
//!
//! ```
//! use insynth_benchsuite::{all_benchmarks, run_benchmark, HarnessConfig};
//! use insynth_core::WeightMode;
//!
//! let benchmarks = all_benchmarks();
//! assert_eq!(benchmarks.len(), 50);
//! let outcome = run_benchmark(&benchmarks[14], WeightMode::Full, &HarnessConfig::default());
//! assert_eq!(outcome.rank, Some(1)); // new FileInputStream(name)
//! ```

mod benchmarks;
mod harness;
mod report;

pub use benchmarks::{all_benchmarks, Benchmark, PaperRow};
pub use harness::{
    build_environment, run_benchmark, run_benchmark_repeated, run_provers, BenchmarkOutcome,
    HarnessConfig, ProverOutcome, RepeatedOutcome,
};
pub use report::{summarize, table2_header, table2_row, Summary};
