//! The InSynth completion server: a persistent JSON-over-stdio front-end
//! for the [`insynth_core`] engine.
//!
//! The paper's premise is *interactive* completion — synthesis answers at
//! keystroke latency — and this crate is the piece that turns the
//! library's `Engine`/`Session`/`query_stream` stack into a long-running
//! service an editor can talk to: one JSON request object per line on
//! stdin, one JSON response per line on stdout.
//!
//! # Protocol
//!
//! | method                | purpose                                                    |
//! |-----------------------|------------------------------------------------------------|
//! | `env/open`            | declare a program point, get a session id                  |
//! | `env/update`          | apply an [`EnvDelta`] to a session (incremental re-prepare)|
//! | `env/analyze`         | static-analysis report for a session's environment         |
//! | `completion/complete` | query a goal type; paginate with `cursor`                  |
//! | `session/close`       | drop a session                                             |
//! | `server/stats`        | counters, cache sizes, hit rates, latency quantiles        |
//! | `$/cancel`            | abort an in-flight (or not-yet-arrived) request by id      |
//!
//! The `completion/complete` result (`values`, `total`, `has_more`)
//! deliberately mirrors MCP's `completion/complete` shape; the `cursor`
//! continuation rides the engine's suspended-walk resume path, so asking
//! for the next page costs only the new walk steps — no re-exploration, no
//! graph rebuild, no replayed pops.
//!
//! # Layering
//!
//! [`transport`] (reader → scoped worker pool → output sequencer) →
//! [`server`] (dispatch, sessions, admission control, cancellation) →
//! handlers → engine. Everything is `std` threads over the `Send + Sync`
//! engine — no async runtime. [`json`] is a small hand-rolled JSON
//! parser/writer (the workspace deliberately has no JSON dependency), and
//! [`metrics`] keeps the counters and latency histogram that
//! `server/stats` reports.
//!
//! [`EnvDelta`]: insynth_core::EnvDelta

pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod transport;

pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{Method, Metrics};
pub use protocol::{decl_to_json, env_to_json, ty_to_json, ProtocolError, Request};
pub use server::{report_to_json, Bookkeeping, Parsed, Server, ServerConfig, MAX_PAGE_VALUES};
pub use transport::{run, serve_script};
