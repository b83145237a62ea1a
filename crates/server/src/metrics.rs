//! Server-side observability: per-method request counters, completion
//! accounting, and a latency histogram — everything `server/stats` reports
//! beyond the engine's own
//! [`EngineStatsSnapshot`](insynth_core::EngineStatsSnapshot).
//!
//! Counters are lock-free atomics; the histogram sits behind a mutex that is
//! touched once per completion. All of it is plumbing for *reporting*:
//! nothing here feeds back into synthesis, so metrics can never perturb
//! results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The protocol methods the server dispatches, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    EnvOpen,
    EnvUpdate,
    EnvAnalyze,
    Complete,
    SessionClose,
    Stats,
    Cancel,
}

impl Method {
    pub const ALL: [Method; 7] = [
        Method::EnvOpen,
        Method::EnvUpdate,
        Method::EnvAnalyze,
        Method::Complete,
        Method::SessionClose,
        Method::Stats,
        Method::Cancel,
    ];

    /// The wire name, also the key under `requests` in `server/stats`.
    pub fn name(self) -> &'static str {
        match self {
            Method::EnvOpen => "env/open",
            Method::EnvUpdate => "env/update",
            Method::EnvAnalyze => "env/analyze",
            Method::Complete => "completion/complete",
            Method::SessionClose => "session/close",
            Method::Stats => "server/stats",
            Method::Cancel => "$/cancel",
        }
    }

    pub fn from_name(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Method::EnvOpen => 0,
            Method::EnvUpdate => 1,
            Method::EnvAnalyze => 2,
            Method::Complete => 3,
            Method::SessionClose => 4,
            Method::Stats => 5,
            Method::Cancel => 6,
        }
    }
}

// The latency histogram lives in `insynth_stats` so the trace-replay harness
// in `insynth_bench` reports quantiles from the same buckets; re-exported
// here to keep `insynth_server::metrics::Histogram` a public name.
pub use insynth_stats::Histogram;

/// All server-level counters plus the completion latency histogram.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    per_method: [AtomicU64; 7],
    errors: AtomicU64,
    cancelled: AtomicU64,
    completions: AtomicU64,
    values_served: AtomicU64,
    resumed: AtomicU64,
    latency: Mutex<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            per_method: Default::default(),
            errors: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            completions: AtomicU64::new(0),
            values_served: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            latency: Mutex::new(Histogram::default()),
        }
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn record_request(&self, method: Method) {
        self.per_method[method.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one served `completion/complete`: page size, whether the
    /// walk resumed a suspended state, and the observed round-trip latency.
    pub fn record_completion(&self, values: usize, resumed: bool, latency: Duration) {
        self.completions.fetch_add(1, Ordering::Relaxed);
        self.values_served
            .fetch_add(values as u64, Ordering::Relaxed);
        if resumed {
            self.resumed.fetch_add(1, Ordering::Relaxed);
        }
        self.latency
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .record(latency);
    }

    pub fn request_count(&self, method: Method) -> u64 {
        self.per_method[method.index()].load(Ordering::Relaxed)
    }

    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    pub fn cancelled_count(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub fn completion_count(&self) -> u64 {
        self.completions.load(Ordering::Relaxed)
    }

    pub fn values_served(&self) -> u64 {
        self.values_served.load(Ordering::Relaxed)
    }

    pub fn resumed_count(&self) -> u64 {
        self.resumed.load(Ordering::Relaxed)
    }

    /// Completions per wall-clock second since the server started.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completion_count() as f64 / secs
        }
    }

    /// `(p50, p99, mean, count)` of completion latency, in microseconds.
    pub fn latency_summary_us(&self) -> (u64, u64, u64, u64) {
        let hist = self
            .latency
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (
            hist.quantile_us(0.50),
            hist.quantile_us(0.99),
            hist.mean_us(),
            hist.count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_roundtrip() {
        for method in Method::ALL {
            assert_eq!(Method::from_name(method.name()), Some(method));
        }
        assert_eq!(Method::from_name("no/such"), None);
    }

    #[test]
    fn completion_accounting_accumulates() {
        let metrics = Metrics::new();
        metrics.record_request(Method::Complete);
        metrics.record_completion(3, true, Duration::from_micros(100));
        metrics.record_completion(2, false, Duration::from_micros(200));
        assert_eq!(metrics.request_count(Method::Complete), 1);
        assert_eq!(metrics.completion_count(), 2);
        assert_eq!(metrics.values_served(), 5);
        assert_eq!(metrics.resumed_count(), 1);
        let (p50, p99, mean, count) = metrics.latency_summary_us();
        assert!(p50 >= 100 && p99 >= 200 && mean >= 100 && count == 2);
    }
}
