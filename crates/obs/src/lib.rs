//! Zero-dependency observability for the `ddpa` workspace.
//!
//! Heintze & Tardieu's central empirical claim is that demand-driven
//! resolution does a small *fraction* of the exhaustive analysis's work.
//! This crate is the substrate that makes that claim visible: every layer
//! of the pipeline publishes named counters and hierarchical span timings
//! into a shared [`Registry`]/[`Profiler`] pair, and the results export as
//! human-readable trees or machine-readable JSONL.
//!
//! Everything here is hand-rolled on `std` alone (atomics, `Instant`,
//! manual JSON escaping) because the workspace builds with no external
//! dependencies.
//!
//! * [`Registry`] — named monotonic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s with cheap cloneable handles
//!   (`Arc`-shared atomics inside);
//! * [`Profiler`] — hierarchical RAII span timers aggregating into a
//!   per-phase profile tree (count, total and self time);
//! * [`JsonlSink`] — serializes counters, gauges, spans and ad-hoc events
//!   as one JSON object per line;
//! * [`Obs`] — the facade the analyses thread through their entry points;
//!   spans are no-ops unless profiling is switched on, so unprofiled runs
//!   pay one branch per span site.
//!
//! # Examples
//!
//! ```
//! use ddpa_obs::Obs;
//!
//! let obs = Obs::with_profiling();
//! let fires = obs.counter("demand.fires");
//! {
//!     let _solve = obs.span("solve");
//!     let _phase = obs.span("solve.propagate");
//!     fires.add(17);
//! }
//! assert_eq!(fires.get(), 17);
//! let tree = obs.profiler.snapshot();
//! assert_eq!(tree[0].name, "solve");
//! assert_eq!(tree[0].children[0].name, "solve.propagate");
//! ```

#![forbid(unsafe_code)]

pub mod flight;
pub mod hist;
pub mod json;
pub mod profile;
pub mod registry;
pub mod sink;

pub use flight::{
    FlightConfig, FlightEvent, FlightEventKind, FlightRecorder, FlightSnapshot, FlightStage,
    StagedEvent,
};
pub use hist::Histogram;
pub use json::{
    escape_into, escaped, parse_json, quote_into, validate_jsonl_line, validate_metrics_line,
    JsonValue, KNOWN_KINDS,
};
pub use profile::{ProfileNode, Profiler, SpanGuard};
pub use registry::{Counter, Gauge, Registry};
pub use sink::JsonlSink;

/// The observability handle the analyses carry: a counter/gauge registry
/// plus an optional span profiler.
///
/// Cloning is cheap (two `Arc`s and a `bool`); clones share the same
/// registry and profile tree. Profiling defaults to *off*, in which case
/// [`Obs::span`] returns an inert guard without reading the clock or
/// taking a lock — the cost of an instrumented-but-unprofiled hot path is
/// one branch.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Named counters and gauges.
    pub registry: Registry,
    /// The span profile tree (only populated when profiling is on).
    pub profiler: Profiler,
    profiling: bool,
}

impl Obs {
    /// A fresh handle with profiling off.
    pub fn new() -> Self {
        Obs::default()
    }

    /// A fresh handle with span profiling on.
    pub fn with_profiling() -> Self {
        Obs {
            profiling: true,
            ..Obs::default()
        }
    }

    /// Whether spans are being timed.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Opens a timed span named `name`, nested under the currently open
    /// span. Returns an RAII guard; the time until the guard drops is
    /// recorded in the profile tree. Inert (no clock read, no lock) when
    /// profiling is off.
    pub fn span(&self, name: &str) -> SpanGuard {
        if self.profiling {
            self.profiler.enter(name)
        } else {
            SpanGuard::noop()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_spans_are_inert() {
        let obs = Obs::new();
        {
            let _g = obs.span("nothing");
        }
        assert!(obs.profiler.snapshot().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::with_profiling();
        let clone = obs.clone();
        clone.counter("shared").add(5);
        assert_eq!(obs.counter("shared").get(), 5);
        {
            let _g = clone.span("phase");
        }
        assert_eq!(obs.profiler.snapshot()[0].name, "phase");
    }
}
