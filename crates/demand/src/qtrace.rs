//! Per-request trace context: who did how much work, and how long it took.
//!
//! The engine's counters ([`crate::EngineStats`]) are cumulative across
//! every query an engine (or a set of engines sharing one
//! [`ddpa_obs::Obs`]) has ever run. A [`QueryTrace`] brackets one request:
//! [`DemandEngine::begin_trace`] snapshots the counters and starts the
//! clock, and [`QueryTrace::finish`] closes the bracket into a
//! [`TraceReport`] holding the *deltas* — rule fires, goals activated,
//! work (budget) spent, cache and share-table traffic, cycle collapses —
//! plus the wall time and the invalidation generation the answer was
//! computed under.
//!
//! Because deltas come from the shared registry, a traced batch request
//! whose parallel workers share the session's `Obs` attributes the
//! workers' fires to the request too. The flip side: two requests traced
//! *concurrently* over one registry each see the union of the overlap.
//! `ddpa-serve` sessions run requests one at a time per session, so in
//! practice a trace is exactly one request's work.
//!
//! Trace IDs are minted by the host (the server, or the CLI) — the engine
//! only carries them through.

use std::time::{Duration, Instant};

use ddpa_obs::JsonValue;

use crate::engine::DemandEngine;
use crate::stats::EngineStats;

/// An open trace bracket around one request. Create with
/// [`DemandEngine::begin_trace`]; close with [`QueryTrace::finish`].
#[derive(Clone, Debug)]
pub struct QueryTrace {
    id: String,
    start: Instant,
    before: EngineStats,
}

impl QueryTrace {
    /// Opens a bracket: snapshots `engine`'s counters and starts the clock.
    pub fn begin(id: impl Into<String>, engine: &DemandEngine<'_>) -> Self {
        QueryTrace {
            id: id.into(),
            start: Instant::now(),
            before: engine.stats(),
        }
    }

    /// The host-minted trace ID.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Closes the bracket: the report holds the counter deltas since
    /// [`QueryTrace::begin`], the wall time, and the engine's current
    /// invalidation generation.
    pub fn finish(self, engine: &DemandEngine<'_>) -> TraceReport {
        TraceReport {
            wall: self.start.elapsed(),
            generation: engine.generation(),
            delta: engine.stats().delta_since(&self.before),
            id: self.id,
        }
    }
}

/// What one traced request did: wall time plus counter deltas.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// The host-minted trace ID, echoed back verbatim.
    pub id: String,
    /// Wall-clock time between begin and finish.
    pub wall: Duration,
    /// The engine's invalidation generation at finish.
    pub generation: u64,
    /// Counter deltas attributable to this request.
    pub delta: EngineStats,
}

impl TraceReport {
    /// Wall time in whole microseconds (saturating).
    pub fn wall_us(&self) -> u64 {
        u64::try_from(self.wall.as_micros()).unwrap_or(u64::MAX)
    }

    /// The report as a JSON object — the `"trace"` value attached to
    /// server responses and slow-log entries. Keys are stable schema
    /// (documented in `docs/OBSERVABILITY.md`).
    pub fn json(&self) -> JsonValue {
        let d = &self.delta;
        JsonValue::Object(vec![
            ("id".to_owned(), JsonValue::str(self.id.clone())),
            ("wall_us".to_owned(), JsonValue::U64(self.wall_us())),
            ("generation".to_owned(), JsonValue::U64(self.generation)),
            ("queries".to_owned(), JsonValue::U64(d.queries)),
            ("fires".to_owned(), JsonValue::U64(d.fires)),
            ("goals".to_owned(), JsonValue::U64(d.goals_activated)),
            ("work".to_owned(), JsonValue::U64(d.work)),
            ("cache_hits".to_owned(), JsonValue::U64(d.cache_hits)),
            ("share_hits".to_owned(), JsonValue::U64(d.share_hits)),
            ("share_misses".to_owned(), JsonValue::U64(d.share_misses)),
            (
                "cycles_collapsed".to_owned(),
                JsonValue::U64(d.cycles_collapsed),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DemandConfig;

    fn engine_over(src: &str) -> DemandEngine<'static> {
        let program = ddpa_ir::parse(src).expect("parse");
        let cp = ddpa_constraints::lower(&program).expect("lower");
        DemandEngine::new(cp, DemandConfig::default())
    }

    fn node(engine: &DemandEngine<'_>, name: &str) -> ddpa_constraints::NodeId {
        let cp = engine.program();
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn trace_captures_exactly_one_querys_work() {
        let mut engine =
            engine_over("int g; int h; void main() { int *p = &g; int *q = p; int *r = &h; }");
        let (q, r) = (node(&engine, "main::q"), node(&engine, "main::r"));

        // Warm-up query outside the bracket must not leak into the trace.
        let _ = engine.points_to(r);
        let warm = engine.stats();

        let t = engine.begin_trace("req-7");
        let result = engine.points_to(q);
        assert!(result.complete);
        let report = t.finish(&engine);

        assert_eq!(report.id, "req-7");
        assert_eq!(report.delta.queries, 1);
        assert!(report.delta.fires > 0, "resolving q fires rules");
        assert!(report.delta.work > 0);
        // The bracket is a delta: total = warm-up + traced.
        let total = engine.stats();
        assert_eq!(total.fires, warm.fires + report.delta.fires);
        assert_eq!(total.work, warm.work + report.delta.work);
        assert_eq!(report.generation, engine.generation());
    }

    #[test]
    fn report_json_carries_the_schema_fields() {
        let mut engine = engine_over("int g; void main() { int *p = &g; }");
        let p = node(&engine, "main::p");
        let t = engine.begin_trace("abc");
        let _ = engine.points_to(p);
        let report = t.finish(&engine);
        let v = report.json();
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("abc"));
        assert_eq!(v.get("queries").and_then(JsonValue::as_u64), Some(1));
        for key in [
            "wall_us",
            "generation",
            "fires",
            "goals",
            "work",
            "cache_hits",
            "share_hits",
            "share_misses",
            "cycles_collapsed",
        ] {
            assert!(
                v.get(key).and_then(JsonValue::as_u64).is_some(),
                "missing {key}"
            );
        }
    }
}
