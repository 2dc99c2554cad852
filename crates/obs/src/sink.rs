//! JSONL export: one JSON object per line.
//!
//! The schema (documented in `docs/OBSERVABILITY.md`) tags every line
//! with a `"kind"` field drawn from [`crate::json::KNOWN_KINDS`]:
//!
//! * `{"kind":"meta", ...}` — free-form run metadata;
//! * `{"kind":"counter","name":...,"value":...}` — one per counter;
//! * `{"kind":"gauge","name":...,"value":...}` — one per gauge;
//! * `{"kind":"hist","name":...,"count":...,"sum":...,"p50":...,
//!   "p90":...,"p99":...,"max":...}` — one per histogram, quantiles from
//!   the log-bucketed estimator in [`crate::Histogram`];
//! * `{"kind":"span","path":[...],"count":...,"total_ns":...,"self_ns":...}`
//!   — one per profile-tree node, `path` being the root-to-node names;
//! * `{"kind":"event", ...}` — ad-hoc engine events;
//! * `{"kind":"access", ...}` / `{"kind":"slow", ...}` — `ddpa-serve`
//!   request logs (see `docs/SERVER.md`);
//! * `{"kind":"flight","seq":...,"event":...,"goal":...,...}` — one per
//!   exported [`crate::FlightRecorder`] event (see `docs/OBSERVABILITY.md`).
//!
//! Keys are `&str` borrows serialized straight into the line buffer, so
//! per-line emission allocates no key `String`s — snapshot exports with
//! thousands of counters stay cheap.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::hist::Histogram;
use crate::json::{quote_into, JsonValue};
use crate::profile::{ProfileNode, Profiler};
use crate::registry::Registry;

/// Writes JSON objects to `w`, one per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    /// Reused per-line buffer; emission allocates only on growth.
    line: String,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            line: String::new(),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    /// Writes one object line. Keys are borrowed — no per-field `String`
    /// allocation — and must not contain newlines (values are escaped by
    /// construction).
    pub fn emit(&mut self, kind: &str, fields: &[(&str, JsonValue)]) -> io::Result<()> {
        self.line.clear();
        self.line.push_str("{\"kind\":");
        quote_into(&mut self.line, kind);
        for (key, value) in fields {
            self.line.push(',');
            quote_into(&mut self.line, key);
            self.line.push(':');
            let _ = write!(self.line, "{value}");
        }
        self.line.push('}');
        writeln!(self.w, "{}", self.line)
    }

    /// One `counter` line per registered counter, one `gauge` line per
    /// registered gauge, and one `hist` line per registered histogram,
    /// each group in name order.
    pub fn emit_registry(&mut self, registry: &Registry) -> io::Result<()> {
        for (name, value) in registry.counters() {
            self.emit(
                "counter",
                &[
                    ("name", JsonValue::Str(name)),
                    ("value", JsonValue::U64(value)),
                ],
            )?;
        }
        for (name, value) in registry.gauges() {
            self.emit(
                "gauge",
                &[
                    ("name", JsonValue::Str(name)),
                    ("value", JsonValue::U64(value)),
                ],
            )?;
        }
        for (name, hist) in registry.histograms() {
            self.emit_histogram(&name, &hist)?;
        }
        Ok(())
    }

    /// One `hist` line: sample count, sum, p50/p90/p99 estimates, and the
    /// exact maximum.
    pub fn emit_histogram(&mut self, name: &str, hist: &Histogram) -> io::Result<()> {
        self.emit(
            "hist",
            &[
                ("name", JsonValue::str(name)),
                ("count", JsonValue::U64(hist.count())),
                ("sum", JsonValue::U64(hist.sum())),
                ("p50", JsonValue::U64(hist.quantile(0.5))),
                ("p90", JsonValue::U64(hist.quantile(0.9))),
                ("p99", JsonValue::U64(hist.quantile(0.99))),
                ("max", JsonValue::U64(hist.max())),
            ],
        )
    }

    /// One `span` line per profile-tree node, depth-first.
    pub fn emit_profile(&mut self, profiler: &Profiler) -> io::Result<()> {
        fn walk<W: Write>(
            sink: &mut JsonlSink<W>,
            path: &mut Vec<String>,
            node: &ProfileNode,
        ) -> io::Result<()> {
            path.push(node.name.clone());
            sink.emit(
                "span",
                &[
                    (
                        "path",
                        JsonValue::Array(path.iter().map(|p| JsonValue::str(p.clone())).collect()),
                    ),
                    ("count", JsonValue::U64(node.count)),
                    ("total_ns", JsonValue::U64(node.total.as_nanos() as u64)),
                    ("self_ns", JsonValue::U64(node.self_time.as_nanos() as u64)),
                ],
            )?;
            for child in &node.children {
                walk(sink, path, child)?;
            }
            path.pop();
            Ok(())
        }
        let mut path = Vec::new();
        for root in profiler.snapshot() {
            walk(self, &mut path, &root)?;
        }
        Ok(())
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{validate_jsonl_line, validate_metrics_line};

    fn lines(buf: &[u8]) -> Vec<String> {
        String::from_utf8(buf.to_vec())
            .expect("utf8")
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn every_line_is_one_json_object() {
        let registry = Registry::new();
        registry.counter("demand.fires").add(12);
        registry.counter(r#"odd "name" \ with ∈"#).inc();
        registry.gauge("program.nodes").set(99);
        let profiler = Profiler::new();
        {
            let _a = profiler.enter("solve");
            let _b = profiler.enter("solve.wave");
        }

        let mut sink = JsonlSink::new(Vec::new());
        sink.emit("meta", &[("tool", JsonValue::str("ddpa"))])
            .expect("meta");
        sink.emit_registry(&registry).expect("registry");
        sink.emit_profile(&profiler).expect("profile");
        let buf = sink.into_inner();

        let lines = lines(&buf);
        // meta + 2 counters + 1 gauge + 2 spans.
        assert_eq!(lines.len(), 6);
        for line in &lines {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            validate_metrics_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines
            .iter()
            .any(|l| l.contains("demand.fires") && l.contains(":12")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"span\"") && l.contains("solve.wave")));
    }

    #[test]
    fn hist_lines_carry_quantiles() {
        let registry = Registry::new();
        let h = registry.histogram("server.latency.query_us");
        for v in [10u64, 20, 30, 4000] {
            h.record(v);
        }
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit_registry(&registry).expect("registry");
        let buf = sink.into_inner();
        let lines = lines(&buf);
        assert_eq!(lines.len(), 1);
        let line = &lines[0];
        validate_metrics_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let v = crate::json::parse_json(line).expect("valid");
        assert_eq!(
            v.get("kind").and_then(JsonValue::as_str),
            Some("hist"),
            "{line}"
        );
        assert_eq!(v.get("count").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("sum").and_then(JsonValue::as_u64), Some(4060));
        assert_eq!(v.get("max").and_then(JsonValue::as_u64), Some(4000));
        let p50 = v.get("p50").and_then(JsonValue::as_u64).expect("p50");
        let p99 = v.get("p99").and_then(JsonValue::as_u64).expect("p99");
        assert!((20..=30).contains(&p50), "{line}");
        assert!(p99 <= 4000 && p99 >= p50, "{line}");
    }

    #[test]
    fn emitted_bytes_match_the_owned_key_format() {
        // The borrowed-key emit path must produce byte-identical output
        // to building a JsonValue::Object with owned keys.
        let fields = [
            ("name", JsonValue::str("demand.fires")),
            ("value", JsonValue::U64(12)),
        ];
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit("counter", &fields).expect("emit");
        let got = String::from_utf8(sink.into_inner()).expect("utf8");
        let mut owned = vec![("kind".to_owned(), JsonValue::str("counter"))];
        owned.extend(fields.iter().map(|(k, v)| ((*k).to_owned(), v.clone())));
        let want = format!("{}\n", JsonValue::Object(owned));
        assert_eq!(got, want);
    }
}
