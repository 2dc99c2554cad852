//! The `ddpa-serve` wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Parsing reuses the hand-rolled reader in
//! [`ddpa_obs::parse_json`], so the whole protocol stays inside the
//! workspace's zero-dependency envelope.
//!
//! Successful responses carry `"ok": true` plus operation-specific
//! fields; failures carry `"ok": false` and an `"error"` object with a
//! stable [`ErrorCode`] and a human-readable message. The grammar is
//! documented in `docs/SERVER.md`.

use ddpa_obs::JsonValue;

/// A single query against a session, as it appears on the wire either
/// inside `{"op":"query",...}` or as an element of a batch's `"queries"`
/// array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// `{"kind":"points-to","name":"main::p"}` — what may `name` point to?
    PointsTo { name: String },
    /// `{"kind":"pointed-to-by","name":"obj"}` — which pointers may point
    /// to `name`?
    PointedToBy { name: String },
    /// `{"kind":"may-alias","a":"p","b":"q"}` — may the two pointers
    /// alias?
    MayAlias { a: String, b: String },
    /// `{"kind":"call-targets","site":3}` — which functions may indirect
    /// call site number 3 invoke?
    CallTargets { site: u64 },
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// The server-wide view: per-session statistics plus the whole
    /// metrics registry.
    Stats,
    /// Graceful server shutdown.
    Shutdown,
    /// Create a session from program text.
    Open {
        session: String,
        program: String,
        /// `true` when `program` is MiniC source rather than constraint
        /// text.
        minic: bool,
        /// Default deduction budget for queries on this session.
        budget: Option<u64>,
        /// Session default for intra-query parallelism: when `true`,
        /// queries on this session run on the frame scheduler with the
        /// server's configured worker count unless a request overrides it.
        parallel_query: bool,
    },
    /// Drop a session.
    Close { session: String },
    /// Append constraint text to a live session, invalidating its memo
    /// table and bumping its generation.
    AddConstraints { session: String, program: String },
    /// One query against a session.
    Query {
        session: String,
        spec: QuerySpec,
        budget: Option<u64>,
        timeout_ms: Option<u64>,
        /// `"trace": true` — attach a per-request trace object (trace ID,
        /// wall time, work deltas) to the response.
        trace: bool,
        /// `"parallel_query": true/false` — per-request override of the
        /// session's intra-query parallelism default (`None` inherits it).
        parallel_query: Option<bool>,
    },
    /// Many queries against a session, answered in order.
    Batch {
        session: String,
        specs: Vec<QuerySpec>,
        /// Answer every query as a `"parallel_query": true` query would be:
        /// on the session's warm engine, through the frame scheduler.
        parallel: bool,
        budget: Option<u64>,
        timeout_ms: Option<u64>,
        /// `"trace": true` — attach one trace object covering the whole
        /// batch to the response.
        trace: bool,
    },
    /// Persist a session's completed fixpoints as a snapshot file on the
    /// *server's* filesystem.
    Snapshot {
        session: String,
        /// Target path; defaults to `<snapshot-dir>/<session>.snap` when
        /// the server was started with `--snapshot-dir`.
        path: Option<String>,
    },
    /// Warm-start a session from a snapshot file on the *server's*
    /// filesystem. Deliberately path-based, never inline: a multi-MB
    /// snapshot payload would trip the bounded line reader
    /// (`max_line_bytes`) and be truncated mid-frame.
    Restore { session: String, path: String },
    /// The per-session view: the hottest goals by attributed work, the
    /// critical-path profile (`W`, `S`, `W/S`) and the session's entries
    /// in the slow ring; on request also flight events and the goal
    /// graph.
    Inspect {
        session: String,
        /// Cap on returned hottest goals (defaults to 10).
        top: Option<u64>,
        /// Return the newest `limit` flight-recorder events (`None` = no
        /// events).
        limit: Option<u64>,
        /// Return the goal dependency graph in this format (`None` = no
        /// graph).
        graph: Option<GraphFormat>,
    },
}

/// How `inspect` renders the goal dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// `"graph":"json"` — a `"graph"` object of nodes and edges.
    Json,
    /// `"graph":"dot"` — a `"dot"` string in Graphviz syntax.
    Dot,
}

impl Request {
    /// The request's `"op"` on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Open { .. } => "open",
            Request::Close { .. } => "close",
            Request::AddConstraints { .. } => "add-constraints",
            Request::Query { .. } => "query",
            Request::Batch { .. } => "batch",
            Request::Snapshot { .. } => "snapshot",
            Request::Restore { .. } => "restore",
            Request::Inspect { .. } => "inspect",
        }
    }

    /// The session the request names, if any.
    pub fn session(&self) -> Option<&str> {
        match self {
            Request::Ping | Request::Stats | Request::Shutdown => None,
            Request::Open { session, .. }
            | Request::Close { session }
            | Request::AddConstraints { session, .. }
            | Request::Query { session, .. }
            | Request::Batch { session, .. }
            | Request::Snapshot { session, .. }
            | Request::Restore { session, .. }
            | Request::Inspect { session, .. } => Some(session),
        }
    }
}

/// Stable machine-readable error codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// The JSON was well-formed but not a valid request.
    BadRequest,
    /// The line exceeded the server's `max_line_bytes`.
    Oversized,
    /// Unknown `"op"` value.
    UnknownOp,
    /// The named session does not exist.
    NoSession,
    /// `open` for a session name that already exists.
    SessionExists,
    /// A query named a node the session's program does not contain.
    NoNode,
    /// Program text failed to parse/lower.
    BadProgram,
    /// The server is saturated (in-flight or connection limit).
    Busy,
    /// The server is shutting down.
    ShuttingDown,
    /// A snapshot could not be written or restored (io failure, corrupt
    /// file, format-version or program-hash mismatch).
    Snapshot,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::NoSession => "no-session",
            ErrorCode::SessionExists => "session-exists",
            ErrorCode::NoNode => "no-node",
            ErrorCode::BadProgram => "bad-program",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Snapshot => "snapshot-error",
        }
    }
}

/// A protocol-level failure: code plus human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ProtoError {
    pub code: ErrorCode,
    pub message: String,
}

impl ProtoError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }

    /// Renders the error as a response line (no trailing newline).
    pub fn to_line(&self) -> String {
        error_response(self.code, &self.message).to_string()
    }
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds a `{"ok":false,"error":{...}}` response value.
pub fn error_response(code: ErrorCode, message: &str) -> JsonValue {
    obj(vec![
        ("ok", JsonValue::Bool(false)),
        (
            "error",
            obj(vec![
                ("code", JsonValue::str(code.as_str())),
                ("message", JsonValue::str(message)),
            ]),
        ),
    ])
}

/// Builds a `{"ok":true,"op":op,...fields}` response value.
pub fn ok_response(op: &str, fields: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut all = vec![("ok", JsonValue::Bool(true)), ("op", JsonValue::str(op))];
    all.extend(fields);
    obj(all)
}

fn bad(message: impl Into<String>) -> ProtoError {
    ProtoError::new(ErrorCode::BadRequest, message)
}

fn need_str(v: &JsonValue, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing or non-string field {key:?}")))
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a non-negative integer"))),
    }
}

fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| bad(format!("field {key:?} must be a string"))),
    }
}

fn opt_bool(v: &JsonValue, key: &str) -> Result<Option<bool>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(f) => f
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("field {key:?} must be a boolean"))),
    }
}

/// Parses one query spec object (the `"kind"`-discriminated shape used by
/// both `query` and `batch`).
pub fn parse_spec(v: &JsonValue) -> Result<QuerySpec, ProtoError> {
    let kind = need_str(v, "kind")?;
    match kind.as_str() {
        "points-to" => Ok(QuerySpec::PointsTo {
            name: need_str(v, "name")?,
        }),
        "pointed-to-by" => Ok(QuerySpec::PointedToBy {
            name: need_str(v, "name")?,
        }),
        "may-alias" => Ok(QuerySpec::MayAlias {
            a: need_str(v, "a")?,
            b: need_str(v, "b")?,
        }),
        "call-targets" => {
            let site = opt_u64(v, "site")?
                .ok_or_else(|| bad("call-targets needs a \"site\" index"))?;
            Ok(QuerySpec::CallTargets { site })
        }
        other => Err(bad(format!(
            "unknown query kind {other:?} (expected points-to, pointed-to-by, may-alias, or call-targets)"
        ))),
    }
}

/// Parses a request line that has already been decoded from JSON.
pub fn parse_request(v: &JsonValue) -> Result<Request, ProtoError> {
    if v.as_object().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let op = need_str(v, "op").map_err(|_| bad("request needs a string \"op\" field"))?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "open" => {
            let format = match v.get("format").and_then(JsonValue::as_str) {
                None | Some("constraints") => false,
                Some("minic") => true,
                Some(other) => {
                    return Err(bad(format!(
                        "unknown format {other:?} (expected constraints or minic)"
                    )))
                }
            };
            Ok(Request::Open {
                session: need_str(v, "session")?,
                program: need_str(v, "program")?,
                minic: format,
                budget: opt_u64(v, "budget")?,
                parallel_query: opt_bool(v, "parallel_query")?.unwrap_or(false),
            })
        }
        "close" => Ok(Request::Close {
            session: need_str(v, "session")?,
        }),
        "add-constraints" => Ok(Request::AddConstraints {
            session: need_str(v, "session")?,
            program: need_str(v, "program")?,
        }),
        "query" => Ok(Request::Query {
            session: need_str(v, "session")?,
            spec: parse_spec(v)?,
            budget: opt_u64(v, "budget")?,
            timeout_ms: opt_u64(v, "timeout_ms")?,
            trace: opt_bool(v, "trace")?.unwrap_or(false),
            parallel_query: opt_bool(v, "parallel_query")?,
        }),
        "batch" => {
            let queries = v
                .get("queries")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("batch needs a \"queries\" array"))?;
            let specs = queries.iter().map(parse_spec).collect::<Result<_, _>>()?;
            Ok(Request::Batch {
                session: need_str(v, "session")?,
                specs,
                parallel: opt_bool(v, "parallel")?.unwrap_or(false),
                budget: opt_u64(v, "budget")?,
                timeout_ms: opt_u64(v, "timeout_ms")?,
                trace: opt_bool(v, "trace")?.unwrap_or(false),
            })
        }
        "snapshot" => Ok(Request::Snapshot {
            session: need_str(v, "session")?,
            path: opt_str(v, "path")?,
        }),
        "restore" => {
            if v.get("data").is_some() || v.get("bytes").is_some() {
                return Err(bad(
                    "restore takes a server-side \"path\", not an inline payload \
                     (snapshots exceed the line-length limit)",
                ));
            }
            Ok(Request::Restore {
                session: need_str(v, "session")?,
                path: need_str(v, "path")?,
            })
        }
        "inspect" => Ok(Request::Inspect {
            session: need_str(v, "session")?,
            top: opt_u64(v, "top")?,
            limit: opt_u64(v, "limit")?,
            graph: match opt_str(v, "graph")?.as_deref() {
                None => None,
                Some("json") => Some(GraphFormat::Json),
                Some("dot") => Some(GraphFormat::Dot),
                Some(other) => {
                    return Err(bad(format!(
                        "unknown graph format {other:?} (expected json or dot)"
                    )))
                }
            },
        }),
        other => Err(ProtoError::new(
            ErrorCode::UnknownOp,
            format!("unknown op {other:?}"),
        )),
    }
}

/// Request builders shared by [`crate::Client`], the CLI, and tests.
///
/// Each returns the [`JsonValue`] that, serialized onto one line, forms
/// the corresponding request.
pub mod build {
    use super::{obj, GraphFormat, JsonValue, QuerySpec};

    pub fn ping() -> JsonValue {
        obj(vec![("op", JsonValue::str("ping"))])
    }

    pub fn stats() -> JsonValue {
        obj(vec![("op", JsonValue::str("stats"))])
    }

    pub fn shutdown() -> JsonValue {
        obj(vec![("op", JsonValue::str("shutdown"))])
    }

    /// Appends `"trace": true` to a built `query`/`batch` request so the
    /// response carries a per-request trace object.
    pub fn with_trace(request: JsonValue) -> JsonValue {
        match request {
            JsonValue::Object(mut fields) => {
                fields.push(("trace".to_owned(), JsonValue::Bool(true)));
                JsonValue::Object(fields)
            }
            other => other,
        }
    }

    /// Appends `"parallel_query": true` to a built `open`/`query` request:
    /// on `open` it becomes the session default, on `query` a per-request
    /// override of that default.
    pub fn with_parallel_query(request: JsonValue) -> JsonValue {
        match request {
            JsonValue::Object(mut fields) => {
                fields.push(("parallel_query".to_owned(), JsonValue::Bool(true)));
                JsonValue::Object(fields)
            }
            other => other,
        }
    }

    pub fn open(session: &str, program: &str, minic: bool, budget: Option<u64>) -> JsonValue {
        let mut fields = vec![
            ("op", JsonValue::str("open")),
            ("session", JsonValue::str(session)),
            ("program", JsonValue::str(program)),
            (
                "format",
                JsonValue::str(if minic { "minic" } else { "constraints" }),
            ),
        ];
        if let Some(b) = budget {
            fields.push(("budget", JsonValue::U64(b)));
        }
        obj(fields)
    }

    pub fn close(session: &str) -> JsonValue {
        obj(vec![
            ("op", JsonValue::str("close")),
            ("session", JsonValue::str(session)),
        ])
    }

    pub fn add_constraints(session: &str, program: &str) -> JsonValue {
        obj(vec![
            ("op", JsonValue::str("add-constraints")),
            ("session", JsonValue::str(session)),
            ("program", JsonValue::str(program)),
        ])
    }

    /// The `"kind"`-discriminated fields of one query spec.
    pub fn spec_fields(spec: &QuerySpec) -> Vec<(&'static str, JsonValue)> {
        match spec {
            QuerySpec::PointsTo { name } => vec![
                ("kind", JsonValue::str("points-to")),
                ("name", JsonValue::str(name.as_str())),
            ],
            QuerySpec::PointedToBy { name } => vec![
                ("kind", JsonValue::str("pointed-to-by")),
                ("name", JsonValue::str(name.as_str())),
            ],
            QuerySpec::MayAlias { a, b } => vec![
                ("kind", JsonValue::str("may-alias")),
                ("a", JsonValue::str(a.as_str())),
                ("b", JsonValue::str(b.as_str())),
            ],
            QuerySpec::CallTargets { site } => vec![
                ("kind", JsonValue::str("call-targets")),
                ("site", JsonValue::U64(*site)),
            ],
        }
    }

    /// `{"op":"snapshot","session":...}` — persist a session's memo to a
    /// server-side file (default path under the server's snapshot dir).
    pub fn snapshot(session: &str, path: Option<&str>) -> JsonValue {
        let mut fields = vec![
            ("op", JsonValue::str("snapshot")),
            ("session", JsonValue::str(session)),
        ];
        if let Some(p) = path {
            fields.push(("path", JsonValue::str(p)));
        }
        obj(fields)
    }

    /// `{"op":"restore","session":...,"path":...}` — warm-start a session
    /// from a server-side snapshot file.
    pub fn restore(session: &str, path: &str) -> JsonValue {
        obj(vec![
            ("op", JsonValue::str("restore")),
            ("session", JsonValue::str(session)),
            ("path", JsonValue::str(path)),
        ])
    }

    /// `{"op":"inspect","session":...}` — hottest goals, the
    /// critical-path profile and the session's slow requests, plus the
    /// newest `limit` flight events and the goal graph when asked.
    pub fn inspect(
        session: &str,
        top: Option<u64>,
        limit: Option<u64>,
        graph: Option<GraphFormat>,
    ) -> JsonValue {
        let mut fields = vec![
            ("op", JsonValue::str("inspect")),
            ("session", JsonValue::str(session)),
        ];
        if let Some(n) = top {
            fields.push(("top", JsonValue::U64(n)));
        }
        if let Some(n) = limit {
            fields.push(("limit", JsonValue::U64(n)));
        }
        match graph {
            Some(GraphFormat::Json) => fields.push(("graph", JsonValue::str("json"))),
            Some(GraphFormat::Dot) => fields.push(("graph", JsonValue::str("dot"))),
            None => {}
        }
        obj(fields)
    }

    pub fn query(
        session: &str,
        spec: &QuerySpec,
        budget: Option<u64>,
        timeout_ms: Option<u64>,
    ) -> JsonValue {
        let mut fields = vec![
            ("op", JsonValue::str("query")),
            ("session", JsonValue::str(session)),
        ];
        fields.extend(spec_fields(spec));
        if let Some(b) = budget {
            fields.push(("budget", JsonValue::U64(b)));
        }
        if let Some(t) = timeout_ms {
            fields.push(("timeout_ms", JsonValue::U64(t)));
        }
        obj(fields)
    }

    pub fn batch(
        session: &str,
        specs: &[QuerySpec],
        parallel: bool,
        budget: Option<u64>,
        timeout_ms: Option<u64>,
    ) -> JsonValue {
        let queries = specs
            .iter()
            .map(|s| obj(spec_fields(s)))
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("op", JsonValue::str("batch")),
            ("session", JsonValue::str(session)),
            ("queries", JsonValue::Array(queries)),
        ];
        if parallel {
            fields.push(("parallel", JsonValue::Bool(true)));
        }
        if let Some(b) = budget {
            fields.push(("budget", JsonValue::U64(b)));
        }
        if let Some(t) = timeout_ms {
            fields.push(("timeout_ms", JsonValue::U64(t)));
        }
        obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_obs::parse_json;

    fn round_trip(v: &JsonValue) -> Request {
        let line = v.to_string();
        let reparsed = parse_json(&line).expect("builder output is valid JSON");
        parse_request(&reparsed).expect("builder output is a valid request")
    }

    #[test]
    fn builders_round_trip_through_parser() {
        assert_eq!(round_trip(&build::ping()), Request::Ping);
        assert_eq!(round_trip(&build::stats()), Request::Stats);
        assert_eq!(round_trip(&build::shutdown()), Request::Shutdown);
        assert_eq!(
            round_trip(&build::open("s", "p = &o\n", false, Some(100))),
            Request::Open {
                session: "s".into(),
                program: "p = &o\n".into(),
                minic: false,
                budget: Some(100),
                parallel_query: false,
            }
        );
        assert_eq!(
            round_trip(&build::with_parallel_query(build::open(
                "s", "p = &o\n", false, None
            ))),
            Request::Open {
                session: "s".into(),
                program: "p = &o\n".into(),
                minic: false,
                budget: None,
                parallel_query: true,
            }
        );
        assert_eq!(
            round_trip(&build::close("s")),
            Request::Close {
                session: "s".into()
            }
        );
        assert_eq!(
            round_trip(&build::add_constraints("s", "q = p\n")),
            Request::AddConstraints {
                session: "s".into(),
                program: "q = p\n".into(),
            }
        );
        let specs = vec![
            QuerySpec::PointsTo { name: "p".into() },
            QuerySpec::PointedToBy { name: "o".into() },
            QuerySpec::MayAlias {
                a: "p".into(),
                b: "q".into(),
            },
            QuerySpec::CallTargets { site: 2 },
        ];
        for spec in &specs {
            assert_eq!(
                round_trip(&build::query("s", spec, None, Some(50))),
                Request::Query {
                    session: "s".into(),
                    spec: spec.clone(),
                    budget: None,
                    timeout_ms: Some(50),
                    trace: false,
                    parallel_query: None,
                }
            );
        }
        assert_eq!(
            round_trip(&build::with_parallel_query(build::query(
                "s", &specs[0], None, None,
            ))),
            Request::Query {
                session: "s".into(),
                spec: specs[0].clone(),
                budget: None,
                timeout_ms: None,
                trace: false,
                parallel_query: Some(true),
            }
        );
        assert_eq!(
            round_trip(&build::batch("s", &specs, true, Some(9), None)),
            Request::Batch {
                session: "s".into(),
                specs,
                parallel: true,
                budget: Some(9),
                timeout_ms: None,
                trace: false,
            }
        );
        assert_eq!(
            round_trip(&build::snapshot("s", None)),
            Request::Snapshot {
                session: "s".into(),
                path: None,
            }
        );
        assert_eq!(
            round_trip(&build::snapshot("s", Some("/var/snaps/s.snap"))),
            Request::Snapshot {
                session: "s".into(),
                path: Some("/var/snaps/s.snap".into()),
            }
        );
        assert_eq!(
            round_trip(&build::restore("s", "/var/snaps/s.snap")),
            Request::Restore {
                session: "s".into(),
                path: "/var/snaps/s.snap".into(),
            }
        );
        for (top, limit, graph) in [
            (Some(5), None, None),
            (None, None, None),
            (None, Some(100), Some(GraphFormat::Json)),
            (Some(2), Some(0), Some(GraphFormat::Dot)),
        ] {
            assert_eq!(
                round_trip(&build::inspect("s", top, limit, graph)),
                Request::Inspect {
                    session: "s".into(),
                    top,
                    limit,
                    graph,
                }
            );
        }
    }

    #[test]
    fn restore_refuses_inline_payloads() {
        let v =
            parse_json("{\"op\":\"restore\",\"session\":\"s\",\"path\":\"f\",\"data\":\"AAAA\"}")
                .expect("valid JSON");
        let err = parse_request(&v).expect_err("inline payload refused");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("server-side"));
    }

    #[test]
    fn with_trace_flips_the_trace_flag() {
        let spec = QuerySpec::PointsTo { name: "p".into() };
        let traced = round_trip(&build::with_trace(build::query("s", &spec, None, None)));
        assert!(matches!(traced, Request::Query { trace: true, .. }));
        let batch = round_trip(&build::with_trace(build::batch(
            "s",
            std::slice::from_ref(&spec),
            false,
            None,
            None,
        )));
        assert!(matches!(batch, Request::Batch { trace: true, .. }));
    }

    #[test]
    fn rejects_malformed_requests() {
        let cases = [
            ("[1,2]", "must be a JSON object"),
            ("{}", "needs a string \"op\""),
            ("{\"op\":7}", "needs a string \"op\""),
            ("{\"op\":\"open\",\"session\":\"s\"}", "program"),
            (
                "{\"op\":\"query\",\"session\":\"s\",\"kind\":\"frobnicate\"}",
                "unknown query kind",
            ),
            (
                "{\"op\":\"query\",\"session\":\"s\",\"kind\":\"may-alias\",\"a\":\"p\"}",
                "\"b\"",
            ),
            (
                "{\"op\":\"batch\",\"session\":\"s\"}",
                "\"queries\" array",
            ),
            (
                "{\"op\":\"query\",\"session\":\"s\",\"kind\":\"points-to\",\"name\":\"p\",\"budget\":-1}",
                "non-negative integer",
            ),
            (
                "{\"op\":\"inspect\",\"session\":\"s\",\"graph\":\"svg\"}",
                "unknown graph format",
            ),
        ];
        for (line, needle) in cases {
            let v = parse_json(line).expect("test input is valid JSON");
            let err = parse_request(&v).expect_err(line);
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(
                err.message.contains(needle),
                "{line}: {} should mention {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn unknown_op_gets_its_own_code() {
        let v = parse_json("{\"op\":\"frobnicate\"}").expect("valid JSON");
        let err = parse_request(&v).expect_err("unknown op");
        assert_eq!(err.code, ErrorCode::UnknownOp);
    }

    #[test]
    fn error_response_shape() {
        let line = error_response(ErrorCode::NoSession, "no session \"x\"").to_string();
        let v = parse_json(&line).expect("error response is valid JSON");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        let e = v.get("error").expect("has error object");
        assert_eq!(
            e.get("code").and_then(JsonValue::as_str),
            Some("no-session")
        );
    }
}
