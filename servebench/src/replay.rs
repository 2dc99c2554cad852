//! The traced pass: replays a workload's requests in this process, without
//! the socket, through the public calls the server dispatches into, with
//! bench-owned spans around each call.
//!
//! A request's spans are its layers; everything between them (session
//! map, trace ids, building the response value) is its self time, which
//! the ledger reports as unattributed. Sub-layers a session call hides
//! (parsing, printing, lowering, diffing, snapshot encoding) are measured
//! in isolation on the same inputs right after the request, as spans with
//! no parent that the ledger leaves out.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ddpa_demand::EngineStats;
use ddpa_obs::{parse_json, JsonValue};
use ddpa_serve::proto::{error_response, ok_response, parse_request, ErrorCode, ProtoError};
use ddpa_serve::{QueryAnswer, Request, ServeConfig, Session};

use crate::check::Collector;
use crate::traffic::Traffic;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The request the span belongs to.
    pub req: u32,
    /// Index of the enclosing span; `None` for requests and isolated
    /// measurements.
    pub parent: Option<usize>,
    /// Nanoseconds since the pass started.
    pub start: u64,
    pub end: u64,
    /// Recorded while the measured streams ran (not set-up or teardown).
    pub measured: bool,
}

impl Span {
    pub const REQUEST: &'static str = "request";

    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }

    /// A sub-layer measured beside, not inside, its request.
    pub fn isolated(&self) -> bool {
        self.parent.is_none() && self.name != Span::REQUEST
    }

    pub fn json(&self, id: usize) -> JsonValue {
        JsonValue::Object(vec![
            ("id".into(), JsonValue::U64(id as u64)),
            ("name".into(), JsonValue::str(self.name)),
            ("req".into(), JsonValue::U64(u64::from(self.req))),
            (
                "parent".into(),
                self.parent
                    .map_or(JsonValue::Null, |p| JsonValue::U64(p as u64)),
            ),
            ("start_ns".into(), JsonValue::U64(self.start)),
            ("end_ns".into(), JsonValue::U64(self.end)),
            ("measured".into(), JsonValue::Bool(self.measured)),
            ("isolated".into(), JsonValue::Bool(self.isolated())),
        ])
    }
}

/// Records spans in memory; inert when tracing is off.
struct Tracer {
    on: bool,
    epoch: Instant,
    measured: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, req: u32, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start = nanos(self.epoch.elapsed());
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
            measured: self.measured,
        });
        Some(self.spans.len() - 1)
    }

    fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = nanos(self.epoch.elapsed());
        }
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(name, req, parent);
        let out = f();
        self.end(span);
        out
    }
}

/// What one replay saw.
#[derive(Default)]
pub struct ReplayPass {
    /// Every span, parents indexing into this vector.
    pub spans: Vec<Span>,
    /// Total and count of measured request times (clock read around each
    /// request whether or not tracing is on).
    pub request_ns: u128,
    pub requests: u64,
    /// Engine counter deltas of the measured queries.
    pub demand: EngineStats,
    pub responses: Collector,
}

/// Deferred isolated measurement of a request's hidden sub-layers.
enum Probe {
    None,
    Open {
        text: String,
        minic: bool,
    },
    Edit {
        session: Arc<Mutex<Session>>,
        extra: String,
    },
    Snapshot(ddpa_snap::Snapshot),
    Restore(String),
}

/// The server's session table, as the replay keeps it.
struct Replay {
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    config: ServeConfig,
    next_id: AtomicU32,
}

/// Replays `traffic` once: set-up, the streams (one thread each, sharing
/// the sessions as connections do), then teardown.
pub fn run(traffic: &Traffic, traced: bool) -> ReplayPass {
    let replay = Replay {
        sessions: Mutex::new(HashMap::new()),
        config: ServeConfig {
            workers: traffic.workers,
            ..ServeConfig::default()
        },
        next_id: AtomicU32::new(0),
    };
    let epoch = Instant::now();
    let tracer = |measured| Tracer {
        on: traced,
        epoch,
        measured,
        spans: Vec::new(),
    };
    let mut pass = ReplayPass::default();

    let mut t = tracer(false);
    replay.play(traffic, &traffic.setup, &mut t, &mut pass);
    pass.spans = t.spans;
    let streams: Vec<(Tracer, ReplayPass)> = std::thread::scope(|scope| {
        let running: Vec<_> = traffic
            .streams
            .iter()
            .map(|stream| {
                let replay = &replay;
                let mut t = tracer(true);
                scope.spawn(move || {
                    let mut part = ReplayPass::default();
                    replay.play(traffic, stream, &mut t, &mut part);
                    (t, part)
                })
            })
            .collect();
        running
            .into_iter()
            .map(|h| h.join().expect("replay threads do not panic"))
            .collect()
    });
    for (t, part) in streams {
        append_spans(&mut pass.spans, t.spans);
        pass.request_ns += part.request_ns;
        pass.requests += part.requests;
        pass.demand = add_stats(&pass.demand, &part.demand);
        pass.responses.extend(part.responses);
    }
    let mut t = tracer(false);
    replay.play(traffic, &traffic.teardown, &mut t, &mut pass);
    append_spans(&mut pass.spans, t.spans);
    pass
}

/// Appends another tracer's spans, re-basing their parent indices.
fn append_spans(all: &mut Vec<Span>, spans: Vec<Span>) {
    let offset = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

impl Replay {
    fn play(&self, traffic: &Traffic, reqs: &[u32], t: &mut Tracer, out: &mut ReplayPass) {
        for &i in reqs {
            let req = &traffic.requests[i as usize];
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            let started = Instant::now();
            let root = t.begin(Span::REQUEST, id, None);
            let (line, probe, delta) = self.handle(t, id, root, &req.line);
            t.end(root);
            if t.measured {
                out.request_ns += u128::from(nanos(started.elapsed()));
                out.requests += 1;
                if let Some(delta) = delta {
                    out.demand = add_stats(&out.demand, &delta);
                }
            }
            if t.on {
                isolate(t, id, probe);
            }
            out.responses.add(i, line, t.measured);
        }
    }

    /// Serves one request line as the server's dispatch does; returns the
    /// response line, the deferred isolated measurement, and the engine
    /// counter delta of a query or batch.
    fn handle(
        &self,
        t: &mut Tracer,
        id: u32,
        root: Option<usize>,
        line: &str,
    ) -> (String, Probe, Option<EngineStats>) {
        let value = t.time("obs.json.decode", id, root, || parse_json(line));
        let request = value
            .map_err(|e| ProtoError::new(ErrorCode::BadJson, e))
            .and_then(|v| t.time("serve.proto.parse", id, root, || parse_request(&v)));
        let mut probe = Probe::None;
        let mut delta = None;
        let response =
            request.and_then(|request| self.dispatch(t, id, root, request, &mut probe, &mut delta));
        let response = response.unwrap_or_else(|e| error_response(e.code, &e.message));
        let line = t.time("obs.json.encode", id, root, || response.to_string());
        (line, probe, delta)
    }

    fn dispatch(
        &self,
        t: &mut Tracer,
        id: u32,
        root: Option<usize>,
        request: Request,
        probe: &mut Probe,
        delta: &mut Option<EngineStats>,
    ) -> Result<JsonValue, ProtoError> {
        match request {
            Request::Open {
                session,
                program,
                minic,
                budget,
                parallel_query,
            } => {
                let new = t
                    .time("serve.session.open", id, root, || {
                        Session::open(&program, minic, budget)
                    })?
                    .with_parallel(
                        self.config.workers,
                        self.config.sched_policy,
                        parallel_query,
                    );
                let (nodes, constraints) =
                    (new.program().num_nodes(), new.program().num_constraints());
                let mut sessions = lock(&self.sessions);
                if sessions.contains_key(&session) {
                    return Err(ProtoError::new(
                        ErrorCode::SessionExists,
                        format!("session {session:?} already exists"),
                    ));
                }
                sessions.insert(session.clone(), Arc::new(Mutex::new(new)));
                drop(sessions);
                *probe = Probe::Open {
                    text: program,
                    minic,
                };
                Ok(ok_response(
                    "open",
                    vec![
                        ("session", JsonValue::str(session)),
                        ("nodes", JsonValue::U64(nodes as u64)),
                        ("constraints", JsonValue::U64(constraints as u64)),
                        ("generation", JsonValue::U64(0)),
                        ("restored", JsonValue::U64(0)),
                    ],
                ))
            }
            Request::Close { session } => {
                lock(&self.sessions)
                    .remove(&session)
                    .ok_or_else(|| no_session(&session))?;
                Ok(ok_response(
                    "close",
                    vec![("session", JsonValue::str(session))],
                ))
            }
            Request::Query {
                session,
                spec,
                budget,
                timeout_ms,
                parallel_query,
                ..
            } => {
                let handle = self.session(&session)?;
                let deadline = self.deadline(timeout_ms);
                let mut s = t.time("serve.session.lock_wait", id, root, || lock(&handle));
                let resolved = t.time("serve.session.resolve", id, root, || s.resolve(&spec))?;
                let (answer, report) = t.time("serve.session.query", id, root, || {
                    let bracket = s.begin_trace(format!("r{id}"));
                    let answer = s.query_opt(resolved, budget, deadline, parallel_query);
                    (answer, s.finish_trace(bracket))
                });
                let generation = s.generation();
                let sched = s.last_sched();
                drop(s);
                *delta = Some(report.delta);
                let mut fields = vec![
                    ("session", JsonValue::str(session)),
                    ("result", render(&answer, generation)),
                    ("generation", JsonValue::U64(generation)),
                ];
                if let Some(sched) = sched {
                    fields.push(("sched", JsonValue::str(sched)));
                }
                Ok(ok_response("query", fields))
            }
            Request::Batch {
                session,
                specs,
                budget,
                timeout_ms,
                ..
            } => {
                let handle = self.session(&session)?;
                let deadline = self.deadline(timeout_ms);
                let mut s = t.time("serve.session.lock_wait", id, root, || lock(&handle));
                let resolved: Vec<_> = t.time("serve.session.resolve", id, root, || {
                    specs.iter().map(|spec| s.resolve(spec)).collect()
                });
                let generation = s.generation();
                let (answers, report) = t.time("serve.session.query", id, root, || {
                    let bracket = s.begin_trace(format!("r{id}"));
                    let answers: Vec<_> = resolved
                        .iter()
                        .map(|r| match r {
                            Ok(spec) => Ok(s.query(*spec, budget, deadline)),
                            Err(e) => Err(e.clone()),
                        })
                        .collect();
                    (answers, s.finish_trace(bracket))
                });
                drop(s);
                *delta = Some(report.delta);
                let results = answers
                    .iter()
                    .map(|a| match a {
                        Ok(a) => render(a, generation),
                        Err(e) => error_response(e.code, &e.message),
                    })
                    .collect();
                Ok(ok_response(
                    "batch",
                    vec![
                        ("session", JsonValue::str(session)),
                        ("results", JsonValue::Array(results)),
                        ("generation", JsonValue::U64(generation)),
                    ],
                ))
            }
            Request::AddConstraints { session, program } => {
                let handle = self.session(&session)?;
                let mut s = t.time("serve.session.lock_wait", id, root, || lock(&handle));
                let edit = t.time("serve.session.add_constraints", id, root, || {
                    s.add_constraints(&program)
                })?;
                let response = ok_response(
                    "add-constraints",
                    vec![
                        ("session", JsonValue::str(session)),
                        ("nodes", JsonValue::U64(s.program().num_nodes() as u64)),
                        (
                            "constraints",
                            JsonValue::U64(s.program().num_constraints() as u64),
                        ),
                        ("generation", JsonValue::U64(s.generation())),
                        ("invalidated", JsonValue::U64(edit.invalidated as u64)),
                        ("retained", JsonValue::U64(edit.retained as u64)),
                        ("full_invalidation", JsonValue::Bool(edit.full)),
                    ],
                );
                drop(s);
                *probe = Probe::Edit {
                    session: handle,
                    extra: program,
                };
                Ok(response)
            }
            Request::Snapshot { session, path } => {
                let handle = self.session(&session)?;
                let path = path.ok_or_else(|| {
                    ProtoError::new(ErrorCode::Snapshot, "the replay needs a snapshot path")
                })?;
                let s = t.time("serve.session.lock_wait", id, root, || lock(&handle));
                let snapshot = t.time("serve.session.export", id, root, || s.export_snapshot());
                let generation = s.generation();
                drop(s);
                let bytes = t
                    .time("snap.write", id, root, || {
                        ddpa_snap::write_file(&snapshot, &path)
                    })
                    .map_err(|e| ProtoError::new(ErrorCode::Snapshot, e.to_string()))?;
                let entries = snapshot.entries.len();
                *probe = Probe::Snapshot(snapshot);
                Ok(ok_response(
                    "snapshot",
                    vec![
                        ("session", JsonValue::str(session)),
                        ("path", JsonValue::str(path)),
                        ("entries", JsonValue::U64(entries as u64)),
                        ("bytes", JsonValue::U64(bytes as u64)),
                        ("generation", JsonValue::U64(generation)),
                    ],
                ))
            }
            Request::Restore { session, path } => {
                let handle = self.session(&session)?;
                let snapshot = t
                    .time("snap.read", id, root, || ddpa_snap::read_file(&path))
                    .map_err(|e| ProtoError::new(ErrorCode::Snapshot, e.to_string()))?;
                let mut s = t.time("serve.session.lock_wait", id, root, || lock(&handle));
                let restore = t.time("serve.session.restore", id, root, || {
                    s.restore_snapshot(&snapshot)
                })?;
                let generation = s.generation();
                drop(s);
                *probe = Probe::Restore(path.clone());
                Ok(ok_response(
                    "restore",
                    vec![
                        ("session", JsonValue::str(session)),
                        ("path", JsonValue::str(path)),
                        ("installed", JsonValue::U64(restore.installed as u64)),
                        ("entries", JsonValue::U64(snapshot.entries.len() as u64)),
                        ("rebound", JsonValue::Bool(restore.rebound)),
                        ("dropped", JsonValue::U64(restore.dropped as u64)),
                        ("generation", JsonValue::U64(generation)),
                    ],
                ))
            }
            Request::Stats => {
                let sessions = lock(&self.sessions);
                let mut per_session: Vec<(String, JsonValue)> = sessions
                    .iter()
                    .map(|(name, handle)| {
                        let stats = lock(handle).engine_stats();
                        let fields = [
                            ("queries", stats.queries),
                            ("fires", stats.fires),
                            ("goals", stats.goals_activated),
                            ("cache_hits", stats.cache_hits),
                            ("share_hits", stats.share_hits),
                            ("work", stats.work),
                        ];
                        let fields = fields
                            .into_iter()
                            .map(|(k, v)| (k.to_owned(), JsonValue::U64(v)))
                            .collect();
                        (name.clone(), JsonValue::Object(fields))
                    })
                    .collect();
                drop(sessions);
                per_session.sort_by(|a, b| a.0.cmp(&b.0));
                Ok(ok_response(
                    "stats",
                    vec![("sessions", JsonValue::Object(per_session))],
                ))
            }
            other => Err(ProtoError::new(
                ErrorCode::UnknownOp,
                format!("the replay does not serve {other:?}"),
            )),
        }
    }

    fn session(&self, name: &str) -> Result<Arc<Mutex<Session>>, ProtoError> {
        lock(&self.sessions)
            .get(name)
            .cloned()
            .ok_or_else(|| no_session(name))
    }

    /// The request deadline, from the server's default timeout as in
    /// `ddpa-serve`.
    fn deadline(&self, timeout_ms: Option<u64>) -> Option<Instant> {
        let ms = timeout_ms.unwrap_or(self.config.default_timeout_ms);
        (ms > 0).then(|| Instant::now() + Duration::from_millis(ms))
    }
}

/// Times the sub-layers a request's session call ran, on the same inputs.
fn isolate(t: &mut Tracer, id: u32, probe: Probe) {
    let parse = |t: &mut Tracer, text: &str| {
        t.time("constraints.parse", id, None, || {
            ddpa_constraints::parse_constraints(text)
        })
        .expect("served constraint text parses")
    };
    match probe {
        Probe::None => {}
        Probe::Open { text, minic } => {
            let cp = if minic {
                let ast = t
                    .time("ir.parse", id, None, || ddpa_ir::parse(&text))
                    .expect("served MiniC parses");
                t.time("constraints.lower", id, None, || {
                    ddpa_constraints::lower(&ast)
                })
                .expect("served MiniC lowers")
            } else {
                parse(t, &text)
            };
            let source = t.time("constraints.print", id, None, || {
                ddpa_constraints::print_constraints(&cp)
            });
            black_box(parse(t, &source));
        }
        Probe::Edit { session, extra } => {
            let source = lock(&session).source().to_owned();
            let old = ddpa_constraints::parse_constraints(&source[..source.len() - extra.len()])
                .expect("the source before an edit parses");
            let new = parse(t, &source);
            let diff = t.time("constraints.diff", id, None, || {
                ddpa_constraints::diff_programs(&old, &new)
            });
            black_box(diff);
        }
        Probe::Snapshot(snapshot) => {
            black_box(t.time("snap.encode", id, None, || snapshot.to_bytes()));
        }
        Probe::Restore(path) => {
            let bytes = std::fs::read(&path).expect("the restored snapshot is readable");
            let decoded = t.time("snap.decode", id, None, || {
                ddpa_snap::Snapshot::from_bytes(&bytes)
            });
            black_box(decoded.expect("the restored snapshot decodes"));
        }
    }
}

/// A query answer in the served shape. `ddpa-serve` keeps its renderer
/// private, so this mirrors it; a traced rep fails if the two drift apart
/// (`check::same_shape`).
fn render(answer: &QueryAnswer, generation: u64) -> JsonValue {
    let names = |names: &[String]| {
        JsonValue::Array(names.iter().map(|n| JsonValue::str(n.as_str())).collect())
    };
    let (mut fields, work, timed_out) = match answer {
        QueryAnswer::Set {
            names: set,
            complete,
            work,
            timed_out,
        } => (
            vec![
                ("pts", names(set)),
                ("complete", JsonValue::Bool(*complete)),
            ],
            work,
            timed_out,
        ),
        QueryAnswer::Alias {
            may_alias,
            resolved,
            work,
            timed_out,
        } => (
            vec![
                ("may_alias", JsonValue::Bool(*may_alias)),
                ("resolved", JsonValue::Bool(*resolved)),
            ],
            work,
            timed_out,
        ),
        QueryAnswer::Targets {
            names: targets,
            resolved,
            work,
            timed_out,
        } => (
            vec![
                ("targets", names(targets)),
                ("resolved", JsonValue::Bool(*resolved)),
            ],
            work,
            timed_out,
        ),
    };
    fields.push(("work", JsonValue::U64(*work)));
    fields.push(("timed_out", JsonValue::Bool(*timed_out)));
    fields.push(("generation", JsonValue::U64(generation)));
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn no_session(name: &str) -> ProtoError {
    ProtoError::new(ErrorCode::NoSession, format!("no session {name:?}"))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no replay thread panics while holding a lock")
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The counters the ledger reads, summed fieldwise.
fn add_stats(a: &EngineStats, b: &EngineStats) -> EngineStats {
    EngineStats {
        queries: a.queries + b.queries,
        cache_hits: a.cache_hits + b.cache_hits,
        fires: a.fires + b.fires,
        goals_activated: a.goals_activated + b.goals_activated,
        work: a.work + b.work,
        cycles_collapsed: a.cycles_collapsed + b.cycles_collapsed,
        share_hits: a.share_hits + b.share_hits,
        share_misses: a.share_misses + b.share_misses,
        sched_parked: a.sched_parked + b.sched_parked,
        sched_steals: a.sched_steals + b.sched_steals,
        ..EngineStats::default()
    }
}
