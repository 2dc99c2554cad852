//! The TCP server: accept loop, bounded line reader, request dispatch.
//!
//! Threading model: one OS thread per connection (bounded by
//! [`ServeConfig::max_connections`]); a parallel query additionally runs
//! on its engine's frame scheduler ([`ServeConfig::workers`]). Sessions
//! live in a server-wide map; each session is wrapped in its own mutex so
//! queries on different sessions proceed concurrently while queries on
//! one session serialize against its single warm engine.
//!
//! Robustness:
//!
//! * per-request deduction budgets and wall-clock timeouts (see
//!   [`crate::session`]);
//! * bounded line reads — an oversized request is rejected with an
//!   `oversized` error and the connection resynchronizes at the next
//!   newline without ever buffering more than `max_line_bytes`;
//! * malformed JSON and truncated frames get error responses, not
//!   connection drops (truncated frames close after responding, since
//!   EOF already ended the stream);
//! * a bounded in-flight gate sheds load with `busy` errors instead of
//!   queueing unboundedly;
//! * clean shutdown on a `shutdown` request or [`ServerHandle::shutdown`]
//!   — the accept loop is woken by a self-connection, connection threads
//!   notice within one read-timeout tick, and all threads are joined.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ddpa_demand::{SchedPolicy, TraceReport};
use ddpa_obs::{quote_into, Counter, Histogram, JsonValue, JsonlSink, Obs, SpanGuard};

use crate::proto::{
    error_response, ok_response, parse_request, ErrorCode, GraphFormat, ProtoError, QuerySpec,
    Request,
};
use crate::session::{IdAnswer, NameTable, RestoreStats, Session};

/// How often blocked reads wake up to check the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Frame-scheduler width for intra-query parallelism (`parallel_query`
    /// requests and `parallel` batches); 1 disables the scheduler.
    pub workers: usize,
    /// Scheduling policy (DFS/BFS) for parallel queries.
    pub sched_policy: SchedPolicy,
    /// Default per-query deduction budget (`None` = unlimited).
    pub default_budget: Option<u64>,
    /// Default per-request wall-clock timeout in milliseconds (0 = none);
    /// requests may override with `"timeout_ms"`.
    pub default_timeout_ms: u64,
    /// Longest accepted request line in bytes.
    pub max_line_bytes: usize,
    /// Requests allowed to execute concurrently before `busy` shedding.
    pub max_inflight: usize,
    /// Concurrent connections before new ones are rejected with `busy`.
    pub max_connections: usize,
    /// Most queries accepted in one batch.
    pub max_batch: usize,
    /// Structured access log: one `{"kind":"access",...}` JSONL line per
    /// dispatched request, appended to this path (`None` = no log).
    /// Requests at or above [`ServeConfig::slow_ms`] additionally get a
    /// `{"kind":"slow",...}` line carrying the full trace.
    pub access_log: Option<PathBuf>,
    /// Slow-request threshold in milliseconds: requests at or above it
    /// are flagged `"slow": true` in the access log and logged with
    /// their full trace.
    pub slow_ms: u64,
    /// How many of the slowest query/batch requests the in-memory ring
    /// retains; `inspect` returns a session's share of them.
    pub slow_keep: usize,
    /// Directory for session snapshots: the default target of the
    /// `snapshot` op, the source scanned by restore-on-open, and the
    /// output of the periodic snapshotter (`None` = snapshotting has no
    /// default location; explicit `snapshot` paths still work).
    pub snapshot_dir: Option<PathBuf>,
    /// Period of the background snapshotter thread in milliseconds
    /// (0 = disabled). Requires `snapshot_dir`.
    pub snapshot_every_ms: u64,
    /// Warm-start newly opened sessions from
    /// `<snapshot_dir>/<session>.snap` when that file exists and matches
    /// the program. Mismatches and corrupt files are counted
    /// (`snap.reject`) and the open proceeds cold — warm-starting is
    /// best-effort by design.
    pub restore_on_open: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            sched_policy: SchedPolicy::default(),
            default_budget: None,
            default_timeout_ms: 10_000,
            max_line_bytes: 4 << 20,
            max_inflight: 64,
            max_connections: 64,
            max_batch: 4096,
            access_log: None,
            slow_ms: 100,
            slow_keep: 32,
            snapshot_dir: None,
            snapshot_every_ms: 0,
            restore_on_open: false,
        }
    }
}

/// Pre-resolved counter and latency-histogram handles for the hot
/// request path. Histograms are in microseconds and registered by name,
/// so `--metrics-out` exports them as `hist` lines.
struct ServerCounters {
    requests: Counter,
    errors: Counter,
    timeouts: Counter,
    busy: Counter,
    connections: Counter,
    sessions_opened: Counter,
    sessions_closed: Counter,
    invalidations: Counter,
    batch_queries: Counter,
    /// Snapshot files written (`snapshot` op + periodic snapshotter).
    snap_writes: Counter,
    /// Snapshots successfully restored (`restore` op + restore-on-open).
    snap_loads: Counter,
    /// Snapshot loads refused: corrupt file, version mismatch, program
    /// hash mismatch, or unreadable path.
    snap_rejects: Counter,
    /// Total snapshot bytes written.
    snap_bytes: Counter,
    /// Background snapshot writes discarded because an edit raced the
    /// export (the session generation moved before the file was written).
    snap_stale_discards: Counter,
    /// Goals invalidated by `add-constraints` edits (transitively dirty).
    dirty_goals: Counter,
    /// Goals kept warm across `add-constraints` edits.
    dirty_retained: Counter,
    /// Dependency edges traversed by edit-time dirty propagation.
    dirty_edges: Counter,
    /// Parallelism-requesting queries the sequential engine served
    /// (budgeted, deadline-expired, single-worker, or cache hit).
    sched_fallbacks: Counter,
    /// Every dispatched request, wall time through `dispatch`.
    request_us: Histogram,
    /// `query` requests only.
    query_us: Histogram,
    /// `batch` requests only (whole batch, not per element).
    batch_us: Histogram,
}

impl ServerCounters {
    fn new(obs: &Obs) -> Self {
        ServerCounters {
            requests: obs.counter("server.requests"),
            errors: obs.counter("server.errors"),
            timeouts: obs.counter("server.timeouts"),
            busy: obs.counter("server.busy_rejections"),
            connections: obs.counter("server.connections"),
            sessions_opened: obs.counter("server.sessions_opened"),
            sessions_closed: obs.counter("server.sessions_closed"),
            invalidations: obs.counter("server.invalidations"),
            batch_queries: obs.counter("server.batch_queries"),
            snap_writes: obs.counter("snap.write"),
            snap_loads: obs.counter("snap.load"),
            snap_rejects: obs.counter("snap.reject"),
            snap_bytes: obs.counter("snap.bytes"),
            snap_stale_discards: obs.counter("snap.stale_discards"),
            dirty_goals: obs.counter("demand.dirty.goals"),
            dirty_retained: obs.counter("demand.dirty.retained"),
            dirty_edges: obs.counter("demand.dirty.edges"),
            sched_fallbacks: obs.counter("server.sched.fallbacks"),
            request_us: obs.histogram("server.latency.request_us"),
            query_us: obs.histogram("server.latency.query_us"),
            batch_us: obs.histogram("server.latency.batch_us"),
        }
    }
}

/// One retained slow-ring entry: the rendered JSON plus its sort key.
struct SlowEntry {
    latency_us: u64,
    entry: JsonValue,
}

/// Offers one request to a slow ring that keeps the `keep` slowest,
/// slowest first and, among equal latencies, earliest first. A request
/// no slower than the ring's last entry is not kept once the ring is
/// full, and its `entry` is never built.
fn offer_slow(
    ring: &mut Vec<SlowEntry>,
    keep: usize,
    latency_us: u64,
    entry: impl FnOnce() -> JsonValue,
) {
    if ring.len() >= keep && ring.last().is_none_or(|e| e.latency_us >= latency_us) {
        return;
    }
    let at = ring.partition_point(|e| e.latency_us >= latency_us);
    ring.insert(
        at,
        SlowEntry {
            latency_us,
            entry: entry(),
        },
    );
    ring.truncate(keep);
}

struct ServerState {
    config: ServeConfig,
    obs: Obs,
    counters: ServerCounters,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    open_connections: AtomicUsize,
    /// Monotone source of per-request trace IDs (`r1`, `r2`, …).
    trace_seq: AtomicU64,
    /// The structured access log, when enabled.
    access: Option<Mutex<JsonlSink<BufWriter<File>>>>,
    /// The N slowest query/batch requests, slowest first, with full
    /// traces. Bounded by `config.slow_keep`.
    slow: Mutex<Vec<SlowEntry>>,
    addr: SocketAddr,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Mints the next trace/request ID.
    fn mint_trace_id(&self) -> String {
        format!("r{}", self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop: a throwaway connection unblocks
        // `TcpListener::accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// RAII slot on the `open_connections` gauge: acquiring increments,
/// dropping decrements. The connection thread owns it for its whole
/// lifetime, so no early return, IO error, panic, or failed spawn can
/// leak the slot — a leaked slot would permanently shrink the
/// `max_connections` budget until the gauge "fills up" and every new
/// connection is shed with `busy`.
struct OpenConnGuard {
    state: Arc<ServerState>,
}

impl OpenConnGuard {
    fn acquire(state: Arc<ServerState>) -> Self {
        state.open_connections.fetch_add(1, Ordering::SeqCst);
        OpenConnGuard { state }
    }
}

impl Drop for OpenConnGuard {
    fn drop(&mut self) {
        self.state.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A cloneable handle for stopping a running server from another thread
/// (a signal-watcher, a test, the CLI's stdin-EOF watcher).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Requests a graceful shutdown; idempotent.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }
}

/// A bound, not-yet-running demand-query server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        obs: Obs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let counters = ServerCounters::new(&obs);
        let access = match &config.access_log {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                Some(Mutex::new(JsonlSink::new(BufWriter::new(file))))
            }
            None => None,
        };
        let state = Arc::new(ServerState {
            config,
            counters,
            obs,
            sessions: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            open_connections: AtomicUsize::new(0),
            trace_seq: AtomicU64::new(0),
            access,
            slow: Mutex::new(Vec::new()),
            addr: local,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A handle that can stop the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the accept loop until shutdown; joins every connection thread
    /// (and the background snapshotter, when configured) before
    /// returning.
    pub fn run(self) -> std::io::Result<()> {
        // Periodic durability: a detached ticker writes every session's
        // snapshot into the snapshot dir, so a crash loses at most one
        // period of memo growth. It exits (after one final pass) when
        // the shutdown flag rises.
        let snapshotter = if self.state.config.snapshot_dir.is_some()
            && self.state.config.snapshot_every_ms > 0
        {
            let state = Arc::clone(&self.state);
            std::thread::Builder::new()
                .name("ddpa-serve-snap".to_string())
                .spawn(move || snapshot_loop(&state))
                .ok()
        } else {
            None
        };
        let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.state.shutting_down() {
                break;
            }
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.state.shutting_down() {
                        break;
                    }
                    self.state.trigger_shutdown();
                    if let Some(t) = snapshotter {
                        let _ = t.join();
                    }
                    return Err(e);
                }
            };
            if self.state.shutting_down() {
                break;
            }
            // Line-at-a-time protocol: disable Nagle so single-query
            // round-trips are not throttled by delayed ACKs.
            let _ = stream.set_nodelay(true);
            threads.retain(|t| !t.is_finished());
            let open = self.state.open_connections.load(Ordering::SeqCst);
            if open >= self.state.config.max_connections {
                self.state.counters.busy.inc();
                let mut stream = stream;
                let line = error_response(ErrorCode::Busy, "connection limit reached").to_string();
                let _ = write_line(&mut stream, line);
                continue;
            }
            let guard = OpenConnGuard::acquire(Arc::clone(&self.state));
            self.state.counters.connections.inc();
            let state = Arc::clone(&self.state);
            // The guard travels into the connection thread; every exit
            // path — clean EOF, IO error, handler panic, or the spawn
            // itself failing (the closure is dropped unrun) — releases
            // the slot exactly once via Drop.
            if let Ok(t) = std::thread::Builder::new()
                .name("ddpa-serve-conn".to_string())
                .spawn(move || {
                    let _guard = guard;
                    let _ = handle_connection(&state, stream);
                })
            {
                threads.push(t);
            }
        }
        for t in threads {
            let _ = t.join();
        }
        if let Some(t) = snapshotter {
            let _ = t.join();
        }
        Ok(())
    }
}

/// File name a session snapshots to under the server's snapshot dir.
/// Session names are client-controlled, so anything outside
/// `[A-Za-z0-9._-]` is replaced — the result is always a bare file name
/// that cannot escape the directory.
fn snapshot_file_name(session: &str) -> String {
    let safe: String = session
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.snap")
}

/// `<snapshot_dir>/<session>.snap`, when a snapshot dir is configured.
fn default_snapshot_path(state: &ServerState, session: &str) -> Option<PathBuf> {
    state
        .config
        .snapshot_dir
        .as_ref()
        .map(|dir| dir.join(snapshot_file_name(session)))
}

/// Exports one session's completed fixpoints and atomically writes them
/// to `path`; returns `Some((entries, bytes, generation))`, or `None`
/// when an `add-constraints` edit raced the export and the stale write
/// was discarded.
fn write_session_snapshot(
    state: &ServerState,
    session: &Arc<Mutex<Session>>,
    path: &Path,
) -> Result<Option<(usize, usize, u64)>, ddpa_snap::SnapError> {
    let _span = state.obs.span("snap.write");
    let s = lock_session(session);
    let snapshot = s.export_snapshot();
    let generation = s.generation();
    drop(s);
    commit_session_snapshot(state, session, &snapshot, generation, path)
}

/// Second half of [`write_session_snapshot`]: persists `snapshot` only
/// if `session` is still at the `generation` the export was captured
/// under. The export runs under the session lock but the (slow) file
/// write does not, so an `add-constraints` edit can land in between —
/// blindly renaming the file into place would clobber a fresher
/// snapshot on disk with pre-edit state. A moved generation discards
/// the write (`Ok(None)`, counted by `snap.stale_discards`); the next
/// snapshotter tick re-exports from current state.
fn commit_session_snapshot(
    state: &ServerState,
    session: &Arc<Mutex<Session>>,
    snapshot: &ddpa_snap::Snapshot,
    generation: u64,
    path: &Path,
) -> Result<Option<(usize, usize, u64)>, ddpa_snap::SnapError> {
    if lock_session(session).generation() != generation {
        state.counters.snap_stale_discards.inc();
        return Ok(None);
    }
    let entries = snapshot.entries.len();
    let bytes = ddpa_snap::write_file(snapshot, path)?;
    state.counters.snap_writes.inc();
    state.counters.snap_bytes.add(bytes as u64);
    Ok(Some((entries, bytes, generation)))
}

/// Writes every live session's snapshot into the snapshot dir. Failures
/// are counted (`server.errors`) but never fatal: the next tick retries.
/// Stale discards (an edit raced the export) are not failures.
fn snapshot_all_sessions(state: &ServerState) {
    for (name, handle) in live_sessions(state) {
        if let Some(path) = default_snapshot_path(state, &name) {
            if write_session_snapshot(state, &handle, &path).is_err() {
                state.counters.errors.inc();
            }
        }
    }
}

/// Body of the background snapshotter thread: every `snapshot_every_ms`
/// persist all sessions, sleeping in [`READ_TICK`] steps so shutdown is
/// honoured promptly; one final pass runs at shutdown so the freshest
/// memo state is on disk for the next process.
fn snapshot_loop(state: &ServerState) {
    let period = Duration::from_millis(state.config.snapshot_every_ms.max(1));
    loop {
        let mut waited = Duration::ZERO;
        while waited < period {
            if state.shutting_down() {
                snapshot_all_sessions(state);
                return;
            }
            let step = READ_TICK.min(period - waited);
            std::thread::sleep(step);
            waited += step;
        }
        snapshot_all_sessions(state);
    }
}

/// What the bounded reader produced for one frame.
enum Frame {
    /// A complete newline-terminated line (without the newline).
    Line(Vec<u8>),
    /// The line exceeded `max_line_bytes`; nothing has been buffered
    /// beyond the cap and the stream still needs resynchronizing.
    Oversized,
    /// Bytes followed by EOF with no newline.
    Truncated,
    /// Clean EOF at a frame boundary.
    Eof,
    /// The server is shutting down.
    Shutdown,
}

/// Reads one newline-terminated frame, never buffering more than
/// `max + 1` bytes, waking every [`READ_TICK`] to honour shutdown.
fn read_frame(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    state: &ServerState,
) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if state.shutting_down() {
            return Ok(Frame::Shutdown);
        }
        let room = (max + 1).saturating_sub(buf.len());
        if room == 0 {
            return Ok(Frame::Oversized);
        }
        match reader
            .by_ref()
            .take(room as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => {
                return Ok(if buf.is_empty() {
                    Frame::Eof
                } else {
                    Frame::Truncated
                });
            }
            Ok(_) => {
                if buf.last() == Some(&b'\n') {
                    buf.pop();
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    if buf.len() > max {
                        return Ok(Frame::Oversized);
                    }
                    return Ok(Frame::Line(buf));
                }
                // No newline yet: either the cap is hit (next iteration
                // reports Oversized) or the socket ran dry mid-line and
                // the next read continues the frame.
            }
            Err(e) if waiting(&e) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Whether a read error only means no bytes have arrived yet: the
/// read-timeout tick, or a signal.
fn waiting(e: &std::io::Error) -> bool {
    use std::io::ErrorKind as K;
    matches!(e.kind(), K::WouldBlock | K::TimedOut | K::Interrupted)
}

/// Discards bytes until the next newline so an oversized frame does not
/// poison the frames behind it.
fn resync_to_newline(
    reader: &mut BufReader<TcpStream>,
    state: &ServerState,
) -> std::io::Result<bool> {
    loop {
        if state.shutting_down() {
            return Ok(false);
        }
        // Inspect buffered bytes so nothing past the newline is
        // discarded; fill_buf + consume gives exact control.
        let step = match reader.fill_buf() {
            Ok([]) => return Ok(false), // EOF while resyncing
            Ok(bytes) => match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => (pos + 1, true),
                None => (bytes.len(), false),
            },
            Err(e) if waiting(&e) => continue,
            Err(e) => return Err(e),
        };
        let (n, found_newline) = step;
        reader.consume(n);
        if found_newline {
            return Ok(true);
        }
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        match read_frame(&mut reader, state.config.max_line_bytes, state)? {
            Frame::Line(bytes) => {
                let response = match String::from_utf8(bytes) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => handle_line(state, &line),
                    Err(_) => fail(state, ErrorCode::BadJson, "request line is not UTF-8"),
                };
                write_line(&mut writer, response)?;
                // The `shutdown` reply and the shutting-down reply are a
                // connection's last line.
                if state.shutting_down() {
                    return Ok(());
                }
            }
            Frame::Oversized => {
                state.counters.requests.inc();
                let msg = format!(
                    "request line exceeds max_line_bytes ({})",
                    state.config.max_line_bytes
                );
                write_line(&mut writer, fail(state, ErrorCode::Oversized, &msg))?;
                if !resync_to_newline(&mut reader, state)? {
                    return Ok(());
                }
            }
            Frame::Truncated => {
                state.counters.requests.inc();
                let resp = fail(
                    state,
                    ErrorCode::BadRequest,
                    "truncated frame: stream ended before newline",
                );
                // Best-effort: the peer half-closed its write side but
                // may still be reading.
                let _ = write_line(&mut writer, resp);
                return Ok(());
            }
            Frame::Eof => return Ok(()),
            Frame::Shutdown => {
                let _ = write_line(
                    &mut writer,
                    error_response(ErrorCode::ShuttingDown, "server is shutting down").to_string(),
                );
                return Ok(());
            }
        }
    }
}

/// Sends one response line and its newline in a single write, so a
/// `TCP_NODELAY` socket carries the response as one segment and wakes
/// the client once.
fn write_line(writer: &mut TcpStream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Records an error and renders its response line.
fn fail(state: &ServerState, code: ErrorCode, message: &str) -> String {
    state.counters.errors.inc();
    error_response(code, message).to_string()
}

/// Handles one request line and returns the response line.
fn handle_line(state: &ServerState, line: &str) -> String {
    state.counters.requests.inc();
    let _span = state.obs.span("server.request");

    if state.shutting_down() {
        return fail(state, ErrorCode::ShuttingDown, "server is shutting down");
    }

    let value = match ddpa_obs::parse_json(line) {
        Ok(v) => v,
        Err(e) => return fail(state, ErrorCode::BadJson, &e),
    };
    let request = match parse_request(&value) {
        Ok(r) => r,
        Err(e) => return fail(state, e.code, &e.message),
    };

    // Backpressure: bound the number of requests executing at once.
    let slot = state.inflight.fetch_add(1, Ordering::SeqCst);
    struct InflightGuard<'a>(&'a AtomicUsize);
    impl Drop for InflightGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _guard = InflightGuard(&state.inflight);
    if slot >= state.config.max_inflight {
        state.counters.busy.inc();
        return fail(
            state,
            ErrorCode::Busy,
            "server is saturated; retry after in-flight requests drain",
        );
    }

    // Request-level observability: every dispatched request gets a trace
    // ID, a latency sample, and (when enabled) an access-log line; traced
    // query/batch requests additionally feed the slow ring.
    let trace_id = state.mint_trace_id();
    let started = Instant::now();
    let mut report: Option<TraceReport> = None;
    let outcome = dispatch(state, &request, &trace_id, &mut report);
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    observe_request(
        state,
        &trace_id,
        request.op(),
        request.session(),
        outcome.is_ok(),
        latency_us,
        report.as_ref(),
    );

    outcome.unwrap_or_else(|e| fail(state, e.code, &e.message))
}

/// Milliseconds since the Unix epoch, for access-log timestamps.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// Records one dispatched request: latency histograms, the access log,
/// and — for query/batch requests, which carry a [`TraceReport`] — the
/// slow ring.
fn observe_request(
    state: &ServerState,
    trace_id: &str,
    op: &'static str,
    session: Option<&str>,
    ok: bool,
    latency_us: u64,
    report: Option<&TraceReport>,
) {
    state.counters.request_us.record(latency_us);
    match op {
        "query" => state.counters.query_us.record(latency_us),
        "batch" => state.counters.batch_us.record(latency_us),
        _ => {}
    }
    let slow = latency_us >= state.config.slow_ms.saturating_mul(1000);

    if let Some(sink) = &state.access {
        let mut fields = vec![
            ("trace", JsonValue::str(trace_id)),
            ("op", JsonValue::str(op)),
            ("unix_ms", JsonValue::U64(unix_ms())),
            ("ok", JsonValue::Bool(ok)),
            ("latency_us", JsonValue::U64(latency_us)),
            ("slow", JsonValue::Bool(slow)),
        ];
        if let Some(s) = session {
            fields.push(("session", JsonValue::str(s)));
        }
        if let Some(r) = report {
            fields.push(("generation", JsonValue::U64(r.generation)));
            fields.push(("fires", JsonValue::U64(r.delta.fires)));
            fields.push(("goals", JsonValue::U64(r.delta.goals_activated)));
            fields.push(("work", JsonValue::U64(r.delta.work)));
            fields.push(("cache_hits", JsonValue::U64(r.delta.cache_hits)));
            fields.push(("share_hits", JsonValue::U64(r.delta.share_hits)));
        }
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let _ = sink.emit("access", &fields);
        if slow {
            if let Some(r) = report {
                fields.push(("trace_report", r.json()));
            }
            let _ = sink.emit("slow", &fields);
        }
        // Flush per line so the log is tail-able while the server runs.
        let _ = sink.flush();
    }

    // The slow ring retains the N slowest traced (query/batch) requests.
    if let Some(r) = report {
        let mut ring = state.slow.lock().unwrap_or_else(|p| p.into_inner());
        offer_slow(&mut ring, state.config.slow_keep, latency_us, || {
            let mut fields = vec![("op".to_owned(), JsonValue::str(op))];
            if let Some(s) = session {
                fields.push(("session".to_owned(), JsonValue::str(s)));
            }
            fields.extend([
                ("latency_us".to_owned(), JsonValue::U64(latency_us)),
                ("unix_ms".to_owned(), JsonValue::U64(unix_ms())),
                ("trace".to_owned(), r.json()),
            ]);
            JsonValue::Object(fields)
        });
    }
}

// Lock helpers. Both recover from poisoning (`into_inner`) instead of
// panicking: a request that dies while holding a lock must wedge only
// itself, not every later request on the same mutex. Recovery is sound
// here — the session map only ever inserts/removes whole entries, and a
// session interrupted mid-query holds partial memo state the engine is
// designed to resume from (or rebuild after the next reload).

fn lock_sessions(
    state: &ServerState,
) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Mutex<Session>>>> {
    state
        .sessions
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn no_session(name: &str) -> ProtoError {
    ProtoError::new(ErrorCode::NoSession, format!("no session {name:?}"))
}

fn get_session(state: &ServerState, name: &str) -> Result<Arc<Mutex<Session>>, ProtoError> {
    lock_sessions(state)
        .get(name)
        .cloned()
        .ok_or_else(|| no_session(name))
}

/// Opens the `server.request.<op>` span `span` and looks up session
/// `name`: the first steps of every request on a live session.
fn session_for(
    state: &ServerState,
    span: &str,
    name: &str,
) -> Result<(SpanGuard, Arc<Mutex<Session>>), ProtoError> {
    let span = state.obs.span(span);
    Ok((span, get_session(state, name)?))
}

/// Every live session with its name. The map lock is released before
/// any session is locked: every request looks its session up under the
/// map lock, so holding it while one session is busy would stall
/// requests on all the others.
fn live_sessions(state: &ServerState) -> Vec<(String, Arc<Mutex<Session>>)> {
    lock_sessions(state)
        .iter()
        .map(|(name, session)| (name.clone(), Arc::clone(session)))
        .collect()
}

fn lock_session(session: &Arc<Mutex<Session>>) -> std::sync::MutexGuard<'_, Session> {
    session
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Appends one answer's result object.
fn push_answer(line: &mut String, answer: &IdAnswer, names: &NameTable, generation: u64) {
    let (work, timed_out) = match answer {
        IdAnswer::Set {
            nodes,
            complete,
            work,
            timed_out,
        } => {
            line.push_str("{\"pts\":");
            push_names(line, nodes.iter().map(|&n| names.node(n)));
            let _ = write!(line, ",\"complete\":{complete}");
            (work, timed_out)
        }
        IdAnswer::Alias {
            may_alias,
            resolved,
            work,
            timed_out,
        } => {
            let _ = write!(line, "{{\"may_alias\":{may_alias},\"resolved\":{resolved}");
            (work, timed_out)
        }
        IdAnswer::Targets {
            funcs,
            resolved,
            work,
            timed_out,
        } => {
            line.push_str("{\"targets\":");
            push_names(line, funcs.iter().map(|&f| names.func(f)));
            let _ = write!(line, ",\"resolved\":{resolved}");
            (work, timed_out)
        }
    };
    let _ = write!(
        line,
        ",\"work\":{work},\"timed_out\":{timed_out},\"generation\":{generation}}}"
    );
}

/// Appends a JSON array of already-quoted names.
fn push_names<'a>(line: &mut String, names: impl Iterator<Item = &'a str> + Clone) {
    line.reserve(names.clone().map(|n| n.len() + 1).sum::<usize>() + 1);
    line.push('[');
    for (i, name) in names.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(name);
    }
    line.push(']');
}

/// What a `query` or `batch` request asks of its session. A query is a
/// batch of one whose answer is `result`, not `results`.
struct Ask<'a> {
    batch: bool,
    session: &'a str,
    specs: &'a [QuerySpec],
    budget: Option<u64>,
    timeout_ms: Option<u64>,
    trace: bool,
    /// `parallel_query` for a query; a parallel batch answers each query
    /// as `parallel_query` would, and a plain one inherits the session
    /// default.
    parallel: Option<bool>,
}

/// Answers a `query` or `batch` request and renders its response line.
/// A batch's unknown names become inline error entries; a query's is the
/// request's error. Only a query reports `sched`.
fn answer(
    state: &ServerState,
    ask: Ask<'_>,
    trace_id: &str,
    report_out: &mut Option<TraceReport>,
) -> Result<String, ProtoError> {
    let (op, span) = if ask.batch {
        ("batch", "server.request.batch")
    } else {
        ("query", "server.request.query")
    };
    let (_span, handle) = session_for(state, span, ask.session)?;
    let deadline = match ask.timeout_ms.unwrap_or(state.config.default_timeout_ms) {
        0 => None,
        ms => Some(Instant::now() + Duration::from_millis(ms)),
    };
    let mut s = lock_session(&handle);
    let bracket = s.begin_trace(trace_id);
    let mut one = |spec| {
        let resolved = s.resolve(spec)?;
        Ok(s.query_ids(resolved, ask.budget, deadline, ask.parallel))
    };
    // A query's single outcome stays on the stack: it allocates no list.
    let (single, many): ([Result<IdAnswer, ProtoError>; 1], Vec<_>);
    let outcomes: &[Result<IdAnswer, ProtoError>] = if ask.batch {
        many = ask.specs.iter().map(one).collect();
        &many
    } else {
        single = [Ok(one(&ask.specs[0])?)];
        &single
    };
    let report = s.finish_trace(bracket);
    let generation = s.generation();
    let sched = if ask.batch { None } else { s.last_sched() };
    let names = s.name_table();
    drop(s);

    // Mirror the request's engine deltas into the server registry, so the
    // `--metrics-out` export carries them: restored-entry and scheduler
    // traffic aggregates across sessions under `demand.share.*` and
    // `demand.sched.*`. Cache hits stay per session, in `stats`'
    // `sessions.<name>.cache_hits`, so a closed session leaves no metric.
    let d = &report.delta;
    let share = [
        ("demand.share.hits", d.share_hits),
        ("demand.share.misses", d.share_misses),
        ("demand.sched.parked", d.sched_parked),
        ("demand.sched.resumed", d.sched_resumed),
        ("demand.sched.steals", d.sched_steals),
        ("demand.sched.wakeups", d.sched_wakeups),
    ];
    for (name, d) in share.into_iter().filter(|&(_, d)| d > 0) {
        state.obs.counter(name).add(d);
    }
    let timeouts = outcomes
        .iter()
        .filter(|o| o.as_ref().is_ok_and(IdAnswer::timed_out))
        .count() as u64;
    if timeouts > 0 {
        state.counters.timeouts.add(timeouts);
    }
    if ask.batch {
        state.counters.batch_queries.add(outcomes.len() as u64);
    }
    // A query that asked for parallelism reports how it actually ran, so
    // budget-forced fallbacks are never silent.
    if sched == Some("sequential-fallback") {
        state.counters.sched_fallbacks.inc();
    }

    // The line is rendered as text straight from answer ids and the
    // session's pre-escaped name table, after the session lock is
    // released. The bytes match what `ok_response` builds for the same
    // fields; `tests/byte_identity.rs` holds them to it.
    let mut line = String::with_capacity(256);
    let _ = write!(line, "{{\"ok\":true,\"op\":\"{op}\",\"session\":");
    quote_into(&mut line, ask.session);
    line.push_str(if ask.batch {
        ",\"results\":["
    } else {
        ",\"result\":"
    });
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        match outcome {
            Ok(a) => push_answer(&mut line, a, &names, generation),
            Err(e) => {
                let _ = write!(line, "{}", error_response(e.code, &e.message));
            }
        }
    }
    if ask.batch {
        line.push(']');
    }
    let _ = write!(line, ",\"generation\":{generation}");
    if let Some(sched) = sched {
        let _ = write!(line, ",\"sched\":\"{sched}\"");
    }
    if ask.trace {
        let _ = write!(line, ",\"trace\":{}", report.json());
    }
    line.push('}');
    *report_out = Some(report);
    Ok(line)
}

/// Reads the snapshot at `path` and stages it in `handle`'s session. The
/// file is read before the session is locked. A refused snapshot counts
/// as `snap.reject`; the caller counts the load. Returns what the restore
/// did, the snapshot's entry count and the session's generation.
fn restore_from(
    state: &ServerState,
    handle: &Arc<Mutex<Session>>,
    path: &(impl AsRef<Path> + std::fmt::Debug),
) -> Result<(RestoreStats, usize, u64), ProtoError> {
    let reject = |e: ProtoError| {
        state.counters.snap_rejects.inc();
        e
    };
    let snapshot = ddpa_snap::read_file(path).map_err(|e| {
        reject(ProtoError::new(
            ErrorCode::Snapshot,
            format!("cannot restore {path:?}: {e}"),
        ))
    })?;
    let entries = snapshot.entries.len();
    let mut s = lock_session(handle);
    let restore = s.restore_snapshot(snapshot).map_err(reject)?;
    Ok((restore, entries, s.generation()))
}

/// Dispatches one parsed request and renders its response line.
/// `trace_id` is the minted request ID; query/batch requests bracket their
/// engine work with it and hand the resulting [`TraceReport`] back
/// through `report_out` for the caller's access-log/slow-ring
/// bookkeeping.
fn dispatch(
    state: &ServerState,
    request: &Request,
    trace_id: &str,
    report_out: &mut Option<TraceReport>,
) -> Result<String, ProtoError> {
    match request {
        Request::Ping => Ok(ok_response("ping", vec![]).to_string()),
        Request::Shutdown => {
            state.trigger_shutdown();
            Ok(ok_response("shutdown", vec![]).to_string())
        }
        Request::Stats => Ok(stats_response(state)),
        Request::Open {
            session,
            program,
            minic,
            budget,
            parallel_query,
        } => {
            let _span = state.obs.span("server.request.open");
            let exists = || {
                ProtoError::new(
                    ErrorCode::SessionExists,
                    format!("session {session:?} already exists"),
                )
            };
            // Checked before any work; checked again at insert, where a
            // racing open of the same name may have won.
            if lock_sessions(state).contains_key(session) {
                return Err(exists());
            }
            let new = Session::open(program, *minic, *budget)?.with_parallel(
                state.config.workers,
                state.config.sched_policy,
                *parallel_query,
            );
            let (nodes, constraints) = (new.program().num_nodes(), new.program().num_constraints());
            let new = Arc::new(Mutex::new(new));
            // Best-effort warm start: a matching snapshot in the
            // snapshot dir is staged in the fresh session's engine, so its
            // first queries are share hits instead of cold deduction. A
            // missing, corrupt, or mismatched snapshot leaves the open
            // cold — restore failures must never fail an open.
            let restored = default_snapshot_path(state, session)
                .filter(|path| state.config.restore_on_open && path.exists())
                .and_then(|path| restore_from(state, &new, &path).ok());
            match lock_sessions(state).entry(session.clone()) {
                Entry::Occupied(_) => return Err(exists()),
                Entry::Vacant(slot) => slot.insert(new),
            };
            if restored.is_some() {
                state.counters.snap_loads.inc();
            }
            state.counters.sessions_opened.inc();
            let restored = restored.map_or(0, |(r, _, _)| r.installed as u64);
            Ok(ok_response(
                "open",
                vec![
                    ("session", JsonValue::str(session.as_str())),
                    ("nodes", JsonValue::U64(nodes as u64)),
                    ("constraints", JsonValue::U64(constraints as u64)),
                    ("generation", JsonValue::U64(0)),
                    ("restored", JsonValue::U64(restored)),
                ],
            )
            .to_string())
        }
        Request::Close { session } => {
            lock_sessions(state)
                .remove(session)
                .ok_or_else(|| no_session(session))?;
            state.counters.sessions_closed.inc();
            Ok(
                ok_response("close", vec![("session", JsonValue::str(session.as_str()))])
                    .to_string(),
            )
        }
        Request::AddConstraints { session, program } => {
            let (_span, handle) = session_for(state, "server.request.add-constraints", session)?;
            let mut s = lock_session(&handle);
            let edit = s.add_constraints(program)?;
            state.counters.invalidations.inc();
            state.counters.dirty_goals.add(edit.invalidated as u64);
            state.counters.dirty_retained.add(edit.retained as u64);
            state.counters.dirty_edges.add(edit.dirty_edges);
            let response = ok_response(
                "add-constraints",
                vec![
                    ("session", JsonValue::str(session.as_str())),
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
            Ok(response.to_string())
        }
        Request::Query {
            session,
            spec,
            budget,
            timeout_ms,
            trace,
            parallel_query,
        } => {
            let ask = Ask {
                batch: false,
                session,
                specs: std::slice::from_ref(spec),
                budget: *budget,
                timeout_ms: *timeout_ms,
                trace: *trace,
                parallel: *parallel_query,
            };
            answer(state, ask, trace_id, report_out)
        }
        Request::Batch {
            session,
            specs,
            parallel,
            budget,
            timeout_ms,
            trace,
        } => {
            if specs.len() > state.config.max_batch {
                return Err(ProtoError::new(
                    ErrorCode::BadRequest,
                    format!(
                        "batch of {} queries exceeds max_batch ({})",
                        specs.len(),
                        state.config.max_batch
                    ),
                ));
            }
            let ask = Ask {
                batch: true,
                session,
                specs,
                budget: *budget,
                timeout_ms: *timeout_ms,
                trace: *trace,
                parallel: parallel.then_some(true),
            };
            answer(state, ask, trace_id, report_out)
        }
        Request::Snapshot { session, path } => {
            let (_span, handle) = session_for(state, "server.request.snapshot", session)?;
            let path = path.as_ref().map(PathBuf::from);
            let path = path
                .or_else(|| default_snapshot_path(state, session))
                .ok_or_else(|| {
                    ProtoError::new(
                        ErrorCode::Snapshot,
                        "no \"path\" given and the server has no --snapshot-dir",
                    )
                })?;
            // A concurrent edit discards the export; for an explicit
            // snapshot request, re-export from the post-edit state
            // rather than failing (bounded, in case edits keep coming).
            let mut written = None;
            for _ in 0..3 {
                written = write_session_snapshot(state, &handle, &path)
                    .map_err(|e| ProtoError::new(ErrorCode::Snapshot, e.to_string()))?;
                if written.is_some() {
                    break;
                }
            }
            let (entries, bytes, generation) = written.ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::Snapshot,
                    "session is being edited concurrently; snapshot discarded — retry",
                )
            })?;
            let shown = path.display().to_string();
            Ok(ok_response(
                "snapshot",
                vec![
                    ("session", JsonValue::str(session.as_str())),
                    ("path", JsonValue::str(shown.as_str())),
                    ("entries", JsonValue::U64(entries as u64)),
                    ("bytes", JsonValue::U64(bytes as u64)),
                    ("generation", JsonValue::U64(generation)),
                ],
            )
            .to_string())
        }
        Request::Inspect {
            session,
            top,
            limit,
            graph,
        } => {
            let (_span, handle) = session_for(state, "server.request.inspect", session)?;
            let slow: Vec<JsonValue> = state
                .slow
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
                .filter(|e| e.entry.get("session").and_then(JsonValue::as_str) == Some(session))
                .map(|e| e.entry.clone())
                .collect();
            let s = lock_session(&handle);
            let engine = s.engine();
            let cp = engine.program();
            let hottest = engine.hottest_goals(top.unwrap_or(10) as usize);
            let hottest = hottest.iter().map(|p| p.to_json(cp)).collect();
            let mut fields = vec![
                ("session", JsonValue::str(session.as_str())),
                ("hottest", JsonValue::Array(hottest)),
                ("critical_path", engine.critical_path().to_json(cp)),
                ("tabled_goals", JsonValue::U64(engine.tabled_goals() as u64)),
                ("generation", JsonValue::U64(engine.generation())),
                ("slow", JsonValue::Array(slow)),
            ];
            if let Some(limit) = limit {
                let flight = engine.flight_recorder();
                fields.extend([
                    (
                        "events",
                        JsonValue::Array(engine.flight_events_json(*limit as usize)),
                    ),
                    (
                        "recorded",
                        JsonValue::U64(flight.map_or(0, |f| f.recorded())),
                    ),
                    ("dropped", JsonValue::U64(flight.map_or(0, |f| f.dropped()))),
                ]);
            }
            match graph {
                Some(GraphFormat::Json) => fields.push(("graph", engine.goal_graph().to_json(cp))),
                Some(GraphFormat::Dot) => {
                    fields.push(("dot", JsonValue::str(engine.goal_graph().to_dot(cp))));
                }
                None => {}
            }
            drop(s);
            Ok(ok_response("inspect", fields).to_string())
        }
        Request::Restore { session, path } => {
            let (_span, handle) = session_for(state, "server.request.restore", session)?;
            let (restore, entries, generation) = restore_from(state, &handle, path)?;
            state.counters.snap_loads.inc();
            Ok(ok_response(
                "restore",
                vec![
                    ("session", JsonValue::str(session.as_str())),
                    ("path", JsonValue::str(path.as_str())),
                    ("installed", JsonValue::U64(restore.installed as u64)),
                    ("entries", JsonValue::U64(entries as u64)),
                    ("rebound", JsonValue::Bool(restore.rebound)),
                    ("dropped", JsonValue::U64(restore.dropped as u64)),
                    ("generation", JsonValue::U64(generation)),
                ],
            )
            .to_string())
        }
    }
}

/// The `stats` response line: every session's statistics, the whole
/// metrics registry as the records `--metrics-out` writes, and the server
/// facts the registry lacks.
fn stats_response(state: &ServerState) -> String {
    let mut per_session: Vec<(String, JsonValue)> = live_sessions(state)
        .into_iter()
        .map(|(name, handle)| {
            let s = lock_session(&handle);
            let stats = s.engine_stats();
            let fields = [
                ("nodes", s.program().num_nodes() as u64),
                ("constraints", s.program().num_constraints() as u64),
                ("generation", s.generation()),
                ("tabled_goals", s.tabled_goals() as u64),
                ("queries", stats.queries),
                ("fires", stats.fires),
                ("goals", stats.goals_activated),
                ("cache_hits", stats.cache_hits),
                ("share_hits", stats.share_hits),
                ("work", stats.work),
                ("flight_events", stats.flight_events),
            ];
            let fields = fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), JsonValue::U64(v)))
                .collect();
            (name, JsonValue::Object(fields))
        })
        .collect();
    per_session.sort_by(|a, b| a.0.cmp(&b.0));
    // The registry's JSONL lines are JSON objects without raw newlines,
    // so joining them with commas makes the `metrics` array.
    let mut registry = JsonlSink::new(Vec::new());
    let _ = registry.emit_registry(&state.obs.registry);
    let records = String::from_utf8(registry.into_inner()).unwrap_or_default();
    let slow_kept = state.slow.lock().unwrap_or_else(|p| p.into_inner()).len();
    let mut line =
        ok_response("stats", vec![("sessions", JsonValue::Object(per_session))]).to_string();
    line.pop(); // the closing brace: the other fields follow
    let _ = write!(
        line,
        ",\"metrics\":[{}],\"open_connections\":{},\"slow\":{{\"kept\":{slow_kept},\"threshold_ms\":{}}},\"workers\":{},\"sched_policy\":",
        records.trim_end().replace('\n', ","),
        state.open_connections.load(Ordering::SeqCst),
        state.config.slow_ms,
        state.config.workers,
    );
    quote_into(&mut line, state.config.sched_policy.as_str());
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::QuerySpec;
    use crate::session::QueryAnswer;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The record named `name` in a `stats` response's `metrics`.
    fn metric<'a>(stats: &'a JsonValue, name: &str) -> &'a JsonValue {
        stats
            .get("metrics")
            .and_then(JsonValue::as_array)
            .and_then(|m| {
                m.iter()
                    .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
            })
            .unwrap_or_else(|| panic!("no metric {name:?} in {stats}"))
    }

    fn pts_names(session: &Arc<Mutex<Session>>, name: &str) -> Vec<String> {
        let mut s = lock_session(session);
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: name.into() })
            .expect("resolvable");
        match s.query(spec, None, None) {
            QueryAnswer::Set { names, .. } => names,
            other => panic!("expected set answer, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_session_recovers_and_spares_other_sessions() {
        let wedged = Arc::new(Mutex::new(
            Session::open("p = &o\nq = p\n", false, None).expect("valid"),
        ));
        let healthy = Arc::new(Mutex::new(
            Session::open("r = &u\n", false, None).expect("valid"),
        ));

        // A request handler dies while holding the session lock.
        let grabbed = Arc::clone(&wedged);
        let died = catch_unwind(AssertUnwindSafe(move || {
            let _guard = grabbed.lock().expect("not yet poisoned");
            panic!("handler died mid-request");
        }));
        assert!(died.is_err());
        assert!(wedged.is_poisoned(), "the panic poisoned the mutex");

        // Later requests on the same session recover instead of dying on
        // an `expect`, and the engine still answers correctly.
        assert_eq!(pts_names(&wedged, "q"), vec!["o"]);
        // Unrelated sessions never notice.
        assert_eq!(pts_names(&healthy, "r"), vec!["u"]);
    }

    #[test]
    fn stats_never_stalls_other_sessions_behind_a_busy_one() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default(), Obs::new()).expect("bind");
        let state = Arc::clone(&server.state);
        for (name, text) in [("a", "p = &o\n"), ("b", "r = &u\n")] {
            let session = Session::open(text, false, None).expect("valid");
            lock_sessions(&state).insert(name.to_owned(), Arc::new(Mutex::new(session)));
        }
        // A long query holds session a's lock; `stats` blocks on it.
        let busy = get_session(&state, "a").expect("a is open");
        let held = lock_session(&busy);
        let stats = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || stats_response(&state))
        };
        // A head start so that `stats` is waiting on a's lock when the
        // query arrives; the query must answer whether or not it is.
        std::thread::sleep(Duration::from_millis(100));

        // A query on session b must still answer before the watchdog.
        let (tx, rx) = std::sync::mpsc::channel();
        let query = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let request = Request::Query {
                    session: "b".into(),
                    spec: QuerySpec::PointsTo { name: "r".into() },
                    budget: None,
                    timeout_ms: None,
                    trace: false,
                    parallel_query: None,
                };
                let answer = dispatch(&state, &request, "r1", &mut None);
                let _ = tx.send(answer);
            })
        };
        let answered = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        let stats = stats.join().expect("stats thread");
        query.join().expect("query thread");
        let line = answered
            .expect("session b answered while session a was busy")
            .expect("query ok");
        assert!(line.contains(r#""pts":["u"]"#), "{line}");
        assert!(
            stats.contains(r#""a":"#) && stats.contains(r#""b":"#),
            "{stats}"
        );
    }

    #[test]
    fn traced_requests_report_deltas_that_sum_to_session_totals() {
        use crate::client::Client;
        use crate::proto::build;

        let config = ServeConfig {
            // Zero threshold: every request counts as slow, so the ring
            // and the slow flag are exercised deterministically.
            slow_ms: 0,
            slow_keep: 4,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let mut program = String::new();
        for i in 0..8 {
            program.push_str(&format!("p{i} = &o{i}\nq{i} = p{i}\n"));
        }
        c.expect_ok(&build::open("s", &program, false, None))
            .expect("open");

        let get = |v: &JsonValue, key: &str| -> u64 {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("missing numeric {key:?} in {v}"))
        };

        // Traced single queries plus one traced parallel batch; sum the
        // per-request deltas the traces report.
        let (mut queries, mut fires, mut goals, mut work) = (0u64, 0u64, 0u64, 0u64);
        let (mut cache_hits, mut share_hits) = (0u64, 0u64);
        let mut seen_ids = std::collections::HashSet::new();
        let mut track = |trace: &JsonValue| {
            let id = trace
                .get("id")
                .and_then(JsonValue::as_str)
                .expect("trace id")
                .to_owned();
            assert!(seen_ids.insert(id), "trace IDs are unique per request");
            assert!(trace.get("wall_us").and_then(JsonValue::as_u64).is_some());
            queries += get(trace, "queries");
            fires += get(trace, "fires");
            goals += get(trace, "goals");
            work += get(trace, "work");
            cache_hits += get(trace, "cache_hits");
            share_hits += get(trace, "share_hits");
        };
        let specs: Vec<QuerySpec> = (0..8)
            .map(|i| QuerySpec::PointsTo {
                name: format!("q{i}"),
            })
            .collect();
        for spec in &specs[..4] {
            let v = c
                .expect_ok(&build::with_trace(build::query("s", spec, None, None)))
                .expect("traced query");
            track(v.get("trace").expect("response carries trace"));
        }
        let v = c
            .expect_ok(&build::with_trace(build::batch(
                "s", &specs, true, None, None,
            )))
            .expect("traced batch");
        track(v.get("trace").expect("batch carries trace"));
        // An untraced request must not carry the field but still counts
        // toward the session totals.
        let v = c
            .expect_ok(&build::query("s", &specs[0], None, None))
            .expect("untraced query");
        assert!(v.get("trace").is_none(), "trace is opt-in");
        queries += 1;
        cache_hits += 1; // repeat of a memoized query

        // The traced deltas must sum to the session's registry totals.
        let stats = c.expect_ok(&build::stats()).expect("stats");
        let sess = stats
            .get("sessions")
            .and_then(|s| s.get("s"))
            .expect("session stats");
        assert_eq!(get(sess, "queries"), queries, "queries sum");
        assert_eq!(get(sess, "fires"), fires, "fires sum");
        assert_eq!(get(sess, "goals"), goals, "goals sum");
        assert_eq!(get(sess, "work"), work, "work (budget spent) sum");
        assert_eq!(get(sess, "cache_hits"), cache_hits, "cache hits sum");
        assert_eq!(get(sess, "share_hits"), share_hits, "share hits sum");
        assert!(fires > 0 && work > 0, "the traced queries did real work");

        // Latency histograms surfaced in stats: 5 query + 1 batch + the
        // untraced query land in query_us/batch_us.
        let q = metric(&stats, "server.latency.query_us");
        assert_eq!(get(q, "count"), 5);
        assert!(get(q, "p50") <= get(q, "p99"));
        assert!(get(q, "p99") <= get(q, "max"));
        assert_eq!(get(metric(&stats, "server.latency.batch_us"), "count"), 1);

        // The slow ring keeps the slowest traced requests, bounded.
        let kept = stats.get("slow").map(|s| get(s, "kept"));
        assert_eq!(kept, Some(4), "ring bounded by slow_keep");
        let inspect = c
            .expect_ok(&build::inspect("s", None, None, None))
            .expect("inspect");
        let entries = inspect
            .get("slow")
            .and_then(JsonValue::as_array)
            .expect("slow array");
        assert_eq!(entries.len(), 4, "every kept request is on session s");
        let slowest = get(&entries[0], "latency_us");
        let last = get(&entries[entries.len() - 1], "latency_us");
        assert!(slowest >= last, "entries are slowest-first");
        assert!(
            entries[0]
                .get("trace")
                .and_then(|t| t.get("id"))
                .and_then(JsonValue::as_str)
                .is_some(),
            "ring entries carry full traces"
        );

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn introspection_ops_end_to_end() {
        use crate::client::Client;
        use crate::proto::build;

        // One server state read through the two views. Every field the
        // `slow`, `scrape`, `flight` and `graph` ops once returned is
        // found below in `stats` or `inspect`.
        let config = ServeConfig {
            slow_ms: 7,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let program = "p = &a\np = &b\nq = p\nr = *q\n*q = p\n";
        for session in ["s", "t"] {
            c.expect_ok(&build::open(session, program, false, None))
                .expect("open");
            let spec = QuerySpec::PointsTo { name: "r".into() };
            c.expect_ok(&build::query(session, &spec, None, None))
                .expect("query");
        }
        let u64_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("missing numeric {key:?} in {v}"))
        };

        // inspect: hottest goals attributed, critical path carries W/S,
        // and nothing heavy unless asked.
        let v = c
            .expect_ok(&build::inspect("s", Some(3), None, None))
            .expect("inspect");
        let hottest = v
            .get("hottest")
            .and_then(JsonValue::as_array)
            .expect("hottest array");
        assert!(!hottest.is_empty() && hottest.len() <= 3);
        assert!(hottest[0]
            .get("goal")
            .and_then(JsonValue::as_str)
            .is_some_and(|g| g.starts_with("pts(") || g.starts_with("ptb(")));
        let cp = v.get("critical_path").expect("critical path");
        let work = u64_of(cp, "work");
        let span = u64_of(cp, "span");
        assert!(work >= span && span > 0, "W={work} >= S={span} > 0");
        assert!(cp.get("headroom").is_some());
        assert!(u64_of(&v, "tabled_goals") > 0);
        for heavy in ["events", "recorded", "dropped", "graph", "dot"] {
            assert!(v.get(heavy).is_none(), "{heavy} unasked: {v}");
        }

        // slow's `entries`: the session's own slow-ring entries.
        let entries = v.get("slow").and_then(JsonValue::as_array).expect("slow");
        assert_eq!(entries.len(), 1, "{v}");
        let entry = &entries[0];
        assert_eq!(entry.get("op").and_then(JsonValue::as_str), Some("query"));
        assert_eq!(entry.get("session").and_then(JsonValue::as_str), Some("s"));
        u64_of(entry, "latency_us");
        u64_of(entry, "unix_ms");
        assert!(entry.get("trace").and_then(|t| t.get("id")).is_some());

        // flight's `events`, `recorded`, `dropped`, `session` and
        // `generation`: structured events with resolved goal names.
        let v = c
            .expect_ok(&build::inspect("s", None, Some(50), None))
            .expect("inspect with events");
        let events = v
            .get("events")
            .and_then(JsonValue::as_array)
            .expect("events array");
        assert!(!events.is_empty() && events.len() <= 50);
        for e in events {
            assert_eq!(e.get("kind").and_then(JsonValue::as_str), Some("flight"));
            assert!(e.get("seq").and_then(JsonValue::as_u64).is_some());
            ddpa_obs::validate_metrics_line(&e.to_string()).expect("flight line validates");
        }
        assert!(u64_of(&v, "recorded") > 0);
        u64_of(&v, "dropped");
        assert_eq!(v.get("session").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(u64_of(&v, "generation"), 0);

        // graph's `graph` (JSON nodes/edges) and `text` (now `dot`).
        let v = c
            .expect_ok(&build::inspect("s", None, None, Some(GraphFormat::Json)))
            .expect("inspect with graph");
        let graph = v.get("graph").expect("graph object");
        assert!(graph
            .get("nodes")
            .and_then(JsonValue::as_array)
            .is_some_and(|n| !n.is_empty()));
        assert!(graph.get("edges").and_then(JsonValue::as_array).is_some());
        let v = c
            .expect_ok(&build::inspect("s", None, None, Some(GraphFormat::Dot)))
            .expect("inspect with dot");
        let text = v.get("dot").and_then(JsonValue::as_str).expect("dot text");
        assert!(text.starts_with("digraph goals {"), "{text}");
        assert!(text.contains("->"), "dot has edges: {text}");

        // stats: scrape's `text` and `lines` are the `metrics` records,
        // its per-session counters and gauge are in `sessions`, and
        // slow's `kept` and `threshold_ms` are in `slow`.
        let v = c.expect_ok(&build::stats()).expect("stats");
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_array)
            .expect("metrics array");
        for record in metrics {
            let line = record.to_string();
            ddpa_obs::validate_metrics_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // 2 opens, 2 queries, 4 inspects and this stats request.
        assert_eq!(u64_of(metric(&v, "server.requests"), "value"), 9);
        assert_eq!(u64_of(metric(&v, "server.latency.query_us"), "count"), 2);
        let sessions = v.get("sessions").expect("sessions");
        for session in ["s", "t"] {
            let stats = sessions.get(session).expect("session stats");
            for key in ["queries", "work", "fires", "tabled_goals"] {
                assert!(u64_of(stats, key) > 0, "{key}: {stats}");
            }
            assert!(u64_of(stats, "flight_events") > 0, "{stats}");
        }
        let slow = v.get("slow").expect("slow summary");
        assert_eq!(u64_of(slow, "kept"), 2);
        assert_eq!(u64_of(slow, "threshold_ms"), 7);

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    /// The ring as it was kept before entries were built lazily: push,
    /// stable sort by descending latency, truncate.
    fn slow_ring_model(ring: &mut Vec<(u64, usize)>, keep: usize, latency_us: u64, id: usize) {
        ring.push((latency_us, id));
        ring.sort_by_key(|e| std::cmp::Reverse(e.0));
        ring.truncate(keep);
    }

    #[test]
    fn slow_ring_keeps_what_push_sort_truncate_kept() {
        let mut rng = ddpa_support::Rng::seed_from_u64(0x510e);
        for keep in [0, 1, 2, 5, 32] {
            let (mut ring, mut model) = (Vec::new(), Vec::new());
            for id in 0..2000 {
                // Few distinct latencies, so ties are common.
                let latency_us = rng.gen_range(0..40u64);
                slow_ring_model(&mut model, keep, latency_us, id);
                let mut built = false;
                offer_slow(&mut ring, keep, latency_us, || {
                    built = true;
                    JsonValue::U64(id as u64)
                });
                let got: Vec<(u64, usize)> = ring
                    .iter()
                    .map(|e| (e.latency_us, e.entry.as_u64().expect("id") as usize))
                    .collect();
                assert_eq!(got, model, "keep {keep}, after request {id}");
                // The entry is built exactly when the ring keeps it.
                let kept = model.iter().any(|&(_, i)| i == id);
                assert_eq!(built, kept, "keep {keep}, request {id}");
            }
        }
    }

    #[test]
    fn parallel_query_requests_run_on_the_scheduler() {
        use crate::client::Client;
        use crate::proto::build;

        let config = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let mut program = String::from("v0 = &obj\n");
        for i in 1..150 {
            program.push_str(&format!("v{} = v{}\n", i, i - 1));
        }
        c.expect_ok(&build::open("s", &program, false, None))
            .expect("open");
        // Per-request opt-in on a session whose default is sequential.
        let spec = QuerySpec::PointsTo {
            name: "v149".into(),
        };
        let v = c
            .expect_ok(&build::with_parallel_query(build::query(
                "s", &spec, None, None,
            )))
            .expect("parallel query");
        let result = v.get("result").expect("result");
        assert_eq!(
            result
                .get("pts")
                .and_then(JsonValue::as_array)
                .map(|a| a.iter().filter_map(JsonValue::as_str).collect::<Vec<_>>()),
            Some(vec!["obj"]),
        );
        assert_eq!(
            result.get("complete").and_then(JsonValue::as_bool),
            Some(true)
        );
        // A session opened with parallel_query applies it by default.
        c.expect_ok(&build::with_parallel_query(build::open(
            "par", &program, false, None,
        )))
        .expect("open parallel-default session");
        let v = c
            .expect_ok(&build::query("par", &spec, None, None))
            .expect("default-parallel query");
        assert_eq!(
            v.get("result")
                .and_then(|r| r.get("complete"))
                .and_then(JsonValue::as_bool),
            Some(true)
        );
        // Stats surface the scheduler knobs.
        let stats = c.expect_ok(&build::stats()).expect("stats");
        assert_eq!(stats.get("workers").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(
            stats.get("sched_policy").and_then(JsonValue::as_str),
            Some("dfs")
        );

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn access_log_lines_are_schema_valid() {
        use crate::client::Client;
        use crate::proto::build;

        let path = std::env::temp_dir().join(format!(
            "ddpa-access-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            access_log: Some(path.clone()),
            slow_ms: 0, // everything is "slow": the slow lines get exercised
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        c.expect_ok(&build::open("s", "p = &o\nq = p\n", false, None))
            .expect("open");
        let spec = QuerySpec::PointsTo { name: "q".into() };
        c.expect_ok(&build::query("s", &spec, None, None))
            .expect("query");
        c.expect_ok(&build::ping()).expect("ping");
        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");

        let text = std::fs::read_to_string(&path).expect("access log written");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(lines.len() >= 4, "open + query + slow + ping, got:\n{text}");
        for line in &lines {
            ddpa_obs::validate_metrics_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let parsed: Vec<JsonValue> = lines
            .iter()
            .map(|l| ddpa_obs::parse_json(l).expect("valid"))
            .collect();
        let kind = |v: &JsonValue| v.get("kind").and_then(JsonValue::as_str).map(str::to_owned);
        let query_line = parsed
            .iter()
            .find(|v| {
                kind(v).as_deref() == Some("access")
                    && v.get("op").and_then(JsonValue::as_str) == Some("query")
            })
            .expect("query access line");
        assert_eq!(
            query_line.get("session").and_then(JsonValue::as_str),
            Some("s")
        );
        assert_eq!(
            query_line.get("ok").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert!(query_line
            .get("trace")
            .and_then(JsonValue::as_str)
            .is_some());
        assert!(
            query_line
                .get("fires")
                .and_then(JsonValue::as_u64)
                .is_some(),
            "query lines carry work deltas"
        );
        assert!(
            parsed
                .iter()
                .any(|v| kind(v).as_deref() == Some("slow") && v.get("trace_report").is_some()),
            "slow lines carry the full trace report"
        );
        assert!(
            parsed.iter().any(|v| kind(v).as_deref() == Some("access")
                && v.get("op").and_then(JsonValue::as_str) == Some("ping")),
            "non-engine ops are access-logged too"
        );
    }

    #[test]
    fn racing_edit_discards_stale_snapshot_commit() {
        // Satellite regression: the background snapshotter exports under
        // the session lock but writes the file outside it. An edit landing
        // in that window must discard the stale write instead of
        // clobbering disk with pre-edit memo state.
        let server = Server::bind("127.0.0.1:0", ServeConfig::default(), Obs::new()).expect("bind");
        let handle = Arc::new(Mutex::new(
            Session::open("p = &o\nq = p\n", false, None).expect("valid"),
        ));
        pts_names(&handle, "q"); // warm the table so the export is non-empty
        let path = std::env::temp_dir().join(format!(
            "ddpa-stale-snap-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        // Export, then let an edit land before the commit.
        let s = lock_session(&handle);
        let snapshot = s.export_snapshot();
        let generation = s.generation();
        drop(s);
        lock_session(&handle)
            .add_constraints("r = &u\n")
            .expect("edit");

        let committed =
            commit_session_snapshot(&server.state, &handle, &snapshot, generation, &path)
                .expect("no io error");
        assert_eq!(committed, None, "stale export is discarded");
        assert!(!path.exists(), "no file written for a discarded commit");
        assert_eq!(server.state.counters.snap_stale_discards.get(), 1);

        // A fresh export (post-edit generation) commits normally.
        let s = lock_session(&handle);
        let snapshot = s.export_snapshot();
        let generation = s.generation();
        drop(s);
        let committed =
            commit_session_snapshot(&server.state, &handle, &snapshot, generation, &path)
                .expect("no io error")
                .expect("fresh export commits");
        assert!(committed.0 > 0 && path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_connection_gauge_returns_to_zero_after_hammering() {
        use crate::client::Client;
        use crate::proto::build;
        use std::io::Write as _;

        let config = ServeConfig {
            max_connections: 4, // low cap: some of the hammer gets shed
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let state = Arc::clone(&server.state);
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        // Hammer: concurrent connections that ping, send garbage, or slam
        // the socket shut mid-line — every exit path must release its
        // connection slot.
        let workers: Vec<_> = (0..24)
            .map(|i| {
                std::thread::spawn(move || match i % 3 {
                    0 => {
                        // Normal request; busy-shed connections error
                        // here, which is fine — the slot still frees.
                        if let Ok(mut c) = Client::connect(addr) {
                            let _ = c.request(&build::ping());
                        }
                    }
                    1 => {
                        if let Ok(mut c) = Client::connect(addr) {
                            let _ = c.roundtrip_line("this is not json");
                        }
                    }
                    _ => {
                        // Half a request, then slam the socket shut.
                        if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                            let _ = s.write_all(b"{\"op\":");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("hammer thread");
        }

        // Connection threads unwind shortly after their peers hang up.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let open = state.open_connections.load(Ordering::SeqCst);
            if open == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "open_connections stuck at {open}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // The gauge is exported through stats; our own live connection is
        // the only one open.
        let mut c = Client::connect(addr).expect("connect");
        let stats = c.expect_ok(&build::stats()).expect("stats");
        assert_eq!(
            stats.get("open_connections").and_then(JsonValue::as_u64),
            Some(1)
        );

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn session_churn_leaves_the_metrics_the_same_size() {
        use crate::client::Client;
        use crate::proto::build;

        let server = Server::bind("127.0.0.1:0", ServeConfig::default(), Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let spec = QuerySpec::PointsTo { name: "q".into() };
        // Opens, queries twice (the repeat is a memo hit) and closes
        // `name`, checking the hit is reported on the session itself.
        let churn = |c: &mut Client, name: &str| {
            c.expect_ok(&build::open(name, "p = &o\nq = p\n", false, None))
                .expect("open");
            for _ in 0..2 {
                c.expect_ok(&build::query(name, &spec, None, None))
                    .expect("query");
            }
            let stats = c.expect_ok(&build::stats()).expect("stats");
            let hits = stats
                .get("sessions")
                .and_then(|s| s.get(name))
                .and_then(|s| s.get("cache_hits"))
                .and_then(JsonValue::as_u64);
            assert_eq!(hits, Some(1), "{stats}");
            c.expect_ok(&build::close(name)).expect("close");
        };
        let metrics_len = |c: &mut Client| {
            let stats = c.expect_ok(&build::stats()).expect("stats");
            stats
                .get("metrics")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len)
                .expect("metrics array")
        };
        // One round registers every metric a session's life touches.
        churn(&mut c, "s0");
        let before = metrics_len(&mut c);
        for i in 1..=5 {
            churn(&mut c, &format!("s{i}"));
        }
        assert_eq!(
            metrics_len(&mut c),
            before,
            "closed sessions leave no metrics"
        );

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn edits_invalidate_selectively_over_the_wire() {
        use crate::client::Client;
        use crate::proto::build;

        let server = Server::bind("127.0.0.1:0", ServeConfig::default(), Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let path = std::env::temp_dir().join(format!(
            "ddpa-rebind-snap-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut c = Client::connect(addr).expect("connect");
        c.expect_ok(&build::open("s", "p = &o\nq = p\nr = &u\n", false, None))
            .expect("open");
        let q = QuerySpec::PointsTo { name: "q".into() };
        let r = QuerySpec::PointsTo { name: "r".into() };
        c.expect_ok(&build::query("s", &q, None, None)).expect("q");
        c.expect_ok(&build::query("s", &r, None, None)).expect("r");
        let v = c
            .expect_ok(&build::snapshot("s", path.to_str()))
            .expect("snapshot");
        assert!(
            v.get("entries").and_then(JsonValue::as_u64).unwrap_or(0) > 0,
            "warm session exports entries: {v}"
        );

        // The edit response reports the split: the r-chain is dirtied,
        // the p/q chain survives.
        let v = c
            .expect_ok(&build::add_constraints("s", "r = &u2\n"))
            .expect("edit");
        let get = |v: &JsonValue, key: &str| -> u64 {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("missing numeric {key:?} in {v}"))
        };
        assert!(get(&v, "invalidated") > 0);
        assert!(get(&v, "retained") > 0);
        assert_eq!(
            v.get("full_invalidation").and_then(JsonValue::as_bool),
            Some(false)
        );

        // Satellite: a pre-edit snapshot restores by rebinding survivors
        // instead of being refused on the hash mismatch. Restoring into
        // the edited session itself installs nothing new — the tentpole
        // already kept exactly those survivors warm.
        let v = c
            .expect_ok(&build::restore("s", path.to_str().expect("utf8 path")))
            .expect("restore after edit");
        assert_eq!(v.get("rebound").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(get(&v, "installed"), 0, "survivors were already warm");
        assert!(get(&v, "dropped") > 0, "edited r-chain dropped");

        // A cold session over the same edited program rebinds them for
        // real: survivors install, the dirtied chain is dropped.
        c.expect_ok(&build::open("s2", "p = &o\nq = p\nr = &u\n", false, None))
            .expect("open s2");
        c.expect_ok(&build::add_constraints("s2", "r = &u2\n"))
            .expect("edit s2");
        let v = c
            .expect_ok(&build::restore("s2", path.to_str().expect("utf8 path")))
            .expect("restore into cold session");
        assert_eq!(v.get("rebound").and_then(JsonValue::as_bool), Some(true));
        assert!(get(&v, "installed") > 0, "p/q survivors rebound");
        assert!(get(&v, "dropped") > 0, "edited r-chain dropped");
        // The rebound entries answer correctly post-edit.
        let v = c.expect_ok(&build::query("s2", &r, None, None)).expect("r");
        assert_eq!(
            v.get("result")
                .and_then(|res| res.get("pts"))
                .and_then(JsonValue::as_array)
                .map(|a| a.iter().filter_map(JsonValue::as_str).collect::<Vec<_>>()),
            Some(vec!["u", "u2"])
        );

        // A session over an unrelated program still refuses the snapshot.
        c.expect_ok(&build::open("other", "z = &w\n", false, None))
            .expect("open other");
        let v = c
            .request(&build::restore("other", path.to_str().expect("utf8 path")))
            .expect("roundtrip");
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str),
            Some("snapshot-error")
        );

        // The dirty-split counters surface in the metrics export.
        let stats = c.expect_ok(&build::stats()).expect("stats");
        metric(&stats, "demand.dirty.retained");
        metric(&stats, "demand.dirty.goals");

        let _ = std::fs::remove_file(&path);
        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }

    #[test]
    fn duplicate_opens_do_no_work_and_count_no_load() {
        use crate::client::Client;
        use crate::proto::build;

        let dir = std::env::temp_dir().join(format!(
            "ddpa-dup-open-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("snapshot dir");
        let config = ServeConfig {
            snapshot_dir: Some(dir.clone()),
            restore_on_open: true,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let program = "p = &o\nq = p\n";
        c.expect_ok(&build::open("s", program, false, None))
            .expect("open");
        let spec = QuerySpec::PointsTo { name: "q".into() };
        c.expect_ok(&build::query("s", &spec, None, None))
            .expect("query");
        c.expect_ok(&build::snapshot("s", None)).expect("snapshot");
        let loads = |c: &mut Client| {
            let stats = c.expect_ok(&build::stats()).expect("stats");
            metric(&stats, "snap.load")
                .get("value")
                .and_then(JsonValue::as_u64)
        };

        // The name is taken: neither open stages the snapshot on disk,
        // and one whose program does not even parse fails on the name.
        for text in [program, program, "not a program"] {
            let v = c
                .request(&build::open("s", text, false, None))
                .expect("roundtrip");
            let code = v.get("error").and_then(|e| e.get("code"));
            assert_eq!(code.and_then(JsonValue::as_str), Some("session-exists"));
        }
        assert_eq!(loads(&mut c), Some(0));

        // An open that inserts its session is the one that counts.
        c.expect_ok(&build::close("s")).expect("close");
        let v = c
            .expect_ok(&build::open("s", program, false, None))
            .expect("re-open");
        let restored = v.get("restored").and_then(JsonValue::as_u64);
        assert!(restored.is_some_and(|n| n > 0), "{v}");
        assert_eq!(loads(&mut c), Some(1));

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budgeted_parallel_queries_report_their_fallback() {
        use crate::client::Client;
        use crate::proto::build;

        let config = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config, Obs::new()).expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut c = Client::connect(addr).expect("connect");
        let mut program = String::from("v0 = &obj\n");
        for i in 1..60 {
            program.push_str(&format!("v{} = v{}\n", i, i - 1));
        }
        c.expect_ok(&build::open("s", &program, false, None))
            .expect("open");
        let spec = QuerySpec::PointsTo { name: "v59".into() };

        // parallel + budget: the engine pins the query to the sequential
        // path, and the response says so instead of silently degrading.
        let v = c
            .expect_ok(&build::with_parallel_query(build::query(
                "s",
                &spec,
                Some(1_000_000),
                None,
            )))
            .expect("budgeted parallel query");
        assert_eq!(
            v.get("sched").and_then(JsonValue::as_str),
            Some("sequential-fallback")
        );

        // An unbudgeted cold parallel query really runs on the scheduler.
        c.expect_ok(&build::open("cold", &program, false, None))
            .expect("open cold");
        let v = c
            .expect_ok(&build::with_parallel_query(build::query(
                "cold", &spec, None, None,
            )))
            .expect("parallel query");
        assert_eq!(v.get("sched").and_then(JsonValue::as_str), Some("parallel"));

        // A traced request runs on the scheduler too: its trace report
        // only reads the session's counters.
        c.expect_ok(&build::open("traced", &program, false, None))
            .expect("open traced");
        let v = c
            .expect_ok(&build::with_trace(build::with_parallel_query(
                build::query("traced", &spec, None, None),
            )))
            .expect("traced parallel query");
        assert_eq!(v.get("sched").and_then(JsonValue::as_str), Some("parallel"));
        let trace = v.get("trace").expect("trace report");
        assert!(trace.get("fires").and_then(JsonValue::as_u64).unwrap_or(0) > 0);

        // A plain sequential query carries no marker at all.
        let v = c
            .expect_ok(&build::query("s", &spec, None, None))
            .expect("sequential query");
        assert!(v.get("sched").is_none());

        // Fallbacks are counted and exported.
        let stats = c.expect_ok(&build::stats()).expect("stats");
        assert_eq!(
            metric(&stats, "server.sched.fallbacks")
                .get("value")
                .and_then(JsonValue::as_u64),
            Some(1)
        );

        handle.shutdown();
        runner.join().expect("server thread").expect("clean run");
    }
}
