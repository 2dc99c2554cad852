//! `ddpa-servebench` — the repository's benchmark: `ddpa-serve` measured
//! end to end over loopback TCP, and layer by layer in a traced replay.
//!
//! One *rep* ([`run_rep`]) generates a workload's inputs from its seed,
//! starts a server in this process on `127.0.0.1:0`, sends the set-up
//! requests, then times the workload's closed-loop streams (one client
//! thread and connection per stream), and finally checks every answer
//! against the exhaustive solution of the program the session held. A
//! traced rep then replays the same requests in-process three times —
//! spans off, on, off — to give the per-layer metrics, the ledger and the
//! tracing overhead. [`aggregate`] folds reps into medians with min and
//! max.
//!
//! The metrics the result line carries are the ones `BENCHMARK.json` lists
//! ([`Spec`]); every run also prints the workload-specific metrics, the
//! deterministic counter block and, when traced, the ledger.

mod alloc;
mod check;
pub mod compare;
mod cpu;
mod replay;
mod socket;
mod speed;
mod traffic;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ddpa_obs::JsonValue;

pub use check::Counters;
use replay::{ReplayPass, Span};
use socket::SocketPass;
use traffic::Traffic;

/// `BENCHMARK.json`, compiled in: the metrics a run must emit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Constraints in each generated program.
pub const PROGRAM_SIZE: usize = 4000;

/// A traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Edit,
    Restart,
    Wide,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Cold,
        Workload::Warm,
        Workload::Edit,
        Workload::Restart,
        Workload::Wide,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Edit => "edit",
            Workload::Restart => "restart",
            Workload::Wide => "wide",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a rep's passes run on one CPU (see `cpu.rs`): every workload
    /// but `warm`, whose two connections contend for the session on both.
    /// `wide`'s two scheduler workers share the one CPU: on the reference
    /// host its runs spread 4x less that way, and its gain over the
    /// sequential engine is in the algorithm, not the second core.
    pub fn one_cpu(self) -> bool {
        self != Workload::Warm
    }

    /// Traffic units per measured second, calibrated once on the
    /// reference host (2 cores) to about 0.9 s of reference-host time per
    /// second asked for, and frozen, so the same arguments always send the
    /// same traffic. A unit is a session round (`cold`, `restart`,
    /// `wide`), ten requests per connection (`warm`), or one edit and its
    /// re-answers (`edit`).
    fn units_per_second(self) -> f64 {
        match self {
            Workload::Cold => 11.0,
            Workload::Warm => 1600.0,
            Workload::Edit => 62.0,
            Workload::Restart => 60.0,
            Workload::Wide => 65.0,
        }
    }
}

/// What one rep sends.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Which rep of the run this is. Each rep draws its own programs from
    /// the run's seed, so a run's medians span several programs: what a
    /// program costs varies more from seed to seed than between
    /// measurements of one program.
    pub rep: u64,
    /// Constraints per generated program.
    pub size: usize,
    /// Traffic units: session rounds, groups of ten requests per
    /// connection, or edit cycles, by workload.
    pub units: usize,
    /// A stream stops early once the measured phase has lasted this long.
    pub cap: Duration,
}

impl Plan {
    /// The full-size plan whose measured phase lasts about `seconds` on
    /// the reference host.
    pub fn for_seconds(workload: Workload, seed: u64, rep: u64, seconds: f64) -> Plan {
        Plan {
            workload,
            seed,
            rep,
            size: PROGRAM_SIZE,
            units: (workload.units_per_second() * seconds).ceil().max(1.0) as usize,
            cap: Duration::from_secs_f64(4.0 * seconds),
        }
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Samples behind the value (requests, calls, or 1).
    pub samples: u64,
}

impl Metric {
    fn new(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples,
        }
    }

    fn json(&self) -> JsonValue {
        obj(vec![
            ("name", JsonValue::str(self.name.as_str())),
            ("unit", JsonValue::str(self.unit.as_str())),
            ("value", JsonValue::F64(self.value)),
            ("samples", JsonValue::U64(self.samples)),
        ])
    }

    fn from_json(v: &JsonValue) -> Option<Metric> {
        Some(Metric {
            name: v.get("name")?.as_str()?.to_owned(),
            unit: v.get("unit")?.as_str()?.to_owned(),
            value: number(v.get("value")?)?,
            samples: v.get("samples")?.as_u64()?,
        })
    }
}

/// One ledger line: a layer's self time per measured request.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerRow {
    pub layer: String,
    pub ns_per_request: f64,
    pub calls: u64,
}

/// The unattributed remainder's ledger name.
const UNATTRIBUTED: &str = "unattributed";

/// What one rep measured.
#[derive(Clone, Debug)]
pub struct RepReport {
    pub workload: Workload,
    pub seed: u64,
    /// End-to-end metrics (tracing off).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced reps only).
    pub layers: Vec<Metric>,
    /// Self time per measured request by layer; rows sum to
    /// `request_ns` (traced reps only).
    pub ledger: Vec<LedgerRow>,
    pub request_ns: f64,
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    /// Every answer matched and no set-up request failed.
    pub correct: bool,
    pub truncated: bool,
    pub first_failure: Option<String>,
}

/// Runs one rep of `plan`; with `trace`, also the replays, writing their
/// spans as JSONL to `spans` when given.
pub fn run_rep(plan: &Plan, trace: bool, spans: Option<&Path>) -> io::Result<RepReport> {
    let snapshot = scratch_file(plan)?;
    let traffic = Traffic::build(plan, &snapshot);
    let w = plan.workload;
    let socket = pass(w, || socket::run(&traffic, plan.cap))?;
    let mut outcome = check::check(&traffic, &socket.responses.answered);
    (outcome.counters.allocs, outcome.counters.alloc_bytes) = socket.allocs;
    let metrics = end_to_end(&socket, &outcome);
    let (mut layers, mut ledger, mut request_ns) = (Vec::new(), Vec::new(), 0.0);
    if trace {
        // Untraced, traced, untraced: the overhead compares against both
        // untraced passes, so drift between passes cancels to first order.
        let before = pass(w, || replay::run(&traffic, false));
        let traced = pass(w, || replay::run(&traffic, true));
        let after = pass(w, || replay::run(&traffic, false));
        let plain_ns = (before.request_ns + after.request_ns) as f64 / 2.0;
        (layers, ledger, request_ns) = per_layer(&socket, &outcome.counters, plain_ns, &traced);
        if let Some(path) = spans {
            write_spans(path, plan, &traced.spans)?;
        }
        // The replay's answers are checked too, and must have the served
        // answers' shape; its counters are the socket pass's over again.
        let replayed = check::check(&traffic, &traced.responses.answered);
        outcome.merge(check::Outcome {
            counters: Counters::default(),
            ..replayed
        });
        outcome.merge(check::same_shape(
            &traffic,
            &socket.responses.answered,
            &traced.responses.answered,
        ));
    }
    let _ = std::fs::remove_file(&snapshot);
    Ok(RepReport {
        workload: plan.workload,
        seed: plan.seed,
        metrics,
        layers,
        ledger,
        request_ns,
        counters: outcome.counters,
        attempted: outcome.attempted,
        failed: outcome.failed,
        correct: outcome.failed == 0 && outcome.failed_unmeasured == 0,
        truncated: socket.truncated,
        first_failure: outcome.first_failure,
    })
}

/// Runs a measured pass, on one CPU where the workload asks for it.
fn pass<R>(workload: Workload, f: impl FnOnce() -> R) -> R {
    if workload.one_cpu() {
        cpu::on_one_cpu(f)
    } else {
        f()
    }
}

/// A snapshot file name beside the running executable, which lives in the
/// build directory.
fn scratch_file(plan: &Plan) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("servebench-scratch");
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(format!(
        "{}-{}-{}.snap",
        plan.workload.name(),
        plan.seed,
        std::process::id()
    )))
}

fn end_to_end(socket: &SocketPass, outcome: &check::Outcome) -> Vec<Metric> {
    let s = &socket.samples;
    let answered = outcome.counters.queries;
    let mut m = vec![
        Metric::new(
            "qps",
            "1/s",
            answered as f64 / socket.wall.as_secs_f64(),
            answered,
        ),
        percentile("query_p50_us", "us", &s.query, 0.50, 1e3),
        percentile("query_p99_us", "us", &s.query, 0.99, 1e3),
    ];
    if !s.batch.is_empty() {
        m.push(percentile("batch_p50_us", "us", &s.batch, 0.50, 1e3));
    }
    if !s.open.is_empty() {
        m.push(percentile("open_ms", "ms", &s.open, 0.50, 1e6));
        m.push(percentile(
            "first_answer_ms",
            "ms",
            &s.first_answer,
            0.50,
            1e6,
        ));
    }
    if !s.edit.is_empty() {
        m.push(percentile("edit_p50_ms", "ms", &s.edit, 0.50, 1e6));
        m.push(percentile("edit_p95_ms", "ms", &s.edit, 0.95, 1e6));
    }
    if outcome.counters.snapshot_bytes > 0 {
        let kb = outcome.counters.snapshot_bytes as f64 / 1e3;
        m.push(Metric::new("snapshot_kb", "kB", kb, 1));
    }
    let rss = socket.peak_rss_kib as f64 / 1024.0;
    m.push(Metric::new("peak_rss_mb", "MiB", rss, 1));
    let slowdown =
        median(&s.probes.iter().map(|&ns| ns as f64).collect::<Vec<_>>()) / speed::NOMINAL_NS;
    m.push(Metric::new("setup_s", "s", socket.setup.as_secs_f64(), 1));
    m.push(Metric::new(
        "host_slowdown",
        "x",
        slowdown,
        s.probes.len() as u64,
    ));
    let failed = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    m.push(Metric::new(
        "failed_frac",
        "frac",
        failed,
        outcome.attempted,
    ));
    m
}

/// The `q`-quantile (nearest rank) of nanosecond samples, divided by
/// `scale`.
fn percentile(name: &str, unit: &str, ns: &[u64], q: f64, scale: f64) -> Metric {
    let mut sorted = ns.to_vec();
    sorted.sort_unstable();
    let value = match sorted.len() {
        0 => 0.0,
        n => sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1] as f64 / scale,
    };
    Metric::new(name, unit, value, ns.len() as u64)
}

/// Per-layer metrics and the ledger of a traced rep; `plain_ns` is the
/// measured request time of an untraced replay. `serve.dispatch_us` comes
/// from the server's whole-microsecond histogram, so it reads about half
/// a microsecond low.
fn per_layer(
    socket: &SocketPass,
    counters: &Counters,
    plain_ns: f64,
    traced: &ReplayPass,
) -> (Vec<Metric>, Vec<LedgerRow>, f64) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = Vec::new();
    let (calls, sum_us) = socket.dispatch;
    let dispatch_us = ratio(sum_us, calls);
    let roundtrip_us = socket.samples.raw_ns as f64 / socket.samples.requests.max(1) as f64 / 1e3;
    m.push(Metric::new("serve.dispatch_us", "us", dispatch_us, calls));
    m.push(Metric::new(
        "serve.wire_us",
        "us",
        roundtrip_us - dispatch_us,
        socket.samples.requests,
    ));

    // Mean duration per call of each span name, over the measured phase;
    // layers the measured phase never calls (a set-up `open`, a
    // snapshot) over the whole replay.
    let mut by_name: BTreeMap<&str, [(u64, u64); 2]> = BTreeMap::new();
    for span in traced.spans.iter().filter(|s| s.name != Span::REQUEST) {
        let slot = &mut by_name.entry(span.name).or_default()[span.measured as usize];
        slot.0 += 1;
        slot.1 += span.nanos();
    }
    for (name, [other, measured]) in &by_name {
        let (calls, ns) = if measured.0 > 0 { *measured } else { *other };
        let mean_us = ns as f64 / calls as f64 / 1e3;
        m.push(Metric::new(&format!("{name}_us"), "us", mean_us, calls));
    }

    let d = &traced.demand;
    m.extend([
        Metric::new(
            "demand.work_per_query",
            "count",
            ratio(d.work, d.queries),
            d.queries,
        ),
        Metric::new(
            "demand.fires_per_query",
            "count",
            ratio(d.fires, d.queries),
            d.queries,
        ),
        Metric::new(
            "demand.goals_per_query",
            "count",
            ratio(d.goals_activated, d.queries),
            d.queries,
        ),
        Metric::new(
            "demand.cycles.collapsed",
            "count",
            d.cycles_collapsed as f64,
            1,
        ),
        Metric::new(
            "demand.cache_hit_frac",
            "frac",
            ratio(d.cache_hits, d.queries),
            d.queries,
        ),
        Metric::new(
            "demand.share_hit_frac",
            "frac",
            ratio(d.share_hits, d.share_hits + d.share_misses),
            d.share_hits + d.share_misses,
        ),
        Metric::new("demand.sched.steals", "count", socket.sched.0 as f64, 1),
        Metric::new("demand.sched.parked", "count", socket.sched.1 as f64, 1),
        Metric::new(
            "alloc.per_query",
            "count",
            ratio(socket.allocs.0, counters.queries),
            counters.queries,
        ),
        Metric::new(
            "alloc.bytes_per_query",
            "B",
            ratio(socket.allocs.1, counters.queries),
            counters.queries,
        ),
        Metric::new(
            "snap.bytes_per_entry",
            "B",
            ratio(counters.snapshot_bytes, counters.snapshot_entries),
            counters.snapshot_entries,
        ),
        Metric::new(
            "edit.retained_frac",
            "frac",
            ratio(
                counters.edit_retained,
                counters.edit_retained + counters.edit_invalidated,
            ),
            counters.edits,
        ),
        Metric::new(
            "edit.invalidated_per_edit",
            "count",
            ratio(counters.edit_invalidated, counters.edits),
            counters.edits,
        ),
    ]);

    // The ledger: each measured request's time split into its child
    // spans' durations and the request's own remainder.
    let mut total = 0u64;
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for span in &traced.spans {
        match span.parent {
            None if span.name == Span::REQUEST && span.measured => total += span.nanos(),
            Some(p) if traced.spans[p].measured => {
                let row = rows.entry(span.name).or_default();
                row.0 += span.nanos();
                row.1 += 1;
            }
            _ => {}
        }
    }
    let requests = traced.requests.max(1) as f64;
    let attributed: u64 = rows.values().map(|r| r.0).sum();
    let mut ledger: Vec<LedgerRow> = rows
        .into_iter()
        .map(|(layer, (ns, calls))| LedgerRow {
            layer: layer.to_owned(),
            ns_per_request: ns as f64 / requests,
            calls,
        })
        .collect();
    ledger.push(LedgerRow {
        layer: UNATTRIBUTED.to_owned(),
        ns_per_request: (total - attributed) as f64 / requests,
        calls: traced.requests,
    });
    let request_ns = total as f64 / requests;
    m.push(Metric::new(
        "ledger.unattributed_us",
        "us",
        (total - attributed) as f64 / requests / 1e3,
        traced.requests,
    ));
    m.push(Metric::new(
        "bench.request_us",
        "us",
        request_ns / 1e3,
        traced.requests,
    ));
    let overhead = 100.0 * (traced.request_ns as f64 / plain_ns.max(1.0) - 1.0);
    m.push(Metric::new(
        "bench.trace_overhead_pct",
        "%",
        overhead,
        traced.requests,
    ));
    (m, ledger, request_ns)
}

fn write_spans(path: &Path, plan: &Plan, spans: &[Span]) -> io::Result<()> {
    use std::io::Write as _;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = io::BufWriter::new(file);
    for (id, span) in spans.iter().enumerate() {
        let mut line = span.json(id);
        if let JsonValue::Object(fields) = &mut line {
            fields.insert(0, ("workload".into(), JsonValue::str(plan.workload.name())));
            fields.insert(1, ("seed".into(), JsonValue::U64(plan.seed)));
        }
        writeln!(out, "{line}")?;
    }
    out.flush()
}

impl RepReport {
    pub fn to_json(&self) -> JsonValue {
        let metrics = |ms: &[Metric]| JsonValue::Array(ms.iter().map(Metric::json).collect());
        let ledger = self
            .ledger
            .iter()
            .map(|r| {
                obj(vec![
                    ("layer", JsonValue::str(r.layer.as_str())),
                    ("ns_per_request", JsonValue::F64(r.ns_per_request)),
                    ("calls", JsonValue::U64(r.calls)),
                ])
            })
            .collect();
        obj(vec![
            ("workload", JsonValue::str(self.workload.name())),
            ("seed", JsonValue::U64(self.seed)),
            ("metrics", metrics(&self.metrics)),
            ("layers", metrics(&self.layers)),
            ("ledger", JsonValue::Array(ledger)),
            ("request_ns", JsonValue::F64(self.request_ns)),
            ("counters", counters_json(&self.counters)),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            ("correct", JsonValue::Bool(self.correct)),
            ("truncated", JsonValue::Bool(self.truncated)),
            (
                "first_failure",
                self.first_failure
                    .as_deref()
                    .map_or(JsonValue::Null, JsonValue::str),
            ),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Option<RepReport> {
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            v.get(key)?
                .as_array()?
                .iter()
                .map(Metric::from_json)
                .collect()
        };
        let ledger = v
            .get("ledger")?
            .as_array()?
            .iter()
            .map(|r| {
                Some(LedgerRow {
                    layer: r.get("layer")?.as_str()?.to_owned(),
                    ns_per_request: number(r.get("ns_per_request")?)?,
                    calls: r.get("calls")?.as_u64()?,
                })
            })
            .collect::<Option<_>>()?;
        Some(RepReport {
            workload: Workload::from_name(v.get("workload")?.as_str()?)?,
            seed: v.get("seed")?.as_u64()?,
            metrics: metrics("metrics")?,
            layers: metrics("layers")?,
            ledger,
            request_ns: number(v.get("request_ns")?)?,
            counters: counters_from_json(v.get("counters")?)?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            correct: v.get("correct")?.as_bool()?,
            truncated: v.get("truncated")?.as_bool()?,
            first_failure: v.get("first_failure")?.as_str().map(str::to_owned),
        })
    }
}

/// A metric over a run's reps.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Samples behind the values, over all reps.
    pub samples: u64,
}

/// One run: a workload's reps folded together.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds asked of the whole run (the reps share them).
    pub seconds: f64,
    pub reps: usize,
    pub traced: bool,
    pub metrics: Vec<Summary>,
    pub layers: Vec<Summary>,
    pub ledger: Vec<LedgerRow>,
    pub request_ns: f64,
    /// Summed over reps.
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub truncated: bool,
    pub first_failure: Option<String>,
}

/// Folds reps of one workload and seed, run for `seconds` in all: each
/// metric becomes the median of its reps, with min and max.
pub fn aggregate(reps: &[RepReport], seconds: f64) -> RunReport {
    let fold = |pick: fn(&RepReport) -> &Vec<Metric>| -> Vec<Summary> {
        let mut names: Vec<(&str, &str)> = Vec::new();
        for m in reps.iter().flat_map(pick) {
            if !names.iter().any(|(n, _)| *n == m.name) {
                names.push((&m.name, &m.unit));
            }
        }
        names
            .into_iter()
            .map(|(name, unit)| {
                let mine: Vec<&Metric> = reps
                    .iter()
                    .flat_map(pick)
                    .filter(|m| m.name == name)
                    .collect();
                let values: Vec<f64> = mine.iter().map(|m| m.value).collect();
                Summary {
                    name: name.to_owned(),
                    unit: unit.to_owned(),
                    median: median(&values),
                    min: values.iter().copied().fold(f64::INFINITY, f64::min),
                    max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    samples: mine.iter().map(|m| m.samples).sum(),
                }
            })
            .collect()
    };
    let first = &reps[0];
    let traced = reps.iter().find(|r| !r.ledger.is_empty());
    RunReport {
        workload: first.workload,
        seed: first.seed,
        seconds,
        reps: reps.len(),
        traced: traced.is_some(),
        metrics: fold(|r| &r.metrics),
        layers: fold(|r| &r.layers),
        ledger: traced.map(|r| r.ledger.clone()).unwrap_or_default(),
        request_ns: traced.map_or(0.0, |r| r.request_ns),
        counters: reps
            .iter()
            .fold(Counters::default(), |acc, r| acc.add(&r.counters)),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        correct: reps.iter().all(|r| r.correct),
        truncated: reps.iter().any(|r| r.truncated),
        first_failure: reps.iter().find_map(|r| r.first_failure.clone()),
    }
}

/// `x` for a table: at least four decimals, and at least five significant
/// digits (a 30 µs `setup_s` is 0.000030000 s).
pub fn digits(x: f64) -> String {
    let magnitude = if x == 0.0 || !x.is_finite() {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (4 - magnitude).max(4) as usize)
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl RunReport {
    /// The human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let _ = writeln!(
            out,
            "workload {} · seed {} · {} s · {} rep(s){} · {} cores · {} requests checked, {} failed{}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.reps,
            if self.traced { ", traced" } else { "" },
            cores,
            self.attempted,
            self.failed,
            if self.truncated { " · TRUNCATED" } else { "" }
        );
        if let Some(why) = &self.first_failure {
            let _ = writeln!(out, "first failure: {why}");
        }
        let table = |out: &mut String, title: &str, rows: &[Summary]| {
            if rows.is_empty() {
                return;
            }
            let _ = writeln!(
                out,
                "{title:<34} {:>14} {:>14} {:>14} {:>6} {:>9}",
                "median", "min", "max", "unit", "samples"
            );
            for s in rows {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>14} {:>14} {:>14} {:>6} {:>9}",
                    s.name,
                    digits(s.median),
                    digits(s.min),
                    digits(s.max),
                    s.unit,
                    s.samples
                );
            }
        };
        table(&mut out, "end to end", &self.metrics);
        table(&mut out, "per layer", &self.layers);
        let counters: Vec<String> = self
            .counters
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "counters: {}", counters.join(" "));
        if !self.ledger.is_empty() {
            let _ = writeln!(
                out,
                "ledger (traced replay, self time per measured request; rows sum to {:.3} us)",
                self.request_ns / 1e3
            );
            for row in &self.ledger {
                let share = 100.0 * row.ns_per_request / self.request_ns.max(f64::MIN_POSITIVE);
                let _ = writeln!(
                    out,
                    "  {:<32} {:>12.3} us {:>6.1}% {:>9} calls",
                    row.layer,
                    row.ns_per_request / 1e3,
                    share,
                    row.calls
                );
            }
            let _ = writeln!(
                out,
                "  (constraints.*, ir.*, snap.encode and snap.decode are isolated measurements beside their requests, not ledger rows)"
            );
        }
        out
    }

    /// The run record `--out` appends and `--compare` reads. `seconds`,
    /// `reps` and `traced` say what traffic the run sent: `--compare`
    /// pairs only records that agree on them.
    pub fn to_json(&self) -> JsonValue {
        let summaries = |rows: &[Summary]| {
            let fields = rows
                .iter()
                .map(|s| {
                    let v = obj(vec![
                        ("value", JsonValue::F64(s.median)),
                        ("unit", JsonValue::str(s.unit.as_str())),
                        ("min", JsonValue::F64(s.min)),
                        ("max", JsonValue::F64(s.max)),
                        ("samples", JsonValue::U64(s.samples)),
                    ]);
                    (s.name.clone(), v)
                })
                .collect();
            JsonValue::Object(fields)
        };
        let ledger = self
            .ledger
            .iter()
            .map(|r| (r.layer.clone(), JsonValue::F64(r.ns_per_request / 1e3)))
            .collect();
        obj(vec![
            ("workload", JsonValue::str(self.workload.name())),
            ("seed", JsonValue::U64(self.seed)),
            ("seconds", JsonValue::F64(self.seconds)),
            ("reps", JsonValue::U64(self.reps as u64)),
            ("traced", JsonValue::Bool(self.traced)),
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            ("truncated", JsonValue::Bool(self.truncated)),
            ("metrics", summaries(&self.metrics)),
            ("layers", summaries(&self.layers)),
            ("ledger_us", JsonValue::Object(ledger)),
            ("counters", counters_json(&self.counters)),
        ])
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = ddpa_obs::parse_json(text)?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json lacks {key:?}"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str);
                    Ok(MetricSpec {
                        name: s("name").ok_or("metric without a name")?.to_owned(),
                        unit: s("unit").ok_or("metric without a unit")?.to_owned(),
                        higher_is_better: s("better") == Some("higher"),
                        bound: m.get("bound").and_then(number),
                    })
                })
                .collect()
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// The compiled-in `BENCHMARK.json`.
    pub fn builtin() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// The result line: `metrics` holds every listed metric (end-to-end,
    /// or per-layer when `traced`), each checked for its declared unit.
    pub fn result_line(&self, run: &RunReport, traced: bool) -> Result<JsonValue, String> {
        let (wanted, have) = if traced {
            (&self.per_layer, &run.layers)
        } else {
            (&self.end_to_end, &run.metrics)
        };
        // A traced run's tail latency comes from its untraced socket pass.
        let also: &[Summary] = if traced { &run.metrics } else { &[] };
        let metrics = wanted
            .iter()
            .map(|spec| {
                let m = have
                    .iter()
                    .chain(also)
                    .find(|m| m.name == spec.name)
                    .ok_or(format!(
                        "{} did not report {}",
                        run.workload.name(),
                        spec.name
                    ))?;
                if m.unit != spec.unit {
                    return Err(format!("{} is in {}, not {}", spec.name, m.unit, spec.unit));
                }
                let value = obj(vec![
                    ("value", JsonValue::F64(m.median)),
                    ("unit", JsonValue::str(m.unit.as_str())),
                ]);
                Ok((spec.name.clone(), value))
            })
            .collect::<Result<_, String>>()?;
        Ok(obj(vec![
            ("correct", JsonValue::Bool(run.correct)),
            ("attempted", JsonValue::U64(run.attempted)),
            ("failed", JsonValue::U64(run.failed)),
            ("metrics", JsonValue::Object(metrics)),
        ]))
    }
}

fn counters_json(c: &Counters) -> JsonValue {
    JsonValue::Object(
        c.fields()
            .iter()
            .map(|&(k, v)| (k.to_owned(), JsonValue::U64(v)))
            .collect(),
    )
}

fn counters_from_json(v: &JsonValue) -> Option<Counters> {
    let fields = v.as_object()?;
    Some(Counters::from_fields(
        fields
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?))),
    ))
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A JSON number as `f64` (the reader keeps integers as `U64`).
pub fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::U64(n) => Some(*n as f64),
        JsonValue::F64(x) => Some(*x),
        _ => None,
    }
}
