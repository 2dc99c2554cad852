//! Command-line driver for the `ddpa` pointer analyses.
//!
//! ```text
//! ddpa stats     <file>                      program characteristics
//! ddpa dump      <file>                      lowered constraints (text format)
//! ddpa dot       <file>                      constraint graph in Graphviz format
//! ddpa solve     <file> [names…]             exhaustive points-to sets
//! ddpa query     <file> <names…> [--budget N] [--no-cache] [--ptb]
//! ddpa explain   <file> <node> <target>      derivation of a points-to fact
//! ddpa cs        <file> <names…> [--k N]     context-sensitive points-to
//! ddpa callgraph <file> [--budget N]         resolve all call sites on demand
//! ddpa audit     <file> [--budget N]         dereference audit (wild pointers)
//! ddpa stackret  <file> [--budget N]         stack-return (dangling pointer) lint
//! ddpa profile   <file>                      run both analyses, report metrics + spans
//! ddpa gen       [--size N] [--seed S] [--minic]   emit a generated workload
//! ddpa snapshot  <file> [names…] --out <path>      warm the memo table, write a snapshot
//! ddpa restore   <file> <snap> [names…]            warm-start from a snapshot
//! ddpa serve     --addr HOST:PORT                  persistent demand-query server
//! ddpa client    --addr HOST:PORT <op> [args…]     talk to a running server
//! ddpa top       <session> --addr HOST:PORT        live engine view (hottest goals,
//!                                                  critical path, hit rates)
//! ```
//!
//! `solve`, `query`, `callgraph`, `audit` and `stackret` additionally take
//! `--profile` (print the span tree after the command). These and
//! `profile` take `--metrics-out <path>` (export counters/spans as JSONL;
//! see `docs/OBSERVABILITY.md` for the schema).
//!
//! Inputs ending in `.c` or `.mc` are parsed as MiniC; anything else as the
//! textual constraint format (`--minic` / `--constraints` override).

#![forbid(unsafe_code)]

use std::fmt;
use std::io::Write;

use ddpa::constraints::{ConstraintProgram, NodeId};
use ddpa::demand::{DemandConfig, DemandEngine, SchedPolicy};
use ddpa::obs::{JsonValue, JsonlSink, Obs};
use ddpa::support::stats::fmt_count;

/// A CLI failure (bad usage, I/O, or input error).
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("i/o error: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

const USAGE: &str = "\
usage: ddpa <command> [args]

commands:
  stats     <file>                      program characteristics
  dump      <file>                      lowered constraints (text format)
  dot       <file>                      constraint graph (Graphviz)
  solve     <file> [names...]           exhaustive points-to sets
  query     <file> <names...>           demand points-to queries
            [--budget N] [--no-cache] [--ptb]
            [--workers N] [--sched-policy dfs|bfs]  intra-query parallelism
  explain   <file> <node> <target>      derivation of target ∈ pts(node)
  cs        <file> <names...> [--k N]   context-sensitive points-to (default k=1)
  callgraph <file> [--budget N]         resolve all call sites on demand
  audit     <file> [--budget N]         dereference audit (wild pointers)
  stackret  <file> [--budget N]         stack-return (dangling pointer) lint
  profile   <file>                      run both analyses, report metrics + spans
  jsonl-check <file>                    validate a JSONL metrics export
  gen       [--size N] [--seed S] [--minic] [--wide]  emit a generated
            workload (--wide: many independent chains, high W/S headroom)
  snapshot  <file> [names...] --out <path>   answer queries (default: all
            locations), then write the completed fixpoints as a durable
            snapshot (see docs/PERSISTENCE.md)
  restore   <file> <snap> [names...]    warm-start from a snapshot and
            answer queries with zero deduction work
  serve     --addr HOST:PORT            persistent demand-query server
            [--budget N] [--timeout-ms T]
            [--workers N] [--sched-policy dfs|bfs]  intra-query parallelism
            [--port-file <path>] [--stdin-shutdown] [--metrics-out <path>]
            [--access-log <path>] [--slow-ms N]
            [--snapshot-dir <dir>] [--snapshot-every-ms N] [--restore]
  client    --addr HOST:PORT <op>       one request against a running server:
            ping | stats | shutdown | close <session>
            open <session> <file> [--budget N] [--parallel-query]
            add <session> <file>
            query <session> <names...> [--ptb] [--parallel] [--trace]
                  [--budget N] [--timeout-ms T] [--parallel-query]
            alias <session> <a> <b> [--trace]
            targets <session> <site> [--trace]
            snapshot <session> [--out <server-side path>]
            restore <session> <server-side path>
            stats [--out <path>]        server-wide view; --out writes its
                                        metrics records as JSONL
            inspect <session> [--top K] [--limit N] [--dot] [--out <path>]
                                        session view; --limit adds the newest
                                        N flight events, --dot the goal graph,
                                        --out writes the events as JSONL
            (multi-name query sends one batch; see docs/SERVER.md)
  top       <session> --addr HOST:PORT  live engine view: hottest goals,
            critical path, hit rates [--iters N (0 = until interrupted)]
            [--interval-ms T] [--top K]

solve/query/callgraph/audit/stackret also take:
  --profile             print the span profile tree after the command
  --metrics-out <path>  export counters and spans as JSONL (profile too)

inputs ending in .c/.mc parse as MiniC; otherwise as constraint text
(--minic / --constraints override).";

/// Parsed common options.
#[derive(Debug, Default)]
struct Options {
    budget: Option<u64>,
    no_cache: bool,
    ptb: bool,
    minic: Option<bool>,
    k: usize,
    size: usize,
    seed: u64,
    profile: bool,
    metrics_out: Option<String>,
    addr: Option<String>,
    workers: Option<usize>,
    sched_policy: Option<SchedPolicy>,
    parallel_query: bool,
    wide: bool,
    timeout_ms: Option<u64>,
    parallel: bool,
    stdin_shutdown: bool,
    port_file: Option<String>,
    access_log: Option<String>,
    slow_ms: Option<u64>,
    trace: bool,
    snapshot_dir: Option<String>,
    snapshot_every_ms: Option<u64>,
    restore: bool,
    out: Option<String>,
    dot: bool,
    iters: u64,
    interval_ms: Option<u64>,
    top: Option<u64>,
    limit: Option<u64>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        size: 1000,
        k: 1,
        ..Options::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget" => {
                let v = iter.next().ok_or_else(|| err("--budget needs a value"))?;
                opts.budget = Some(v.parse().map_err(|_| err(format!("bad budget `{v}`")))?);
            }
            "--size" => {
                let v = iter.next().ok_or_else(|| err("--size needs a value"))?;
                opts.size = v.parse().map_err(|_| err(format!("bad size `{v}`")))?;
            }
            "--seed" => {
                let v = iter.next().ok_or_else(|| err("--seed needs a value"))?;
                opts.seed = v.parse().map_err(|_| err(format!("bad seed `{v}`")))?;
            }
            "--k" => {
                let v = iter.next().ok_or_else(|| err("--k needs a value"))?;
                opts.k = v.parse().map_err(|_| err(format!("bad k `{v}`")))?;
            }
            "--no-cache" => opts.no_cache = true,
            "--ptb" => opts.ptb = true,
            "--profile" => opts.profile = true,
            "--metrics-out" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--metrics-out needs a path"))?;
                opts.metrics_out = Some(v.clone());
            }
            "--minic" => opts.minic = Some(true),
            "--constraints" => opts.minic = Some(false),
            "--addr" => {
                let v = iter.next().ok_or_else(|| err("--addr needs host:port"))?;
                opts.addr = Some(v.clone());
            }
            "--workers" => {
                let v = iter.next().ok_or_else(|| err("--workers needs a value"))?;
                opts.workers = Some(v.parse().map_err(|_| err(format!("bad workers `{v}`")))?);
            }
            "--sched-policy" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--sched-policy needs dfs or bfs"))?;
                opts.sched_policy = Some(v.parse().map_err(|e: String| err(e))?);
            }
            "--parallel-query" => opts.parallel_query = true,
            "--wide" => opts.wide = true,
            "--timeout-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--timeout-ms needs a value"))?;
                opts.timeout_ms = Some(v.parse().map_err(|_| err(format!("bad timeout `{v}`")))?);
            }
            "--parallel" => opts.parallel = true,
            "--stdin-shutdown" => opts.stdin_shutdown = true,
            "--port-file" => {
                let v = iter.next().ok_or_else(|| err("--port-file needs a path"))?;
                opts.port_file = Some(v.clone());
            }
            "--access-log" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--access-log needs a path"))?;
                opts.access_log = Some(v.clone());
            }
            "--slow-ms" => {
                let v = iter.next().ok_or_else(|| err("--slow-ms needs a value"))?;
                opts.slow_ms = Some(v.parse().map_err(|_| err(format!("bad slow-ms `{v}`")))?);
            }
            "--trace" => opts.trace = true,
            "--snapshot-dir" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--snapshot-dir needs a directory"))?;
                opts.snapshot_dir = Some(v.clone());
            }
            "--snapshot-every-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--snapshot-every-ms needs a value"))?;
                opts.snapshot_every_ms =
                    Some(v.parse().map_err(|_| err(format!("bad interval `{v}`")))?);
            }
            "--restore" => opts.restore = true,
            "--dot" => opts.dot = true,
            "--iters" => {
                let v = iter.next().ok_or_else(|| err("--iters needs a value"))?;
                opts.iters = v.parse().map_err(|_| err(format!("bad iters `{v}`")))?;
            }
            "--interval-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| err("--interval-ms needs a value"))?;
                opts.interval_ms = Some(v.parse().map_err(|_| err(format!("bad interval `{v}`")))?);
            }
            "--top" => {
                let v = iter.next().ok_or_else(|| err("--top needs a value"))?;
                opts.top = Some(v.parse().map_err(|_| err(format!("bad top `{v}`")))?);
            }
            "--limit" => {
                let v = iter.next().ok_or_else(|| err("--limit needs a value"))?;
                opts.limit = Some(v.parse().map_err(|_| err(format!("bad limit `{v}`")))?);
            }
            "--out" => {
                let v = iter.next().ok_or_else(|| err("--out needs a path"))?;
                opts.out = Some(v.clone());
            }
            other if other.starts_with("--") => {
                return Err(err(format!("unknown option `{other}`")));
            }
            other => opts.positional.push(other.to_owned()),
        }
    }
    Ok(opts)
}

fn load_program(path: &str, minic: Option<bool>) -> Result<ConstraintProgram, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
    let is_minic = minic.unwrap_or_else(|| path.ends_with(".c") || path.ends_with(".mc"));
    if is_minic {
        ddpa::compile(&text).map_err(|e| err(format!("{path}: {e}")))
    } else {
        ddpa::constraints::parse_constraints(&text).map_err(|e| err(format!("{path}: {e}")))
    }
}

/// Loads `path` in canonical form ([`ddpa::constraints::canonicalize`]):
/// the program a snapshot's node ids index, and the text it is stamped
/// with. Canonical form is what a server session runs on, so snapshots
/// written here and by the server restore interchangeably, and a MiniC
/// input restores interchangeably with its `ddpa dump`.
fn load_canonical(
    path: &str,
    minic: Option<bool>,
) -> Result<(ConstraintProgram, String), CliError> {
    let cp = load_program(path, minic)?;
    ddpa::constraints::canonicalize(cp, None).map_err(|e| err(format!("{path}: {e}")))
}

/// The node `name` denotes, by the server's rule
/// ([`ConstraintProgram::node_named`]).
fn find_node(cp: &ConstraintProgram, name: &str) -> Result<NodeId, CliError> {
    cp.node_named(name)
        .ok_or_else(|| err(format!("no location named `{name}` (try `ddpa dump`)")))
}

/// Runs the CLI with `args`, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on bad usage or failing inputs; the caller maps it
/// to a nonzero exit status.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    let opts = parse_options(&args[1..])?;
    let obs = if opts.profile || command == "profile" {
        Obs::with_profiling()
    } else {
        Obs::new()
    };

    match command.as_str() {
        "stats" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            writeln!(out, "{}", ddpa::constraints::ProgramStats::of(&cp))?;
        }
        "dump" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            write!(out, "{}", ddpa::constraints::print_constraints(&cp))?;
        }
        "dot" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            write!(out, "{}", ddpa::constraints::to_dot(&cp))?;
        }
        "solve" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            let solution = ddpa::anders::solve_with_obs(&cp, &obs);
            let names = &opts.positional[1..];
            let nodes: Vec<NodeId> = if names.is_empty() {
                cp.node_ids().collect()
            } else {
                names
                    .iter()
                    .map(|n| find_node(&cp, n))
                    .collect::<Result<_, _>>()?
            };
            for node in nodes {
                let targets: Vec<String> = solution
                    .pts_nodes(node)
                    .iter()
                    .map(|&t| cp.display_node(t))
                    .collect();
                if !targets.is_empty() || !names.is_empty() {
                    writeln!(
                        out,
                        "pts({}) = {{{}}}",
                        cp.display_node(node),
                        targets.join(", ")
                    )?;
                }
            }
        }
        "query" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            if opts.positional.len() < 2 {
                return Err(err("query needs at least one location name"));
            }
            let config = DemandConfig {
                budget: opts.budget,
                caching: !opts.no_cache,
                workers: opts.workers.unwrap_or(1).max(1),
                sched_policy: opts.sched_policy.unwrap_or_default(),
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            for name in &opts.positional[1..] {
                let node = find_node(&cp, name)?;
                let r = if opts.ptb {
                    engine.pointed_to_by(node)
                } else {
                    engine.points_to(node)
                };
                let targets: Vec<String> = r.pts.iter().map(|&t| cp.display_node(t)).collect();
                writeln!(
                    out,
                    "{}({name}) = {{{}}}  [work {}{}]",
                    if opts.ptb { "ptb" } else { "pts" },
                    targets.join(", "),
                    r.work,
                    if r.complete { "" } else { ", UNRESOLVED" },
                )?;
            }
        }
        "cs" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            if opts.positional.len() < 2 {
                return Err(err("cs needs at least one location name"));
            }
            let analysis = ddpa::cxt::CsAnalysis::run(&cp, &ddpa::cxt::CloneConfig::with_k(opts.k));
            writeln!(
                out,
                "k={} call-string cloning: {} clones, {:.2}x nodes{}",
                opts.k,
                analysis.cloned.clone_count,
                analysis.cloned.expansion_factor(&cp),
                if analysis.cloned.capped {
                    " (clone budget hit)"
                } else {
                    ""
                },
            )?;
            for name in &opts.positional[1..] {
                let node = find_node(&cp, name)?;
                let targets: Vec<String> = analysis
                    .pts_of(node)
                    .iter()
                    .map(|&t| cp.display_node(t))
                    .collect();
                writeln!(out, "pts({name}) = {{{}}}", targets.join(", "))?;
            }
        }
        "explain" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            let [_, node_name, target_name] = opts.positional.as_slice() else {
                return Err(err("explain needs <file> <node> <target>"));
            };
            let node = find_node(&cp, node_name)?;
            let target = find_node(&cp, target_name)?;
            match ddpa::demand::explain_points_to(&cp, node, target) {
                Some(explanation) => write!(out, "{}", explanation.render(&cp))?,
                None => writeln!(out, "{target_name} ∉ pts({node_name})")?,
            }
        }
        "callgraph" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let (cg, stats) = ddpa::clients::CallGraph::from_demand(&mut engine);
            for cs in cp.callsites().indices() {
                let site = cp.callsite(cs);
                let kind = if site.is_indirect() { "icall" } else { "call" };
                let names: Vec<&str> = cg
                    .targets(cs)
                    .iter()
                    .map(|&f| cp.interner().resolve(cp.func(f).name))
                    .collect();
                writeln!(out, "{kind} #{} -> {{{}}}", cs.as_u32(), names.join(", "))?;
            }
            writeln!(
                out,
                "{} indirect queries: {} resolved, {} fallback",
                stats.indirect_resolved + stats.indirect_fallback,
                stats.indirect_resolved,
                stats.indirect_fallback
            )?;
        }
        "audit" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let audit = ddpa::clients::DerefAudit::run(&mut engine);
            for site in audit.wild() {
                writeln!(out, "WILD: {}", audit.describe(&cp, site))?;
            }
            writeln!(
                out,
                "{} dereference sites, {} wild, {} singleton",
                audit.sites.len(),
                audit.wild().len(),
                audit.singletons().len()
            )?;
        }
        "stackret" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = load_program(path, opts.minic)?;
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let report = ddpa::clients::StackReturnAudit::run(&mut engine);
            for finding in &report.findings {
                writeln!(out, "{}", report.describe(&cp, finding))?;
            }
            writeln!(
                out,
                "{} function(s) flagged, {} unresolved",
                report.findings.len(),
                report.unresolved.len()
            )?;
        }
        "profile" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let cp = {
                let _load = obs.span("load");
                load_program(path, opts.minic)?
            };
            ddpa::constraints::ProgramStats::of(&cp).record(&obs.registry);
            // Exhaustive baseline: solve the whole program once.
            let _solution = ddpa::anders::solve_with_obs(&cp, &obs);
            // Demand pass: the paper's query load — every call site plus
            // every dereferenced pointer.
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            {
                let _span = obs.span("demand.clients");
                let latency = obs.histogram("demand.query.latency_us");
                for cs in cp.callsites().indices() {
                    let t = std::time::Instant::now();
                    let _ = engine.call_targets(cs);
                    latency.record_duration(t.elapsed());
                }
                for ptr in cp.deref_pointers() {
                    let t = std::time::Instant::now();
                    let _ = engine.points_to(ptr);
                    latency.record_duration(t.elapsed());
                }
            }
            let stats = engine.stats();
            writeln!(out, "profile: {path}")?;
            writeln!(out)?;
            write!(out, "{}", obs.profiler.render())?;
            writeln!(out)?;
            write!(out, "{}", render_registry(&obs))?;
            writeln!(out)?;
            let anders_work = obs.registry.counter_value("anders.work");
            let ratio = if anders_work > 0 {
                format!(" ({:.4}x)", stats.work as f64 / anders_work as f64)
            } else {
                String::new()
            };
            let fires_per_query = if stats.queries > 0 {
                stats.fires as f64 / stats.queries as f64
            } else {
                0.0
            };
            writeln!(
                out,
                "demand work {} vs exhaustive work {}{ratio}; \
                 {} queries, {fires_per_query:.1} fires/query",
                fmt_count(stats.work),
                fmt_count(anders_work),
                fmt_count(stats.queries),
            )?;
        }
        "jsonl-check" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let text = std::fs::read_to_string(path)?;
            let mut lines = 0usize;
            for (i, line) in text.lines().enumerate() {
                // Name the offending line so a failing CI export is
                // greppable without re-running the check under a shell
                // loop; the kind (or parse failure) comes from the
                // validator's own message.
                ddpa::obs::validate_metrics_line(line)
                    .map_err(|e| err(format!("{path}: line {}: {e}", i + 1)))?;
                lines += 1;
            }
            if lines == 0 {
                return Err(err(format!("{path}: empty (expected JSONL lines)")));
            }
            writeln!(out, "{path}: {lines} valid JSONL line(s)")?;
        }
        "gen" => {
            if opts.wide {
                let cp =
                    ddpa::gen::generate_wide(&ddpa::gen::WideConfig::sized(opts.seed, opts.size));
                write!(out, "{}", ddpa::constraints::print_constraints(&cp))?;
            } else if opts.minic == Some(true) {
                let program = ddpa::gen::generate_minic(&ddpa::gen::MiniCConfig::sized(
                    opts.seed,
                    opts.size.max(4) / 12,
                ));
                write!(out, "{}", ddpa::ir::pretty(&program))?;
            } else {
                let cp = ddpa::gen::generate_random(&ddpa::gen::RandomConfig::sized(
                    opts.seed, opts.size,
                ));
                write!(out, "{}", ddpa::constraints::print_constraints(&cp))?;
            }
        }
        "snapshot" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let out_path = opts
                .out
                .as_deref()
                .ok_or_else(|| err("snapshot needs --out <path>"))?;
            let (cp, source) = load_canonical(path, opts.minic)?;
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let names = &opts.positional[1..];
            let nodes: Vec<NodeId> = if names.is_empty() {
                cp.node_ids().collect()
            } else {
                names
                    .iter()
                    .map(|n| find_node(&cp, n))
                    .collect::<Result<_, _>>()?
            };
            for node in nodes {
                let _ = engine.points_to(node);
            }
            let snapshot = ddpa::snap::Snapshot::capture(&engine, source);
            let bytes = ddpa::snap::write_file(&snapshot, out_path)
                .map_err(|e| err(format!("cannot write `{out_path}`: {e}")))?;
            writeln!(
                out,
                "wrote {out_path}: {} fixpoint(s), {} bytes",
                snapshot.entries.len(),
                fmt_count(bytes as u64),
            )?;
        }
        "restore" => {
            let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
            let snap_path = opts
                .positional
                .get(1)
                .ok_or_else(|| err("restore needs <file> <snap> [names...]"))?;
            let (cp, source) = load_canonical(path, opts.minic)?;
            let cannot =
                |e: ddpa::snap::SnapError| err(format!("cannot restore `{snap_path}`: {e}"));
            let snapshot = ddpa::snap::read_file(snap_path).map_err(cannot)?;
            let config = DemandConfig {
                budget: opts.budget,
                ..DemandConfig::default()
            };
            let mut engine = DemandEngine::with_obs(&cp, config, obs.clone());
            let snapshot = std::borrow::Cow::Owned(snapshot);
            let stats = ddpa::snap::restore(&mut engine, &source, snapshot).map_err(cannot)?;
            let rebound = stats
                .rebound
                .then(|| format!(" (rebound, {} dropped)", stats.dropped));
            let installed = stats.installed;
            writeln!(
                out,
                "restored {installed} fixpoint(s) from {snap_path}{}",
                rebound.unwrap_or_default()
            )?;
            for name in &opts.positional[2..] {
                let node = find_node(&cp, name)?;
                let r = engine.points_to(node);
                let targets: Vec<String> = r.pts.iter().map(|&t| cp.display_node(t)).collect();
                writeln!(
                    out,
                    "pts({name}) = {{{}}}  [work {}{}]",
                    targets.join(", "),
                    r.work,
                    if r.complete { "" } else { ", UNRESOLVED" },
                )?;
            }
        }
        "serve" => {
            let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:7077");
            let mut config = ddpa::serve::ServeConfig::default();
            if let Some(w) = opts.workers {
                config.workers = w.max(1);
            }
            if let Some(p) = opts.sched_policy {
                config.sched_policy = p;
            }
            config.default_budget = opts.budget;
            if let Some(t) = opts.timeout_ms {
                config.default_timeout_ms = t;
            }
            config.access_log = opts.access_log.clone().map(std::path::PathBuf::from);
            if let Some(ms) = opts.slow_ms {
                config.slow_ms = ms;
            }
            config.snapshot_dir = opts.snapshot_dir.clone().map(std::path::PathBuf::from);
            if let Some(ms) = opts.snapshot_every_ms {
                config.snapshot_every_ms = ms;
            }
            config.restore_on_open = opts.restore;
            let server = ddpa::serve::Server::bind(addr, config, obs.clone())
                .map_err(|e| err(format!("cannot bind `{addr}`: {e}")))?;
            let local = server.local_addr();
            if let Some(pf) = opts.port_file.as_deref() {
                std::fs::write(pf, local.to_string())
                    .map_err(|e| err(format!("cannot write `{pf}`: {e}")))?;
            }
            writeln!(out, "ddpa-serve listening on {local}")?;
            out.flush()?;
            if opts.stdin_shutdown {
                // Supervisor-friendly stop signal without OS signal
                // handling: closing our stdin (EOF) shuts the server
                // down gracefully.
                let handle = server.handle();
                std::thread::spawn(move || {
                    let mut sink = Vec::new();
                    let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
                    handle.shutdown();
                });
            }
            server.run()?;
            writeln!(out, "ddpa-serve stopped")?;
        }
        "client" => {
            let addr = opts
                .addr
                .as_deref()
                .ok_or_else(|| err("client needs --addr HOST:PORT"))?;
            let request = client_request(&opts)?;
            let mut client = ddpa::serve::Client::connect(addr)
                .map_err(|e| err(format!("cannot connect to `{addr}`: {e}")))?;
            let response = client.request(&request)?;
            writeln!(out, "{response}")?;
            let response = ok_or_err(response)?;
            // `stats` and `inspect` write their records locally; a
            // `snapshot` path is the server's.
            let records = match request.get("op").and_then(JsonValue::as_str) {
                Some("stats") => response.get("metrics"),
                Some("inspect") => response.get("events"),
                _ => None,
            };
            if let (Some(path), Some(records)) =
                (opts.out.as_deref(), records.and_then(JsonValue::as_array))
            {
                let file = std::fs::File::create(path)
                    .map_err(|e| err(format!("cannot write `{path}`: {e}")))?;
                let mut w = std::io::BufWriter::new(file);
                for record in records {
                    writeln!(w, "{record}")?;
                }
                w.flush()?;
            }
        }
        "top" => {
            let addr = opts
                .addr
                .as_deref()
                .ok_or_else(|| err("top needs --addr HOST:PORT"))?;
            let session = opts
                .positional
                .first()
                .ok_or_else(|| err("top needs a session name"))?;
            let mut client = ddpa::serve::Client::connect(addr)
                .map_err(|e| err(format!("cannot connect to `{addr}`: {e}")))?;
            let interval = std::time::Duration::from_millis(opts.interval_ms.unwrap_or(1000));
            let mut round = 0u64;
            loop {
                round += 1;
                let stats = request_ok(&mut client, &ddpa::serve::proto::build::stats())?;
                let inspect = request_ok(
                    &mut client,
                    &ddpa::serve::proto::build::inspect(session, opts.top, None, None),
                )?;
                if round > 1 {
                    // ANSI home+clear keeps the refresh flicker-free.
                    write!(out, "\x1b[H\x1b[2J")?;
                }
                render_top(out, addr, session, &stats, &inspect)?;
                out.flush()?;
                if opts.iters != 0 && round >= opts.iters {
                    break;
                }
                std::thread::sleep(interval);
            }
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
        }
        other => return Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
    if opts.profile && command != "profile" {
        writeln!(out)?;
        write!(out, "{}", obs.profiler.render())?;
    }
    if let Some(path) = opts.metrics_out.as_deref() {
        export_jsonl(
            &obs,
            command,
            opts.positional.first().map(String::as_str),
            path,
        )?;
    }
    Ok(())
}

/// Sends one request and unwraps the ok envelope, surfacing server-side
/// failures as CLI errors.
fn request_ok(
    client: &mut ddpa::serve::Client,
    request: &JsonValue,
) -> Result<JsonValue, CliError> {
    ok_or_err(client.request(request)?)
}

/// Unwraps a response's ok envelope; a server-side failure becomes a CLI
/// error naming its code.
fn ok_or_err(response: JsonValue) -> Result<JsonValue, CliError> {
    if response.get("ok").and_then(JsonValue::as_bool) == Some(true) {
        return Ok(response);
    }
    let code = response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .unwrap_or("unknown");
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(JsonValue::as_str)
        .unwrap_or("");
    Err(err(format!("server error {code}: {message}")))
}

/// Renders one `ddpa top` frame: server health, the session's engine
/// counters, the critical-path summary, and the hottest-goals table.
fn render_top(
    out: &mut impl Write,
    addr: &str,
    session: &str,
    stats: &JsonValue,
    inspect: &JsonValue,
) -> Result<(), CliError> {
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_u64).unwrap_or(0);
    let metric = |name: &str| {
        stats
            .get("metrics")
            .and_then(JsonValue::as_array)?
            .iter()
            .find(|r| r.get("name").and_then(JsonValue::as_str) == Some(name))
    };
    let counter = |name: &str| num(metric(name).and_then(|r| r.get("value")));
    writeln!(
        out,
        "ddpa top — {addr}  session `{session}`  [{} request(s), {} error(s), {} timeout(s)]",
        counter("server.requests"),
        counter("server.errors"),
        counter("server.timeouts"),
    )?;
    if let Some(q) = metric("server.latency.query_us") {
        writeln!(
            out,
            "query latency: p50 {}us  p90 {}us  p99 {}us  max {}us  over {} query(s)",
            num(q.get("p50")),
            num(q.get("p90")),
            num(q.get("p99")),
            num(q.get("max")),
            num(q.get("count")),
        )?;
    }
    if let Some(s) = stats.get("sessions").and_then(|all| all.get(session)) {
        let queries = num(s.get("queries"));
        let hits = num(s.get("cache_hits")) + num(s.get("share_hits"));
        let rate = if queries > 0 {
            100.0 * hits as f64 / queries as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "engine: {} query(s)  work {}  fires {}  tabled goals {}  \
             hit rate {rate:.1}% ({} cache + {} share)",
            fmt_count(queries),
            fmt_count(num(s.get("work"))),
            fmt_count(num(s.get("fires"))),
            fmt_count(num(s.get("tabled_goals"))),
            num(s.get("cache_hits")),
            num(s.get("share_hits")),
        )?;
    }
    if let Some(cp) = inspect.get("critical_path") {
        let headroom = match cp.get("headroom") {
            Some(JsonValue::F64(x)) => *x,
            Some(JsonValue::U64(n)) => *n as f64,
            _ => 1.0,
        };
        // The configured scheduler next to the headroom bound it could
        // exploit: workers beyond W/S cannot help this workload.
        let workers = num(stats.get("workers")).max(1);
        let policy = stats
            .get("sched_policy")
            .and_then(JsonValue::as_str)
            .unwrap_or("dfs");
        writeln!(
            out,
            "critical path: work {}  span {}  parallelism headroom {headroom:.2}x  \
             [{workers} worker(s), {policy} policy]",
            fmt_count(num(cp.get("work"))),
            fmt_count(num(cp.get("span"))),
        )?;
    }
    writeln!(out)?;
    writeln!(out, "  {:<36} {:>10} {:>8}  state", "goal", "work", "fires")?;
    if let Some(hottest) = inspect.get("hottest").and_then(JsonValue::as_array) {
        for g in hottest {
            let name = g.get("goal").and_then(JsonValue::as_str).unwrap_or("?");
            let state = if g.get("complete").and_then(JsonValue::as_bool) == Some(true) {
                "done"
            } else {
                "open"
            };
            writeln!(
                out,
                "  {name:<36} {:>10} {:>8}  {state}",
                num(g.get("work")),
                num(g.get("fires")),
            )?;
        }
    }
    Ok(())
}

/// Builds the wire request for a `ddpa client` invocation.
fn client_request(opts: &Options) -> Result<JsonValue, CliError> {
    use ddpa::serve::proto::{build, GraphFormat, QuerySpec};
    let pos = &opts.positional;
    let op = pos
        .first()
        .ok_or_else(|| err("client needs an operation (ping, open, query, ...)"))?;
    let session = |i: usize| -> Result<&str, CliError> {
        pos.get(i)
            .map(String::as_str)
            .ok_or_else(|| err(format!("client {op} needs a session name")))
    };
    let file_text = |i: usize| -> Result<(String, bool), CliError> {
        let path = pos
            .get(i)
            .ok_or_else(|| err(format!("client {op} needs a program file")))?;
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read `{path}`: {e}")))?;
        let minic = opts
            .minic
            .unwrap_or_else(|| path.ends_with(".c") || path.ends_with(".mc"));
        Ok((text, minic))
    };
    let traced = |request: JsonValue| {
        let request = if opts.parallel_query {
            build::with_parallel_query(request)
        } else {
            request
        };
        if opts.trace {
            build::with_trace(request)
        } else {
            request
        }
    };
    match op.as_str() {
        "ping" => Ok(build::ping()),
        "stats" => Ok(build::stats()),
        "shutdown" => Ok(build::shutdown()),
        "close" => Ok(build::close(session(1)?)),
        "open" => {
            let (text, minic) = file_text(2)?;
            let request = build::open(session(1)?, &text, minic, opts.budget);
            Ok(if opts.parallel_query {
                build::with_parallel_query(request)
            } else {
                request
            })
        }
        "add" => {
            let (text, _) = file_text(2)?;
            Ok(build::add_constraints(session(1)?, &text))
        }
        "query" => {
            let names = &pos[2.min(pos.len())..];
            if names.is_empty() {
                return Err(err("client query needs at least one location name"));
            }
            let spec_of = |name: &str| {
                if opts.ptb {
                    QuerySpec::PointedToBy { name: name.into() }
                } else {
                    QuerySpec::PointsTo { name: name.into() }
                }
            };
            if names.len() == 1 && !opts.parallel {
                Ok(traced(build::query(
                    session(1)?,
                    &spec_of(&names[0]),
                    opts.budget,
                    opts.timeout_ms,
                )))
            } else {
                let specs: Vec<QuerySpec> = names.iter().map(|n| spec_of(n)).collect();
                Ok(traced(build::batch(
                    session(1)?,
                    &specs,
                    opts.parallel,
                    opts.budget,
                    opts.timeout_ms,
                )))
            }
        }
        "alias" => {
            let (a, b) = (
                pos.get(2)
                    .ok_or_else(|| err("client alias needs <a> <b>"))?,
                pos.get(3)
                    .ok_or_else(|| err("client alias needs <a> <b>"))?,
            );
            Ok(traced(build::query(
                session(1)?,
                &QuerySpec::MayAlias {
                    a: a.clone(),
                    b: b.clone(),
                },
                opts.budget,
                opts.timeout_ms,
            )))
        }
        "inspect" => {
            // Writing the events out asks for every event unless limited.
            let limit = opts.limit.or(opts.out.is_some().then_some(u64::MAX));
            let graph = opts.dot.then_some(GraphFormat::Dot);
            Ok(build::inspect(session(1)?, opts.top, limit, graph))
        }
        "snapshot" => Ok(build::snapshot(session(1)?, opts.out.as_deref())),
        "restore" => {
            let path = pos
                .get(2)
                .ok_or_else(|| err("client restore needs a server-side snapshot path"))?;
            Ok(build::restore(session(1)?, path))
        }
        "targets" => {
            let site = pos
                .get(2)
                .ok_or_else(|| err("client targets needs a call-site index"))?;
            let site: u64 = site
                .parse()
                .map_err(|_| err(format!("bad call-site index `{site}`")))?;
            Ok(traced(build::query(
                session(1)?,
                &QuerySpec::CallTargets { site },
                opts.budget,
                opts.timeout_ms,
            )))
        }
        other => Err(err(format!("unknown client operation `{other}`"))),
    }
}

/// The registry rendered as aligned `name  value` tables.
fn render_registry(obs: &Obs) -> String {
    use std::fmt::Write as _;
    let counters = obs.registry.counters();
    let gauges = obs.registry.gauges();
    let width = counters
        .iter()
        .chain(gauges.iter())
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(7)
        .max(7);
    let mut s = String::new();
    let _ = writeln!(s, "{:<width$}  {:>14}", "counter", "value");
    for (name, value) in counters {
        let _ = writeln!(s, "{name:<width$}  {:>14}", fmt_count(value));
    }
    if !gauges.is_empty() {
        let _ = writeln!(s, "{:<width$}  {:>14}", "gauge", "value");
        for (name, value) in gauges {
            let _ = writeln!(s, "{name:<width$}  {:>14}", fmt_count(value));
        }
    }
    let hists: Vec<_> = obs
        .registry
        .histograms()
        .into_iter()
        .filter(|(_, h)| h.count() > 0)
        .collect();
    if !hists.is_empty() {
        let hwidth = hists
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(9)
            .max(9);
        let _ = writeln!(
            s,
            "{:<hwidth$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (name, h) in hists {
            let _ = writeln!(
                s,
                "{name:<hwidth$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                fmt_count(h.count()),
                fmt_count(h.quantile(0.50)),
                fmt_count(h.quantile(0.90)),
                fmt_count(h.quantile(0.99)),
                fmt_count(h.max()),
            );
        }
    }
    s
}

/// Writes the run's metrics as JSONL: one `meta` line, then one line per
/// counter, gauge and profile-tree span.
fn export_jsonl(obs: &Obs, command: &str, input: Option<&str>, path: &str) -> Result<(), CliError> {
    let file =
        std::fs::File::create(path).map_err(|e| err(format!("cannot write `{path}`: {e}")))?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(file));
    let mut fields = vec![
        ("tool", JsonValue::str("ddpa")),
        ("command", JsonValue::str(command)),
    ];
    if let Some(input) = input {
        fields.push(("input", JsonValue::str(input)));
    }
    sink.emit("meta", &fields)?;
    sink.emit_registry(&obs.registry)?;
    sink.emit_profile(&obs.profiler)?;
    sink.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ddpa-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write");
        path
    }

    #[test]
    fn usage_on_no_args() {
        let e = run_to_string(&[]).expect_err("usage error");
        assert!(e.to_string().contains("usage:"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).expect("ok");
        assert!(out.contains("callgraph"));
    }

    #[test]
    fn stats_and_dump_on_minic() {
        let path = write_temp("t1.mc", "int g; void main() { int *p = &g; }");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["stats", p]).expect("stats");
        assert!(out.contains("assignments=1"));
        let out = run_to_string(&["dump", p]).expect("dump");
        assert!(out.contains("main::p = &g"));
    }

    #[test]
    fn query_on_constraints() {
        let path = write_temp("t2.cons", "p = &o\nq = p\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["query", p, "q"]).expect("query");
        assert!(out.contains("pts(q) = {o}"), "got: {out}");
        let out = run_to_string(&["query", p, "o", "--ptb"]).expect("ptb query");
        assert!(out.contains("ptb(o) = {p, q}"), "got: {out}");
    }

    #[test]
    fn query_budget_reports_unresolved() {
        let path = write_temp("t3.cons", "p = &o\nq = p\nr = q\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["query", p, "r", "--budget", "0"]).expect("query");
        assert!(out.contains("UNRESOLVED"), "got: {out}");
    }

    #[test]
    fn callgraph_command() {
        let path = write_temp("t4.cons", "fun f/0\nfp = &f\nicall fp()\ncall f()\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["callgraph", p]).expect("callgraph");
        assert!(out.contains("icall #0 -> {f}"), "got: {out}");
        assert!(out.contains("call #1 -> {f}"), "got: {out}");
        assert!(out.contains("1 resolved"), "got: {out}");
    }

    #[test]
    fn audit_command() {
        let path = write_temp("t5.cons", "x = *q\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["audit", p]).expect("audit");
        assert!(out.contains("WILD"), "got: {out}");
    }

    #[test]
    fn gen_produces_parseable_output() {
        let out = run_to_string(&["gen", "--size", "200", "--seed", "3"]).expect("gen");
        let cp = ddpa::constraints::parse_constraints(&out).expect("reparses");
        assert!(cp.num_constraints() > 100);
        let out = run_to_string(&["gen", "--minic", "--size", "200"]).expect("gen minic");
        let program = ddpa::ir::parse(&out).expect("parses");
        ddpa::ir::check(&program).expect("checks");
    }

    #[test]
    fn wide_gen_and_parallel_query_flags() {
        let wide = run_to_string(&["gen", "--wide", "--size", "400", "--seed", "5"]).expect("gen");
        assert!(wide.contains("hub = "), "hub joins the chains: {wide}");
        let cp = ddpa::constraints::parse_constraints(&wide).expect("reparses");
        assert!(cp.num_constraints() > 200);
        let path = write_temp("t12.cons", &wide);
        let p = path.to_str().expect("utf8 path");
        let seq = run_to_string(&["query", p, "hub"]).expect("sequential");
        let par = run_to_string(&["query", p, "hub", "--workers", "4"]).expect("parallel");
        assert_eq!(seq, par, "scheduler answers are bit-identical");
        let bfs = run_to_string(&["query", p, "hub", "--workers", "4", "--sched-policy", "bfs"])
            .expect("bfs");
        assert_eq!(seq, bfs);
        assert!(run_to_string(&["query", p, "hub", "--sched-policy", "lifo"]).is_err());
    }

    #[test]
    fn rejects_unknown_things() {
        assert!(run_to_string(&["frobnicate"]).is_err());
        assert!(run_to_string(&["stats", "/nonexistent/file"]).is_err());
        let path = write_temp("t6.cons", "p = &o\n");
        let p = path.to_str().expect("utf8 path");
        assert!(run_to_string(&["query", p, "missing_name"]).is_err());
        assert!(run_to_string(&["query", p, "o", "--budget", "NaN"]).is_err());
    }

    #[test]
    fn serve_rejects_the_threads_flag() {
        let e = run_to_string(&["serve", "--threads", "2"]).expect_err("no --threads flag");
        assert!(e.to_string().contains("unknown option `--threads`"), "{e}");
    }

    #[test]
    fn cs_command() {
        let path = write_temp(
            "t11.mc",
            "int a; int b; int *id(int *p) { return p; } \
             void main() { int *r1 = id(&a); int *r2 = id(&b); }",
        );
        let p = path.to_str().expect("utf8 path");
        // Context-insensitive demand query conflates.
        let out = run_to_string(&["query", p, "main::r1"]).expect("query");
        assert!(out.contains("{a, b}"), "got: {out}");
        // k=1 disambiguates.
        let out = run_to_string(&["cs", p, "main::r1", "main::r2"]).expect("cs");
        assert!(out.contains("pts(main::r1) = {a}"), "got: {out}");
        assert!(out.contains("pts(main::r2) = {b}"), "got: {out}");
        // k=0 equals context-insensitive.
        let out = run_to_string(&["cs", p, "main::r1", "--k", "0"]).expect("cs k0");
        assert!(out.contains("pts(main::r1) = {a, b}"), "got: {out}");
    }

    #[test]
    fn dot_command() {
        let path = write_temp("t10.cons", "p = &o\nq = p\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["dot", p]).expect("dot");
        assert!(out.starts_with("digraph constraints {"), "got: {out}");
    }

    #[test]
    fn stackret_command() {
        let path = write_temp(
            "t9.mc",
            "int *bad() { int local; return &local; } void main() { int *p = bad(); }",
        );
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["stackret", p]).expect("stackret");
        assert!(out.contains("`bad` may return a pointer"), "got: {out}");
        assert!(out.contains("1 function(s) flagged"), "got: {out}");
    }

    #[test]
    fn explain_command() {
        let path = write_temp("t8.cons", "p = &o\nq = p\nr = q\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["explain", p, "r", "o"]).expect("explain");
        assert!(out.contains("o ∈ pts(r)"), "got: {out}");
        assert!(out.contains("[ADDR]"), "got: {out}");
        let out = run_to_string(&["explain", p, "p", "q"]).expect("explain");
        assert!(out.contains("∉"), "got: {out}");
        assert!(run_to_string(&["explain", p, "r"]).is_err());
    }

    #[test]
    fn profile_emits_valid_jsonl_and_fire_counts() {
        let path = write_temp(
            "t12.cons",
            "fun f/0\nfp = &f\nicall fp()\np = &o\nq = p\nx = *q\n*q = p\n",
        );
        let p = path.to_str().expect("utf8 path");
        let json = write_temp("t12.jsonl", "");
        let j = json.to_str().expect("utf8 path");
        let out = run_to_string(&["profile", p, "--metrics-out", j]).expect("profile");

        // The human report shows per-Watcher fire counts and the
        // demand-vs-exhaustive work comparison.
        assert!(out.contains("demand.fires.copy_to"), "got: {out}");
        assert!(out.contains("anders.work"), "got: {out}");
        assert!(out.contains("demand work"), "got: {out}");
        assert!(out.contains("vs exhaustive work"), "got: {out}");
        assert!(
            out.contains("demand.query"),
            "span tree present, got: {out}"
        );

        // Per-query latency lands in a histogram with quantile columns.
        assert!(out.contains("demand.query.latency_us"), "got: {out}");
        assert!(out.contains("p99"), "histogram header present, got: {out}");

        // Every JSONL line is exactly one JSON object with a known kind.
        let text = std::fs::read_to_string(&json).expect("jsonl written");
        assert!(text.lines().count() > 10, "got: {text}");
        for line in text.lines() {
            ddpa::obs::validate_metrics_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(text.contains("\"kind\":\"meta\""));
        assert!(text.contains("\"kind\":\"counter\""));
        assert!(text.contains("\"kind\":\"gauge\""));
        assert!(text.contains("\"kind\":\"span\""));
        assert!(text.contains("\"kind\":\"hist\""));
        assert!(text.contains("demand.fires.copy_to"));
    }

    #[test]
    fn metrics_out_and_profile_flags() {
        let path = write_temp("t13.cons", "p = &o\nq = p\n");
        let p = path.to_str().expect("utf8 path");
        let metrics = write_temp("t13.jsonl", "");
        let m = metrics.to_str().expect("utf8 path");
        let out =
            run_to_string(&["query", p, "q", "--profile", "--metrics-out", m]).expect("query");
        assert!(out.contains("pts(q) = {o}"), "got: {out}");
        assert!(out.contains("demand.query"), "span tree shown, got: {out}");
        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        for line in text.lines() {
            ddpa::obs::validate_jsonl_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(text.contains("demand.queries"), "got: {text}");
    }

    #[test]
    fn jsonl_check_command() {
        let path = write_temp("t14.cons", "p = &o\n");
        let p = path.to_str().expect("utf8 path");
        let json = write_temp("t14.jsonl", "");
        let j = json.to_str().expect("utf8 path");
        run_to_string(&["profile", p, "--metrics-out", j]).expect("profile");
        let out = run_to_string(&["jsonl-check", j]).expect("valid export");
        assert!(out.contains("valid JSONL line"), "got: {out}");

        // A failing check names the offending line.
        let bad = write_temp("t14-bad.jsonl", "{\"kind\":\"meta\"}\nnot json\n");
        let b = bad.to_str().expect("utf8 path");
        let err = run_to_string(&["jsonl-check", b]).expect_err("invalid line rejected");
        assert!(err.to_string().contains("line 2"), "got: {err}");

        // Structurally valid JSON with an unknown kind is rejected too,
        // and the message names both the line and the kind.
        let bad_kind = write_temp(
            "t14-kind.jsonl",
            "{\"kind\":\"meta\"}\n{\"kind\":\"counter\",\"name\":\"x\",\"value\":1}\n{\"kind\":\"frobnicate\"}\n",
        );
        let b = bad_kind.to_str().expect("utf8 path");
        let err = run_to_string(&["jsonl-check", b]).expect_err("unknown kind rejected");
        assert!(err.to_string().contains("line 3"), "got: {err}");
        assert!(err.to_string().contains("unknown kind"), "got: {err}");
        assert!(err.to_string().contains("frobnicate"), "got: {err}");
    }

    /// Starts `ddpa serve` on an ephemeral port in a background thread
    /// and returns the address it bound plus the thread handle.
    fn start_serve(tag: &str) -> (String, std::thread::JoinHandle<Result<(), CliError>>) {
        start_serve_with(tag, &[])
    }

    fn start_serve_with(
        tag: &str,
        extra: &[&str],
    ) -> (String, std::thread::JoinHandle<Result<(), CliError>>) {
        let port_file = write_temp(&format!("{tag}.port"), "");
        std::fs::remove_file(&port_file).expect("clear stale port file");
        let pf = port_file.to_str().expect("utf8 path").to_string();
        let pf_thread = pf.clone();
        let extra: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
        let thread = std::thread::spawn(move || {
            let mut args: Vec<String> =
                ["serve", "--addr", "127.0.0.1:0", "--port-file", &pf_thread]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            args.extend(extra);
            let mut out = Vec::new();
            run(&args, &mut out)
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.parse::<std::net::SocketAddr>().is_ok() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server did not write its port file"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        (addr, thread)
    }

    #[test]
    fn the_cli_and_the_server_resolve_a_shared_name_alike() {
        // `@fn_f` names both `f`'s object (node 0) and the variable the
        // last two lines mention (node 4): the later node wins on both
        // paths.
        let cons = write_temp(
            "shared-name.cons",
            "fun f/0\np = &f\nq = @fn_f\n@fn_f = &o\n",
        );
        let c = cons.to_str().expect("utf8 path");
        let out = run_to_string(&["query", c, "@fn_f"]).expect("query");
        assert!(out.starts_with("pts(@fn_f) = {o}  [work"), "got: {out}");
        let e = run_to_string(&["query", c, "ghost"]).expect_err("unknown name");
        assert_eq!(
            e.to_string(),
            "no location named `ghost` (try `ddpa dump`)",
            "got: {e}"
        );

        let (addr, server) = start_serve("shared-name");
        run_to_string(&["client", "--addr", &addr, "open", "s", c]).expect("open");
        let out =
            run_to_string(&["client", "--addr", &addr, "query", "s", "@fn_f"]).expect("query");
        assert!(out.contains("\"pts\":[\"o\"]"), "got: {out}");
        let e = run_to_string(&["client", "--addr", &addr, "query", "s", "ghost"])
            .expect_err("unknown name");
        assert!(
            e.to_string()
                .contains("server error no-node: no node named \"ghost\""),
            "got: {e}"
        );
        run_to_string(&["client", "--addr", &addr, "shutdown"]).expect("shutdown");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn serve_and_client_end_to_end() {
        let (addr, server) = start_serve("t15");
        let cons = write_temp("t15.cons", "p = &o\nq = p\nr = q\n");
        let c = cons.to_str().expect("utf8 path");

        let out = run_to_string(&["client", "--addr", &addr, "ping"]).expect("ping");
        assert!(out.contains("\"ok\":true"), "got: {out}");

        let out = run_to_string(&["client", "--addr", &addr, "open", "s", c]).expect("open");
        assert!(out.contains("\"ok\":true"), "got: {out}");

        // Single query.
        let out = run_to_string(&["client", "--addr", &addr, "query", "s", "r"]).expect("query");
        assert!(out.contains("\"pts\":[\"o\"]"), "got: {out}");

        // --trace attaches the per-request trace report.
        let out = run_to_string(&["client", "--addr", &addr, "query", "s", "r", "--trace"])
            .expect("traced query");
        assert!(out.contains("\"trace\":{\"id\":"), "got: {out}");
        assert!(out.contains("\"wall_us\":"), "got: {out}");

        // Multi-name query becomes one batch.
        let out = run_to_string(&["client", "--addr", &addr, "query", "s", "p", "q", "r"])
            .expect("batch");
        assert!(out.contains("\"results\":["), "got: {out}");
        assert_eq!(out.matches("\"pts\":[\"o\"]").count(), 3, "got: {out}");

        // May-alias and incremental edit.
        let out =
            run_to_string(&["client", "--addr", &addr, "alias", "s", "p", "q"]).expect("alias");
        assert!(out.contains("\"may_alias\":true"), "got: {out}");
        let extra = write_temp("t15-extra.cons", "p = &o2\n");
        let e = extra.to_str().expect("utf8 path");
        let out = run_to_string(&["client", "--addr", &addr, "add", "s", e]).expect("add");
        assert!(out.contains("\"generation\":1"), "got: {out}");
        let out = run_to_string(&["client", "--addr", &addr, "query", "s", "r"]).expect("re-query");
        assert!(
            out.contains("\"o2\""),
            "no stale answer after edit, got: {out}"
        );

        // Server-side errors surface as nonzero exits with the code.
        let e = run_to_string(&["client", "--addr", &addr, "query", "s", "ghost"])
            .expect_err("unknown name");
        assert!(e.to_string().contains("no-node"), "got: {e}");

        let out = run_to_string(&["client", "--addr", &addr, "stats"]).expect("stats");
        assert!(out.contains("\"sessions\""), "got: {out}");
        assert!(out.contains("\"server.latency.query_us\""), "got: {out}");
        assert!(out.contains("\"kept\":"), "got: {out}");

        // The slow-query ring has retained the session's queries.
        let out = run_to_string(&["client", "--addr", &addr, "inspect", "s"]).expect("inspect");
        assert!(out.contains("\"slow\":[{"), "got: {out}");
        assert!(out.contains("\"latency_us\":"), "got: {out}");

        let out = run_to_string(&["client", "--addr", &addr, "shutdown"]).expect("shutdown");
        assert!(out.contains("\"ok\":true"), "got: {out}");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn client_requires_addr_and_valid_op() {
        assert!(run_to_string(&["client", "ping"]).is_err());
        let e = run_to_string(&["client", "--addr", "127.0.0.1:1", "frobnicate"])
            .expect_err("unknown op");
        assert!(
            e.to_string().contains("unknown client operation"),
            "got: {e}"
        );
    }

    #[test]
    fn snapshot_and_restore_commands_round_trip() {
        let path = write_temp("t16.cons", "p = &o\nq = p\nr = q\n");
        let p = path.to_str().expect("utf8 path");
        let snap = std::env::temp_dir().join("ddpa-cli-tests/t16.snap");
        let s = snap.to_str().expect("utf8 path");
        let _ = std::fs::remove_file(&snap);

        let out = run_to_string(&["snapshot", p, "--out", s]).expect("snapshot");
        assert!(out.contains("fixpoint(s)"), "got: {out}");
        assert!(snap.is_file());

        // The restored engine answers identically with zero deduction work.
        let out = run_to_string(&["restore", p, s, "r", "q"]).expect("restore");
        assert!(out.contains("restored"), "got: {out}");
        assert!(out.contains("pts(r) = {o}  [work 0]"), "got: {out}");
        assert!(out.contains("pts(q) = {o}  [work 0]"), "got: {out}");

        // A MiniC program snapshots via its canonical constraint text.
        let mc = write_temp("t16.mc", "int g; void main() { int *p = &g; }");
        let m = mc.to_str().expect("utf8 path");
        let snap2 = std::env::temp_dir().join("ddpa-cli-tests/t16b.snap");
        let s2 = snap2.to_str().expect("utf8 path");
        run_to_string(&["snapshot", m, "main::p", "--out", s2]).expect("minic snapshot");
        let out = run_to_string(&["restore", m, s2, "main::p"]).expect("minic restore");
        assert!(out.contains("pts(main::p) = {g}  [work 0]"), "got: {out}");
    }

    #[test]
    fn restore_rebinds_a_snapshot_taken_before_an_append() {
        let path = write_temp("t16c.cons", "p = &o\nq = p\nr = q\n");
        let p = path.to_str().expect("utf8 path");
        let snap = std::env::temp_dir().join("ddpa-cli-tests/t16c.snap");
        let s = snap.to_str().expect("utf8 path");
        run_to_string(&["snapshot", p, "--out", s]).expect("snapshot");
        write_temp("t16c.cons", "p = &o\nq = p\nr = q\ns = r\n");

        let out = run_to_string(&["restore", p, s, "p", "q", "r", "s"]).expect("rebinds");
        assert!(out.contains("(rebound, "), "got: {out}");
        let cold = run_to_string(&["query", p, "p", "q", "r", "s"]).expect("query");
        let sets = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("pts("))
                .map(|l| l.split("  [").next().unwrap_or(l).to_owned())
                .collect()
        };
        assert_eq!(sets(&out).len(), 4, "got: {out}");
        assert_eq!(sets(&out), sets(&cold), "restored: {out}\ncold: {cold}");
    }

    #[test]
    fn restore_refuses_corrupt_and_mismatched_snapshots() {
        let path = write_temp("t17.cons", "p = &o\n");
        let p = path.to_str().expect("utf8 path");

        // Garbage bytes are not a snapshot.
        let bad = write_temp("t17-bad.snap", "this is not a snapshot");
        let b = bad.to_str().expect("utf8 path");
        let e = run_to_string(&["restore", p, b]).expect_err("corrupt refused");
        assert!(e.to_string().contains("cannot restore"), "got: {e}");

        // A single flipped byte breaks the checksum.
        let snap = std::env::temp_dir().join("ddpa-cli-tests/t17.snap");
        let s = snap.to_str().expect("utf8 path");
        run_to_string(&["snapshot", p, "--out", s]).expect("snapshot");
        let mut bytes = std::fs::read(&snap).expect("read snapshot");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, &bytes).expect("corrupt it");
        let e = run_to_string(&["restore", p, s]).expect_err("bad crc refused");
        assert!(e.to_string().contains("corrupt snapshot"), "got: {e}");

        // A snapshot of a different program is refused by hash.
        let other = write_temp("t17-other.cons", "x = &y\n");
        let o = other.to_str().expect("utf8 path");
        run_to_string(&["snapshot", o, "--out", s]).expect("snapshot other");
        let e = run_to_string(&["restore", p, s]).expect_err("mismatch refused");
        assert!(e.to_string().contains("different program"), "got: {e}");
    }

    #[test]
    fn serve_snapshot_flags_and_client_ops() {
        let dir = std::env::temp_dir().join("ddpa-cli-tests/t18-snaps");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().expect("utf8 path").to_string();
        let (addr, server) = start_serve_with("t18", &["--snapshot-dir", &d, "--restore"]);
        let cons = write_temp("t18.cons", "p = &o\nq = p\nr = q\n");
        let c = cons.to_str().expect("utf8 path");

        run_to_string(&["client", "--addr", &addr, "open", "s", c]).expect("open");
        run_to_string(&["client", "--addr", &addr, "query", "s", "r"]).expect("query");
        let out =
            run_to_string(&["client", "--addr", &addr, "snapshot", "s"]).expect("snapshot op");
        assert!(out.contains("\"entries\":"), "got: {out}");
        assert!(
            dir.join("s.snap").is_file(),
            "snapshot landed in --snapshot-dir"
        );

        // Close and re-open: --restore warm-starts the session from disk.
        run_to_string(&["client", "--addr", &addr, "close", "s"]).expect("close");
        let out = run_to_string(&["client", "--addr", &addr, "open", "s", c]).expect("re-open");
        assert!(out.contains("\"restored\":"), "got: {out}");
        assert!(!out.contains("\"restored\":0"), "warm re-open, got: {out}");

        // Explicit restore into a second session over the same program.
        let snap_path = dir.join("s.snap");
        let sp = snap_path.to_str().expect("utf8 path");
        run_to_string(&["client", "--addr", &addr, "open", "twin", c]).expect("open twin");
        let out =
            run_to_string(&["client", "--addr", &addr, "restore", "twin", sp]).expect("restore op");
        assert!(out.contains("\"installed\":"), "got: {out}");

        run_to_string(&["client", "--addr", &addr, "shutdown"]).expect("shutdown");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_cross_between_cli_and_server_and_answer_like_a_cold_engine() {
        // Lowering numbers list.mc's nodes differently from the parse of
        // its printout, so each side must stamp and read the same ids.
        let mc = write_temp("t28-list.mc", include_str!("../../../samples/list.mc"));
        let m = mc.to_str().expect("utf8 path");
        let cp = load_program(m, None).expect("compiles");
        let mut cold = DemandEngine::new(&cp, DemandConfig::default());
        let (mut names, mut expected) = (Vec::new(), Vec::new());
        for n in cp.node_ids() {
            let mut set: Vec<String> = cold
                .points_to(n)
                .pts
                .iter()
                .map(|&t| cp.display_node(t))
                .collect();
            set.sort();
            names.push(cp.display_node(n));
            expected.push(set);
        }
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        // `pts(name) = {a, b}  [work N]` lines, as sorted sets.
        let restored = |out: &str| -> Vec<Vec<String>> {
            let sets = out.lines().filter_map(|l| l.split_once(" = {"));
            sets.map(|(_, rest)| {
                let (set, _) = rest.rsplit_once('}').expect("closing brace");
                let mut set: Vec<String> = set.split(", ").map(str::to_owned).collect();
                set.retain(|n| !n.is_empty());
                set.sort();
                set
            })
            .collect()
        };
        // A batch response's `pts` arrays, as sorted sets.
        let served = |out: &str| -> Vec<Vec<String>> {
            let v = ddpa::obs::parse_json(out.trim()).expect("one response line");
            let results = v.get("results").and_then(JsonValue::as_array);
            let results = results.expect("results");
            results
                .iter()
                .map(|r| {
                    let pts = r.get("pts").and_then(JsonValue::as_array).expect("pts");
                    let mut set: Vec<String> = pts
                        .iter()
                        .map(|n| n.as_str().expect("name").to_owned())
                        .collect();
                    set.sort();
                    set
                })
                .collect()
        };
        let (addr, server) = start_serve("t28");
        let client = |args: &[&str]| {
            let mut all = vec!["client", "--addr", &addr];
            all.extend_from_slice(args);
            run_to_string(&all).expect("client request")
        };
        let query = |session: &str| {
            let mut args = vec!["query", session];
            args.extend_from_slice(&names);
            client(&args)
        };

        // CLI snapshot, restored into a served session.
        let a = std::env::temp_dir().join("ddpa-cli-tests/t28-cli.snap");
        let a = a.to_str().expect("utf8 path");
        run_to_string(&["snapshot", m, "--out", a]).expect("cli snapshot");
        client(&["open", "s", m]);
        let out = client(&["restore", "s", a]);
        assert!(!out.contains("\"installed\":0,"), "got: {out}");
        assert_eq!(served(&query("s")), expected, "cli snapshot, served");

        // CLI snapshot, restored by the CLI against the file's dump.
        let dump = write_temp("t28-dump.cons", &run_to_string(&["dump", m]).expect("dump"));
        let mut args = vec!["restore", dump.to_str().expect("utf8 path"), a];
        args.extend_from_slice(&names);
        let out = run_to_string(&args).expect("restore against the dump");
        assert_eq!(restored(&out), expected, "cli snapshot, dump: {out}");

        // Server snapshot of a cold session, restored by the CLI.
        let c = std::env::temp_dir().join("ddpa-cli-tests/t28-served.snap");
        let c = c.to_str().expect("utf8 path");
        client(&["open", "t", m]);
        assert_eq!(served(&query("t")), expected, "cold served session");
        client(&["snapshot", "t", "--out", c]);
        let mut args = vec!["restore", m, c];
        args.extend_from_slice(&names);
        let out = run_to_string(&args).expect("restore a served snapshot");
        assert_eq!(restored(&out), expected, "served snapshot, cli: {out}");

        client(&["shutdown"]);
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn query_and_served_open_reject_an_unchecked_program_alike() {
        let mc = write_temp(
            "t30-unchecked.mc",
            "int g;\nint *id(int *p) { return p; }\n\
             void main() { int x; int *q = &g; int *r = id(q, q); int *s = *x; }\n",
        );
        let m = mc.to_str().expect("utf8 path");
        let local = run_to_string(&["query", m, "main::r"]).expect_err("check rejects it");
        let local = local.to_string();
        let first = local.strip_prefix(&format!("{m}: ")).expect("path prefix");
        let first = first.lines().next().expect("a first error");
        assert!(first.contains("`id` takes 1 argument(s)"), "{local}");
        assert_eq!(local.lines().count(), 2, "both check errors: {local}");

        let (addr, server) = start_serve("t30");
        let served = run_to_string(&["client", "--addr", &addr, "open", "s", m])
            .expect_err("the server rejects it too")
            .to_string();
        assert!(served.starts_with("server error bad-program: "), "{served}");
        assert!(served.contains(first), "{served}");
        run_to_string(&["client", "--addr", &addr, "shutdown"]).expect("shutdown");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn top_and_views_against_live_server() {
        let (addr, server) = start_serve("t19");
        let cons = write_temp("t19.cons", "p = &a\np = &b\nq = p\nr = *q\n*q = p\n");
        let c = cons.to_str().expect("utf8 path");
        run_to_string(&["client", "--addr", &addr, "open", "s", c]).expect("open");
        run_to_string(&["client", "--addr", &addr, "query", "s", "r"]).expect("query");

        // One `top` frame shows server health, the engine counters, the
        // critical-path summary, and a hottest-goals table.
        let out = run_to_string(&["top", "s", "--addr", &addr, "--iters", "1", "--top", "5"])
            .expect("top");
        assert!(out.contains("ddpa top"), "got: {out}");
        assert!(out.contains("[3 request(s), 0 error(s)"), "got: {out}");
        assert!(out.contains("over 1 query(s)"), "got: {out}");
        assert!(out.contains("critical path: work"), "got: {out}");
        assert!(out.contains("parallelism headroom"), "got: {out}");
        assert!(out.contains("hit rate"), "got: {out}");
        assert!(
            out.contains("pts(") || out.contains("ptb("),
            "hottest goals listed, got: {out}"
        );

        // The session view: hottest goals, the critical path, and on
        // request the goal graph as Graphviz DOT.
        let out = run_to_string(&["client", "--addr", &addr, "inspect", "s", "--top", "2"])
            .expect("client inspect");
        assert!(out.contains("\"hottest\":["), "got: {out}");
        assert!(out.contains("\"critical_path\":"), "got: {out}");
        assert!(!out.contains("\"dot\":"), "got: {out}");
        let out = run_to_string(&["client", "--addr", &addr, "inspect", "s", "--dot"])
            .expect("inspect dot");
        assert!(out.contains("\"dot\":\"digraph goals {"), "got: {out}");
        assert!(out.contains("->"), "got: {out}");

        // Flight events written with --out validate as a metrics export.
        let flight = write_temp("t19-flight.jsonl", "");
        let f = flight.to_str().expect("utf8 path");
        run_to_string(&["client", "--addr", &addr, "inspect", "s", "--out", f])
            .expect("flight export");
        let text = std::fs::read_to_string(&flight).expect("flight written");
        assert!(!text.is_empty(), "recorder captured the query");
        assert!(text.contains("\"kind\":\"flight\""), "got: {text}");
        run_to_string(&["jsonl-check", f]).expect("flight export validates");

        // --limit caps the events.
        let out = run_to_string(&["client", "--addr", &addr, "inspect", "s", "--limit", "3"])
            .expect("limited events");
        let v = ddpa::obs::parse_json(out.trim()).expect("one response line");
        let events = v
            .get("events")
            .and_then(JsonValue::as_array)
            .expect("events");
        assert!(!events.is_empty() && events.len() <= 3, "got: {out}");

        // The server view's metrics are a valid JSONL export covering the
        // server; its sessions carry their flight counts.
        let metrics = write_temp("t19-metrics.jsonl", "");
        let m = metrics.to_str().expect("utf8 path");
        let out = run_to_string(&["client", "--addr", &addr, "stats", "--out", m]).expect("stats");
        assert!(out.contains("\"flight_events\":"), "got: {out}");
        let text = std::fs::read_to_string(&metrics).expect("metrics written");
        assert!(text.contains("\"server.requests\""), "got: {text}");
        run_to_string(&["jsonl-check", m]).expect("metrics validate");

        run_to_string(&["client", "--addr", &addr, "shutdown"]).expect("shutdown");
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn solve_named_nodes() {
        let path = write_temp("t7.cons", "p = &o\nq = p\n");
        let p = path.to_str().expect("utf8 path");
        let out = run_to_string(&["solve", p, "q"]).expect("solve");
        assert_eq!(out.trim(), "pts(q) = {o}");
    }
}
