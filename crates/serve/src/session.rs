//! A server session: one loaded [`ConstraintProgram`] plus a warm
//! [`DemandEngine`] whose memo table persists across requests.
//!
//! # Incremental edits
//!
//! The session's engine owns the program. A plain `add-constraints`
//! edit is appended to it in place ([`DemandEngine::append_constraints`]),
//! which keeps every goal the edit did not dirty and bumps the
//! generation counter. An edit that declares a function or field is
//! re-parsed with the whole source into a new program instead, which the
//! engine takes over with [`DemandEngine::reload_incremental`]. Responses
//! are stamped with the generation so clients can detect which answers
//! predate an edit.
//!
//! # Timeouts
//!
//! A request's deadline is handed to the engine with its budget
//! ([`DemandEngine::set_deadline`]): the query's budget reads the clock
//! every few thousand units of work and stops the query, like an
//! exhausted budget, once the deadline has passed. So a served query is
//! one engine call whatever its deadline, and counts once.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use ddpa_constraints::{CallSiteId, ConstraintProgram, FuncId, NodeId};
use ddpa_demand::{
    DemandConfig, DemandEngine, EditStats, EngineStats, QueryResult, QueryTrace, SchedPolicy,
    TraceReport,
};

use crate::proto::{ErrorCode, ProtoError, QuerySpec};

/// A query spec with its names resolved against a session's program.
#[derive(Clone, Copy, Debug)]
pub enum ResolvedSpec {
    PointsTo(NodeId),
    PointedToBy(NodeId),
    MayAlias(NodeId, NodeId),
    CallTargets(CallSiteId),
}

/// The answer to one query, with node and function ids where
/// [`QueryAnswer`] has names. The server renders it straight from the
/// session's [`NameTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdAnswer {
    /// `points-to` / `pointed-to-by`: a set of nodes, sorted by id.
    Set {
        nodes: Vec<NodeId>,
        complete: bool,
        work: u64,
        timed_out: bool,
    },
    /// `may-alias`.
    Alias {
        may_alias: bool,
        resolved: bool,
        work: u64,
        timed_out: bool,
    },
    /// `call-targets`: a set of functions.
    Targets {
        funcs: Vec<FuncId>,
        resolved: bool,
        work: u64,
        timed_out: bool,
    },
}

impl IdAnswer {
    /// Whether the deadline expired before the answer was exact.
    pub fn timed_out(&self) -> bool {
        match self {
            IdAnswer::Set { timed_out, .. }
            | IdAnswer::Alias { timed_out, .. }
            | IdAnswer::Targets { timed_out, .. } => *timed_out,
        }
    }

    /// The answer with display names from `cp`, the program its ids
    /// index.
    pub fn named(self, cp: &ConstraintProgram) -> QueryAnswer {
        match self {
            IdAnswer::Set {
                nodes,
                complete,
                work,
                timed_out,
            } => QueryAnswer::Set {
                names: nodes.iter().map(|&n| cp.display_node(n)).collect(),
                complete,
                work,
                timed_out,
            },
            IdAnswer::Alias {
                may_alias,
                resolved,
                work,
                timed_out,
            } => QueryAnswer::Alias {
                may_alias,
                resolved,
                work,
                timed_out,
            },
            IdAnswer::Targets {
                funcs,
                resolved,
                work,
                timed_out,
            } => QueryAnswer::Targets {
                names: funcs
                    .iter()
                    .map(|&f| cp.interner().resolve(cp.func(f).name).to_owned())
                    .collect(),
                resolved,
                work,
                timed_out,
            },
        }
    }
}

/// Every node's display name and every function's name, JSON-escaped and
/// quoted, indexed by id.
///
/// Built at `open`, and extended by each edit with the names of the
/// nodes it added, so a served answer is rendered by copying slices: no
/// allocation per name, and no need for the program (or the session
/// lock) while rendering.
#[derive(Clone, Debug)]
pub struct NameTable {
    nodes: QuotedNames,
    funcs: QuotedNames,
}

/// Quoted names in one buffer: entry `i` is `text[bounds[i]..bounds[i + 1]]`.
#[derive(Clone, Debug)]
struct QuotedNames {
    text: String,
    bounds: Vec<usize>,
}

impl QuotedNames {
    fn with_capacity(entries: usize) -> Self {
        let mut bounds = Vec::with_capacity(entries + 1);
        bounds.push(0);
        QuotedNames {
            text: String::new(),
            bounds,
        }
    }

    fn push(&mut self, name: &str) {
        ddpa_obs::quote_into(&mut self.text, name);
        self.bounds.push(self.text.len());
    }

    fn get(&self, i: usize) -> &str {
        &self.text[self.bounds[i]..self.bounds[i + 1]]
    }
}

impl NameTable {
    /// The names of every node and function of `cp`.
    fn new(cp: &ConstraintProgram) -> Self {
        let mut table = NameTable {
            nodes: QuotedNames::with_capacity(cp.num_nodes()),
            funcs: QuotedNames::with_capacity(cp.funcs().len()),
        };
        table.extend(cp, 0);
        for f in cp.funcs().iter() {
            table.funcs.push(cp.interner().resolve(f.name));
        }
        table
    }

    /// Adds the nodes of `cp` from id `from` on, in id order.
    fn extend(&mut self, cp: &ConstraintProgram, from: usize) {
        let mut name = String::new();
        for n in (from..cp.num_nodes()).map(|i| NodeId::from_u32(i as u32)) {
            name.clear();
            cp.write_node(&mut name, n);
            self.nodes.push(&name);
        }
    }

    /// `node`'s display name as a quoted JSON string.
    pub fn node(&self, node: NodeId) -> &str {
        self.nodes.get(node.as_u32() as usize)
    }

    /// `func`'s name as a quoted JSON string.
    pub fn func(&self, func: FuncId) -> &str {
        self.funcs.get(func.as_u32() as usize)
    }
}

/// The answer to one query, ready for rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// `points-to` / `pointed-to-by`: a set of node display names.
    Set {
        names: Vec<String>,
        complete: bool,
        work: u64,
        timed_out: bool,
    },
    /// `may-alias`.
    Alias {
        may_alias: bool,
        resolved: bool,
        work: u64,
        timed_out: bool,
    },
    /// `call-targets`: a set of function names.
    Targets {
        names: Vec<String>,
        resolved: bool,
        work: u64,
        timed_out: bool,
    },
}

impl QueryAnswer {
    /// Whether the deadline expired before the answer was exact.
    pub fn timed_out(&self) -> bool {
        match self {
            QueryAnswer::Set { timed_out, .. }
            | QueryAnswer::Alias { timed_out, .. }
            | QueryAnswer::Targets { timed_out, .. } => *timed_out,
        }
    }
}

/// What [`Session::restore_snapshot`] did.
pub use ddpa_snap::RestoreStats;

/// Runs one resolved query on `engine` under the budget and deadline set
/// on it. An incomplete answer the deadline stopped is `timed_out`.
fn run_resolved(engine: &mut DemandEngine<'_>, spec: ResolvedSpec) -> IdAnswer {
    let set = |engine: &DemandEngine<'_>, r: QueryResult| IdAnswer::Set {
        timed_out: engine.timed_out() && !r.complete,
        nodes: r.pts,
        complete: r.complete,
        work: r.work,
    };
    match spec {
        ResolvedSpec::PointsTo(n) => {
            let r = engine.points_to(n);
            set(engine, r)
        }
        ResolvedSpec::PointedToBy(n) => {
            let r = engine.pointed_to_by(n);
            set(engine, r)
        }
        ResolvedSpec::MayAlias(a, b) => {
            let r = engine.may_alias(a, b);
            IdAnswer::Alias {
                may_alias: r.may_alias,
                resolved: r.resolved,
                work: r.work,
                timed_out: engine.timed_out() && !r.resolved,
            }
        }
        ResolvedSpec::CallTargets(cs) => {
            let r = engine.call_targets(cs);
            IdAnswer::Targets {
                timed_out: engine.timed_out() && !r.resolved,
                funcs: r.targets,
                resolved: r.resolved,
                work: r.work,
            }
        }
    }
}

/// One loaded program with a warm demand engine.
pub struct Session {
    /// The warm engine, which owns the loaded program
    /// ([`Session::program`]). Only [`Session::add_constraints`] edits
    /// or replaces that program.
    engine: DemandEngine<'static>,
    /// Canonical constraint text of the program: `add-constraints`
    /// appends to it, and the program is always
    /// `parse_constraints(source)`.
    source: String,
    /// Number of lines in `source`, so an appended edit's parse errors
    /// name lines of the whole text.
    lines: usize,
    /// The escaped names answers are rendered from. Edits extend it
    /// copy-on-write ([`Arc::make_mut`]), so a renderer holding a copy of
    /// the `Arc` keeps the names its answer's ids index.
    name_table: Arc<NameTable>,
    /// Default deduction budget for queries on this session.
    default_budget: Option<u64>,
    /// Frame-scheduler width for parallel queries (1 = scheduler off).
    workers: usize,
    /// Session default for intra-query parallelism: applied when a query
    /// request carries no `parallel_query` override.
    parallel_default: bool,
    /// How the most recent [`Session::query_ids`] was scheduled, when the
    /// request asked for parallelism: `"parallel"` (frame scheduler ran)
    /// or `"sequential-fallback"` (the sequential engine served it —
    /// budgeted, deadline-expired, single-worker, or a cache hit).
    /// `None` when the request didn't ask for parallelism.
    last_sched: Option<&'static str>,
}

// Compile-time proof that sessions may move between connection threads.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("nodes", &self.program().num_nodes())
            .field("constraints", &self.program().num_constraints())
            .field("generation", &self.engine.generation())
            .finish()
    }
}

impl Session {
    /// Parses `text` (constraint text, or MiniC when `minic`) and opens a
    /// session over its canonical form
    /// ([`ddpa_constraints::canonicalize`]): edits append to `source` and
    /// to the live program, which stay in step only if the program is
    /// `parse(source)`. Parses once when `text` is already printed
    /// constraint text, twice otherwise.
    pub fn open(text: &str, minic: bool, default_budget: Option<u64>) -> Result<Self, ProtoError> {
        let cp = parse_program(text, minic)?;
        let (cp, source) = ddpa_constraints::canonicalize(cp, (!minic).then_some(text))
            .map_err(|e| ProtoError::new(ErrorCode::BadProgram, e.to_string()))?;
        let name_table = Arc::new(NameTable::new(&cp));
        let engine = DemandEngine::new(cp, DemandConfig::default());
        Ok(Session {
            engine,
            // The printout ends every line with `\n`.
            lines: source.bytes().filter(|&b| b == b'\n').count(),
            source,
            name_table,
            default_budget,
            workers: 1,
            parallel_default: false,
            last_sched: None,
        })
    }

    /// Configures intra-query parallelism: the frame-scheduler width and
    /// policy (from the server's `--workers`/`--sched-policy` knobs) plus
    /// the session's `parallel_query` default from `open`.
    pub fn with_parallel(mut self, workers: usize, policy: SchedPolicy, default_on: bool) -> Self {
        self.workers = workers.max(1);
        self.parallel_default = default_on;
        self.engine.set_sched_policy(policy);
        self
    }

    /// The loaded program.
    pub fn program(&self) -> &ConstraintProgram {
        self.engine.program()
    }

    /// The canonical constraint text of the loaded program.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Invalidation generation: bumped by every [`Session::add_constraints`].
    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }

    /// Snapshot of the warm engine's counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Opens a per-request trace bracket on the session's engine.
    /// Frame-scheduler workers share the engine's [`Obs`](ddpa_obs::Obs),
    /// so the bracket captures their work too.
    pub fn begin_trace(&self, id: impl Into<String>) -> QueryTrace {
        self.engine.begin_trace(id)
    }

    /// Closes a trace bracket opened by [`Session::begin_trace`].
    pub fn finish_trace(&self, trace: QueryTrace) -> TraceReport {
        trace.finish(&self.engine)
    }

    /// Number of memoized subgoals currently tabled.
    pub fn tabled_goals(&self) -> usize {
        self.engine.tabled_goals()
    }

    /// The warm engine, for the read-only views (`inspect`).
    pub fn engine(&self) -> &DemandEngine<'static> {
        &self.engine
    }

    /// Captures the session's completed fixpoints — tabled, or staged by
    /// a restore and not yet touched — as a snapshot, stamped with the
    /// engine's generation and the session's canonical program text.
    pub fn export_snapshot(&self) -> ddpa_snap::Snapshot {
        ddpa_snap::Snapshot::capture(&self.engine, self.source.as_str())
    }

    /// Warm-starts the session from a snapshot ([`ddpa_snap::restore`],
    /// which rebinds a snapshot taken before an `add-constraints` edit).
    /// An owned snapshot's entries move into the engine; a borrowed
    /// one's are copied. A refusal is [`ErrorCode::Snapshot`].
    pub fn restore_snapshot<'a>(
        &mut self,
        snapshot: impl Into<Cow<'a, ddpa_snap::Snapshot>>,
    ) -> Result<RestoreStats, ProtoError> {
        ddpa_snap::restore(&mut self.engine, &self.source, snapshot.into())
            .map_err(|e| ProtoError::new(ErrorCode::Snapshot, e.to_string()))
    }

    /// Appends constraint text to the session's program.
    ///
    /// A plain edit is appended to the live program in place
    /// ([`ddpa_constraints::append_constraints`]), in time proportional
    /// to the edit; its diff is read off the appended lines, and only the
    /// transitively dirtied goals are invalidated
    /// ([`DemandEngine::reload_incremental`]) — everything whose support
    /// set misses the edit stays warm. An edit that declares a `fun` or
    /// `field` renumbers ids, so the combined source is re-parsed and
    /// diffed whole, which falls back to full invalidation. The
    /// generation is bumped either way. On a parse error the session is
    /// unchanged. Returns what the edit did to the memoized state.
    pub fn add_constraints(&mut self, extra: &str) -> Result<EditStats, ProtoError> {
        if ddpa_constraints::has_declarations(extra) {
            return self.reparse_with(extra);
        }
        let old_nodes = self.program().num_nodes();
        let stats = self
            .engine
            .append_constraints(extra, self.lines)
            .map_err(|e| ProtoError::new(ErrorCode::BadProgram, e.to_string()))?;
        Arc::make_mut(&mut self.name_table).extend(self.engine.program(), old_nodes);
        self.push_source(extra);
        Ok(stats)
    }

    /// The declaration path of [`Session::add_constraints`]: re-parses the
    /// combined source into a new program and diffs it against the live
    /// one.
    fn reparse_with(&mut self, extra: &str) -> Result<EditStats, ProtoError> {
        let (len, lines) = (self.source.len(), self.lines);
        self.push_source(extra);
        let cp = match parse_program(&self.source, false) {
            Ok(cp) => cp,
            Err(e) => {
                self.source.truncate(len);
                self.lines = lines;
                return Err(e);
            }
        };
        let diff = ddpa_constraints::diff_programs(self.program(), &cp);
        let stats = self.engine.reload_incremental(cp, &diff);
        self.name_table = Arc::new(NameTable::new(self.engine.program()));
        Ok(stats)
    }

    /// Appends an applied edit's text to `source`, on a line of its own.
    fn push_source(&mut self, extra: &str) {
        if !self.source.is_empty() && !self.source.ends_with('\n') {
            self.source.push('\n');
        }
        self.source.push_str(extra);
        self.lines += extra.lines().count();
    }

    /// Resolves a spec's names/indices against the loaded program: a
    /// name is the node [`ConstraintProgram::node_named`] finds.
    pub fn resolve(&self, spec: &QuerySpec) -> Result<ResolvedSpec, ProtoError> {
        let node = |name: &str| -> Result<NodeId, ProtoError> {
            self.program().node_named(name).ok_or_else(|| {
                ProtoError::new(ErrorCode::NoNode, format!("no node named {name:?}"))
            })
        };
        match spec {
            QuerySpec::PointsTo { name } => Ok(ResolvedSpec::PointsTo(node(name)?)),
            QuerySpec::PointedToBy { name } => Ok(ResolvedSpec::PointedToBy(node(name)?)),
            QuerySpec::MayAlias { a, b } => Ok(ResolvedSpec::MayAlias(node(a)?, node(b)?)),
            QuerySpec::CallTargets { site } => {
                let sites = self.program().callsites().len();
                if *site >= sites as u64 {
                    return Err(ProtoError::new(
                        ErrorCode::NoNode,
                        format!("call site {site} out of range (program has {sites})"),
                    ));
                }
                Ok(ResolvedSpec::CallTargets(CallSiteId::from_u32(
                    *site as u32,
                )))
            }
        }
    }

    /// Answers one query on the session's warm engine.
    ///
    /// `budget` overrides the session default; `deadline` bounds
    /// wall-clock time.
    pub fn query(
        &mut self,
        spec: ResolvedSpec,
        budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> QueryAnswer {
        self.query_opt(spec, budget, deadline, None)
    }

    /// [`Session::query`] with a per-request `parallel_query` override
    /// (`None` inherits the session default).
    pub fn query_opt(
        &mut self,
        spec: ResolvedSpec,
        budget: Option<u64>,
        deadline: Option<Instant>,
        parallel: Option<bool>,
    ) -> QueryAnswer {
        self.query_ids(spec, budget, deadline, parallel)
            .named(self.program())
    }

    /// [`Session::query_opt`] without the names: answers carry node and
    /// function ids, to be rendered through [`Session::name_table`].
    ///
    /// A parallel query runs on the frame scheduler only when no budget
    /// applies (neither per-request nor session default): a partial
    /// answer needs the sequential engine's resumption guarantee. The
    /// scheduler runs each query to its fixpoint, so a deadline is checked
    /// between queries but cannot preempt one mid-flight (documented in
    /// `docs/SERVER.md`).
    pub fn query_ids(
        &mut self,
        spec: ResolvedSpec,
        budget: Option<u64>,
        deadline: Option<Instant>,
        parallel: Option<bool>,
    ) -> IdAnswer {
        let budget = budget.or(self.default_budget);
        let requested = parallel.unwrap_or(self.parallel_default);
        let parallel = requested && self.workers > 1;
        // An expired deadline is served on the sequential path, which
        // answers from the memo table without deducing; any other
        // unbudgeted parallel query runs on the scheduler, to its fixpoint.
        let scheduled = parallel && budget.is_none() && deadline.is_none_or(|d| Instant::now() < d);
        self.engine.set_budget(budget);
        self.engine
            .set_deadline(if scheduled { None } else { deadline });
        self.engine
            .set_workers(if scheduled { self.workers } else { 1 });
        let answer = run_resolved(&mut self.engine, spec);
        // Report how a parallelism-requesting query was actually
        // scheduled, so budget/deadline/cache fallbacks are never silent.
        self.last_sched = if !requested {
            None
        } else if self.engine.last_query_parallel() {
            Some("parallel")
        } else {
            Some("sequential-fallback")
        };
        answer
    }

    /// The escaped names of the current program, for rendering answers
    /// after the session lock is released. An edit installs a new table;
    /// the returned one stays valid for answers computed before it.
    pub fn name_table(&self) -> Arc<NameTable> {
        Arc::clone(&self.name_table)
    }

    /// How the most recent [`Session::query_ids`] was scheduled:
    /// `Some("parallel")` when the frame scheduler ran,
    /// `Some("sequential-fallback")` when parallelism was requested but
    /// the sequential engine served the answer (budgeted,
    /// deadline-expired, single-worker, or a cache hit), `None` when the
    /// request didn't ask for parallelism.
    pub fn last_sched(&self) -> Option<&'static str> {
        self.last_sched
    }
}

fn parse_program(text: &str, minic: bool) -> Result<ConstraintProgram, ProtoError> {
    let bad = |e: String| ProtoError::new(ErrorCode::BadProgram, e);
    if minic {
        let ast = ddpa_ir::parse(text).map_err(|e| bad(e.to_string()))?;
        ddpa_constraints::lower(&ast).map_err(|e| bad(e.to_string()))
    } else {
        ddpa_constraints::parse_constraints(text).map_err(|e| bad(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_names(answer: &QueryAnswer) -> Vec<String> {
        match answer {
            QueryAnswer::Set { names, .. } => names.clone(),
            other => panic!("expected a set answer, got {other:?}"),
        }
    }

    #[test]
    fn open_query_and_edit() {
        let mut s = Session::open("p = &o\nq = p\n", false, None).expect("valid program");
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: "q".into() })
            .expect("q exists");
        let a = s.query(spec, None, None);
        assert_eq!(set_names(&a), vec!["o"]);
        assert_eq!(s.generation(), 0);

        s.add_constraints("p = &o2\n").expect("valid edit");
        assert_eq!(s.generation(), 1);
        // Names were re-indexed against the new program; re-resolve.
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: "q".into() })
            .expect("q still exists");
        let a = s.query(spec, None, None);
        assert_eq!(set_names(&a), vec!["o", "o2"], "no stale memo after edit");
    }

    #[test]
    fn unchecked_minic_is_a_bad_program() {
        // Lowered unchecked, this program answered `pts(main::r) = {g}`.
        let repro = "int g;\nint *id(int *p) { return p; }\n\
                     void main() { int x; int *q = &g; int *r = id(q, q); int *s = *x; }\n";
        let err = Session::open(repro, true, None).expect_err("check rejects it");
        assert_eq!(err.code, ErrorCode::BadProgram);
        assert!(
            err.message
                .contains("`id` takes 1 argument(s) but 2 were supplied"),
            "{}",
            err.message
        );
    }

    #[test]
    fn bad_edit_leaves_session_unchanged() {
        let mut s = Session::open("p = &o\nq = p\n", false, None).expect("valid program");
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: "q".into() })
            .expect("q resolves");
        assert_eq!(set_names(&s.query(spec, None, None)), vec!["o"]);
        let state = |s: &Session| (s.generation(), s.tabled_goals(), s.program().num_nodes());
        let warm = state(&s);
        assert!(warm.1 > 0, "the query tabled goals");
        // A failed plain append (edits the program in place), then a
        // failed declaration edit (re-parses the whole source).
        for bad in ["oops", "fun f/1\noops"] {
            let err = s.add_constraints(bad).expect_err("parse error");
            assert_eq!(err.code, ErrorCode::BadProgram, "{bad:?}");
            assert_eq!(state(&s), warm, "{bad:?}");
            assert_eq!(s.source(), "p = &o\nq = p\n", "{bad:?}");
            let again = s.query(spec, None, None);
            assert!(
                matches!(&again, QueryAnswer::Set { names, work: 0, .. } if names == &["o"]),
                "{bad:?} left the memo cold or wrong: {again:?}"
            );
        }
    }

    #[test]
    fn minic_sessions_canonicalize_and_accept_edits() {
        let mut s = Session::open(
            "int g; void main() { int *p = &g; int *q = p; }",
            true,
            None,
        )
        .expect("valid MiniC");
        let spec = s
            .resolve(&QuerySpec::PointsTo {
                name: "main::q".into(),
            })
            .expect("main::q exists");
        assert_eq!(set_names(&s.query(spec, None, None)), vec!["g"]);
        // MiniC sessions accept *constraint-text* edits thanks to
        // canonicalization through the printer.
        s.add_constraints("main::q = &g\n")
            .expect("constraint edit on MiniC session");
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn resolve_reports_missing_names_and_sites() {
        let s = Session::open("p = &o\n", false, None).expect("valid program");
        let err = s
            .resolve(&QuerySpec::PointsTo {
                name: "ghost".into(),
            })
            .expect_err("no such node");
        assert_eq!(err.code, ErrorCode::NoNode);
        let err = s
            .resolve(&QuerySpec::CallTargets { site: 0 })
            .expect_err("no call sites");
        assert_eq!(err.code, ErrorCode::NoNode);
    }

    #[test]
    fn may_alias_and_deadline_paths() {
        let mut s = Session::open("p = &o\nq = p\nr = &u\n", false, None).expect("valid");
        let alias = s
            .resolve(&QuerySpec::MayAlias {
                a: "p".into(),
                b: "q".into(),
            })
            .expect("resolvable");
        match s.query(alias, None, None) {
            QueryAnswer::Alias {
                may_alias,
                resolved,
                ..
            } => {
                assert!(may_alias);
                assert!(resolved);
            }
            other => panic!("expected alias answer, got {other:?}"),
        }
        // An already-expired deadline still serves the (now memoized)
        // answer, and does not report a timeout for complete answers.
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: "q".into() })
            .expect("resolvable");
        let a = s.query(spec, None, Some(past));
        assert_eq!(set_names(&a), vec!["o"]);
        assert!(!a.timed_out(), "memoized answers beat expired deadlines");
        // A cold query under an expired deadline reports the timeout.
        let mut cold = Session::open("p = &o\nq = p\n", false, None).expect("valid");
        let spec = cold
            .resolve(&QuerySpec::PointsTo { name: "q".into() })
            .expect("resolvable");
        let a = cold.query(spec, None, Some(past));
        assert!(a.timed_out(), "cold query under expired deadline times out");
    }

    #[test]
    fn budget_slicing_resumes_to_completion() {
        // A long copy chain: a query under a deadline converges, and an
        // explicit budget still applies.
        let mut text = String::from("v0 = &obj\n");
        for i in 1..200 {
            text.push_str(&format!("v{} = v{}\n", i, i - 1));
        }
        let mut s = Session::open(&text, false, None).expect("valid chain");
        let spec = s
            .resolve(&QuerySpec::PointsTo {
                name: "v199".into(),
            })
            .expect("resolvable");
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let a = s.query(spec, None, Some(deadline));
        assert_eq!(set_names(&a), vec!["obj"]);
        assert!(!a.timed_out());
        // And an explicit budget is still honoured under slicing: a
        // 3-unit budget cannot resolve a 200-copy chain in one request.
        let mut cold = Session::open(&text, false, None).expect("valid chain");
        let spec = cold
            .resolve(&QuerySpec::PointsTo {
                name: "v199".into(),
            })
            .expect("resolvable");
        match cold.query(spec, Some(3), Some(deadline)) {
            QueryAnswer::Set { complete, .. } => assert!(!complete, "tiny budget stays partial"),
            other => panic!("expected set answer, got {other:?}"),
        }
    }

    #[test]
    fn a_deadline_does_not_split_a_query() {
        // Serve every node of a cycle-dominated program under a far
        // deadline and with none: the first queries into its chained
        // copy rings cost more than a stride of work between clock reads.
        let cp = ddpa_gen::generate_cyclic(&ddpa_gen::CyclicConfig::sized(1, 24));
        let text = ddpa_constraints::print_constraints(&cp);
        let mut timed = Session::open(&text, false, None).expect("valid constraints");
        let mut plain = Session::open(&text, false, None).expect("valid constraints");
        let ptrs: Vec<NodeId> = timed.program().node_ids().collect();
        let deadline = Instant::now() + std::time::Duration::from_secs(3600);
        let mut longest = 0;
        for ptr in ptrs {
            let spec = ResolvedSpec::PointsTo(ptr);
            let before = timed.engine_stats().queries;
            let served = timed.query(spec, None, Some(deadline));
            assert_eq!(timed.engine_stats().queries - before, 1, "one query");
            assert_eq!(
                served,
                plain.query(spec, None, None),
                "same answer and work"
            );
            if let QueryAnswer::Set { work, .. } = served {
                longest = longest.max(work);
            }
        }
        assert!(longest > ddpa_demand::budget::CLOCK_STRIDE, "{longest}");
        let stats = timed.engine_stats();
        assert_eq!(stats.complete_queries, stats.queries);
        assert_eq!(stats.work, plain.engine_stats().work);
    }

    #[test]
    fn edits_that_create_and_extend_cycles_serve_fresh_answers() {
        // A closed copy ring long enough (40 edges) to trip the default
        // collapse threshold (32) during the first query's cascade.
        let mut text = String::new();
        for i in 1..40 {
            text.push_str(&format!("a{} = a{}\n", i, i - 1));
        }
        text.push_str("a0 = a39\n");
        text.push_str("a0 = &o1\n");
        text.push_str("tail = a20\n");
        let mut s = Session::open(&text, false, None).expect("valid ring");
        let spec = |s: &Session, name: &str| {
            s.resolve(&QuerySpec::PointsTo { name: name.into() })
                .expect("resolvable")
        };
        assert_eq!(set_names(&s.query(spec(&s, "tail"), None, None)), ["o1"]);
        assert!(
            s.engine_stats().cycles_collapsed > 0,
            "the 40-edge ring must collapse under the default threshold"
        );

        // Edit 1: extend the existing (collapsed) ring with a new member
        // and a new object seed. The reload drops the merged state; the
        // new answers must include o2 everywhere on the ring.
        s.add_constraints("a39x = a39\na0 = a39x\na5 = &o2\n")
            .expect("valid edit");
        assert_eq!(s.generation(), 1);
        assert_eq!(
            set_names(&s.query(spec(&s, "tail"), None, None)),
            ["o1", "o2"],
            "no stale merged state after extending the ring"
        );
        assert_eq!(
            set_names(&s.query(spec(&s, "a39x"), None, None)),
            ["o1", "o2"],
            "the new member joins the cycle"
        );

        // Edit 2: create a brand-new cycle out of what was a plain chain.
        let mut chain = String::from("c0 = &o3\n");
        for i in 1..40 {
            chain.push_str(&format!("c{} = c{}\n", i, i - 1));
        }
        s.add_constraints(&chain).expect("valid chain edit");
        assert_eq!(s.generation(), 2);
        assert_eq!(set_names(&s.query(spec(&s, "c39"), None, None)), ["o3"]);
        s.add_constraints("c0 = c39\nc17 = &o4\n")
            .expect("cycle-closing edit");
        assert_eq!(s.generation(), 3);
        assert_eq!(
            set_names(&s.query(spec(&s, "c3"), None, None)),
            ["o3", "o4"],
            "closing the chain into a ring flows o4 everywhere"
        );
        // The old ring is untouched by the c-edits.
        assert_eq!(
            set_names(&s.query(spec(&s, "tail"), None, None)),
            ["o1", "o2"]
        );
    }

    #[test]
    fn parallel_queries_match_sequential_and_count_scheduler_work() {
        let mut text = String::from("v0 = &obj\n");
        for i in 1..120 {
            text.push_str(&format!("v{} = v{}\n", i, i - 1));
        }
        let mut seq = Session::open(&text, false, None).expect("valid chain");
        let mut par = Session::open(&text, false, None)
            .expect("valid chain")
            .with_parallel(4, SchedPolicy::Dfs, true);
        for name in ["v119", "v60", "v0"] {
            let spec = |s: &Session| {
                s.resolve(&QuerySpec::PointsTo { name: name.into() })
                    .expect("resolvable")
            };
            let a = seq.query(spec(&seq), None, None);
            let b = par.query(spec(&par), None, None); // inherits the default
            assert_eq!(set_names(&a), set_names(&b), "{name}");
            if name == "v119" {
                // The cold query ran on the scheduler: the session default
                // applied, and more than one worker was configured.
                assert_eq!(par.last_sched(), Some("parallel"));
            }
        }
        // The per-request override forces the sequential path even on a
        // parallel-default session (and vice versa).
        let spec = par
            .resolve(&QuerySpec::PointsTo {
                name: "v119".into(),
            })
            .expect("resolvable");
        let off = par.query_opt(spec, None, None, Some(false));
        assert_eq!(set_names(&off), vec!["obj"]);
        // A budget pins the query to the sequential engine: partial
        // answers require the resumption guarantee.
        let limited = par.query_opt(spec, Some(3), None, Some(true));
        match limited {
            QueryAnswer::Set { complete, .. } => assert!(complete, "memoized by now"),
            other => panic!("expected set answer, got {other:?}"),
        }
    }

    #[test]
    fn edits_keep_disjoint_chains_warm() {
        let mut s = Session::open("p = &o\nq = p\nr = &u\n", false, None).expect("valid");
        let spec = |s: &Session, name: &str| {
            s.resolve(&QuerySpec::PointsTo { name: name.into() })
                .expect("resolvable")
        };
        assert_eq!(set_names(&s.query(spec(&s, "q"), None, None)), vec!["o"]);
        assert_eq!(set_names(&s.query(spec(&s, "r"), None, None)), vec!["u"]);

        // Edit touches only the r chain; the p/q chain stays warm.
        let edit = s.add_constraints("s = r\n").expect("valid edit");
        assert!(!edit.full, "compatible append-only edit");
        assert!(edit.retained > 0, "p/q chain survives");
        assert!(edit.invalidated > 0, "r chain is dirtied");
        assert_eq!(s.generation(), 1);
        match s.query(spec(&s, "q"), None, None) {
            QueryAnswer::Set { names, work, .. } => {
                assert_eq!(names, vec!["o"]);
                assert_eq!(work, 0, "untouched goal answers from the warm table");
            }
            other => panic!("expected set answer, got {other:?}"),
        }
        assert_eq!(set_names(&s.query(spec(&s, "s"), None, None)), vec!["u"]);
    }

    #[test]
    fn restore_after_edit_rebinds_surviving_entries() {
        // Warm a session, snapshot it, then edit: the snapshot's hash no
        // longer matches, but its untouched entries must still restore.
        let mut donor = Session::open("p = &o\nq = p\nr = &u\n", false, None).expect("valid");
        let spec = |s: &Session, name: &str| {
            s.resolve(&QuerySpec::PointsTo { name: name.into() })
                .expect("resolvable")
        };
        donor.query(spec(&donor, "q"), None, None);
        donor.query(spec(&donor, "r"), None, None);
        let snapshot = donor.export_snapshot();
        assert!(!snapshot.entries.is_empty());

        let mut s = Session::open("p = &o\nq = p\nr = &u\n", false, None).expect("valid");
        s.add_constraints("r = &u2\n").expect("valid edit");
        let restore = s.restore_snapshot(&snapshot).expect("rebinds");
        assert!(restore.rebound, "hash mismatch took the rebind path");
        assert!(restore.installed > 0, "the p/q chain survives the edit");
        assert!(restore.dropped > 0, "the edited r chain is dropped");
        // The restored entries serve; the dirtied one re-derives fresh.
        match s.query(spec(&s, "q"), None, None) {
            QueryAnswer::Set { names, work, .. } => {
                assert_eq!(names, vec!["o"]);
                assert_eq!(work, 0, "restored entry answers at zero cost");
            }
            other => panic!("expected set answer, got {other:?}"),
        }
        assert_eq!(
            set_names(&s.query(spec(&s, "r"), None, None)),
            vec!["u", "u2"],
            "dirtied entry was not restored stale"
        );

        // A snapshot of an unrelated program is still refused.
        let mut foreign = Session::open("z = &w\n", false, None).expect("valid");
        let err = foreign.restore_snapshot(&snapshot).expect_err("refused");
        assert_eq!(err.code, ErrorCode::Snapshot);
    }

    #[test]
    fn parallel_fallbacks_are_reported() {
        let mut text = String::from("v0 = &obj\n");
        for i in 1..80 {
            text.push_str(&format!("v{} = v{}\n", i, i - 1));
        }
        let mut s = Session::open(&text, false, None)
            .expect("valid chain")
            .with_parallel(4, SchedPolicy::Dfs, false);
        let spec = s
            .resolve(&QuerySpec::PointsTo { name: "v79".into() })
            .expect("resolvable");

        // No parallelism requested: no sched marker at all.
        s.query_opt(spec, None, None, None);
        assert_eq!(s.last_sched(), None);

        // Budgeted parallel request: pinned to the sequential engine.
        let mut cold = Session::open(&text, false, None)
            .expect("valid chain")
            .with_parallel(4, SchedPolicy::Dfs, false);
        let cspec = cold
            .resolve(&QuerySpec::PointsTo { name: "v79".into() })
            .expect("resolvable");
        cold.query_opt(cspec, Some(10_000), None, Some(true));
        assert_eq!(cold.last_sched(), Some("sequential-fallback"));

        // Unbudgeted cold parallel request: the scheduler runs.
        let mut fresh = Session::open(&text, false, None)
            .expect("valid chain")
            .with_parallel(4, SchedPolicy::Dfs, false);
        let fspec = fresh
            .resolve(&QuerySpec::PointsTo { name: "v79".into() })
            .expect("resolvable");
        fresh.query_opt(fspec, None, None, Some(true));
        assert_eq!(fresh.last_sched(), Some("parallel"));
        // And the repeat is a cache hit, reported as a fallback.
        fresh.query_opt(fspec, None, None, Some(true));
        assert_eq!(fresh.last_sched(), Some("sequential-fallback"));
    }

    #[test]
    fn name_table_holds_escaped_names() {
        let weird = "q\"\\\u{01}";
        let mut b = ddpa_constraints::ConstraintBuilder::new();
        let p = b.var("p");
        let q = b.var(weird);
        let f = b.func("f\"n", 0);
        b.addr_of(p, q);
        let cp = b.build();
        let table = NameTable::new(&cp);
        assert_eq!(table.node(q), ddpa_obs::escaped(weird));
        assert_eq!(table.node(p), "\"p\"");
        assert_eq!(table.func(f), ddpa_obs::escaped("f\"n"));
        for n in cp.node_ids() {
            assert_eq!(table.node(n), ddpa_obs::escaped(&cp.display_node(n)));
        }
        assert_eq!(cp.node_named(weird), Some(q));
    }
}
