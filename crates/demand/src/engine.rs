//! The demand-driven deduction engine.
//!
//! # The deduction system
//!
//! Two mutually recursive judgments are tabled as [`Goal`]s:
//! `o ∈ pts(v)` (what may `v` point to) and `w ∈ ptb(o)` (what may point
//! to `o`). Writing the four assignment forms as in the paper, the `pts`
//! rules are:
//!
//! ```text
//! [ADDR]   x = &o                       ⊢ o ∈ pts(x)
//! [COPY]   x = s,  o ∈ pts(s)           ⊢ o ∈ pts(x)
//! [LOAD]   x = *p, z ∈ pts(p), o ∈ pts(z)
//!                                       ⊢ o ∈ pts(x)
//! [STORE]  *w = s, w ∈ ptb(x), o ∈ pts(s)
//!                                       ⊢ o ∈ pts(x)
//! [PARAM]  f(..aᵢ..) at cs, cs may call f, o ∈ pts(aᵢ)
//!                                       ⊢ o ∈ pts(formalᵢ(f))
//! [RET]    r = call(cs), cs may call f, o ∈ pts(ret(f))
//!                                       ⊢ o ∈ pts(r)
//! ```
//!
//! and the inverse `ptb` rules ([`Watcher::FwdProp`] a–f):
//!
//! ```text
//! [ADDR⁻¹]  x = &o                      ⊢ x ∈ ptb(o)
//! (a)       d = w,  w ∈ ptb(o)          ⊢ d ∈ ptb(o)
//! (b)       *p = w, w ∈ ptb(o), z ∈ pts(p)
//!                                       ⊢ z ∈ ptb(o)
//! (c)       d = *q, z ∈ ptb(o), q ∈ ptb(z)
//!                                       ⊢ d ∈ ptb(o)
//! (d)       w arg at cs, cs may call f, w ∈ ptb(o)
//!                                       ⊢ formal(f) ∈ ptb(o)
//! (e)       ret(f) ∈ ptb(o), cs may call f, r = call(cs)
//!                                       ⊢ r ∈ ptb(o)
//! ```
//!
//! "`cs` may call `f`" is itself resolved on demand: a direct call site
//! names `f`; an indirect one requires `@fn_f ∈ pts(fp)`, computed
//! recursively — the on-the-fly call graph. `[PARAM]` and rule (e) read
//! it through the memo table's call-edge table ([`crate::rules`]), which
//! discovers each indirect call edge once however many goals wait on it.
//!
//! # Evaluation strategy
//!
//! Each rule premise becomes a [`Watcher`] subscribed to the goal it reads,
//! with a cursor into that goal's element list. The engine repeatedly pops
//! a goal and advances all its watcher cursors; firing a watcher may add
//! facts or install further subscriptions, but never recurses — the loop is
//! flat, so a budget can abort it *between any two firings* and a later
//! query resumes exactly where it stopped. When the queue drains, every
//! activated goal is at fixpoint and is memoized as complete.
//!
//! Bookkeeping costs only what changed, and never reorders a firing:
//!
//! * A goal visit costs O(watchers added since the last visit + firings).
//!   A visit that reaches quiescence settles the goal's watcher prefix;
//!   a later visit of a goal that gained no element since starts after
//!   it, and a pass that adds no element to the goal ends the visit. Both
//!   skip only watchers whose cursor is already at the end.
//! * Adding an element, installing a watcher and recording a dependency
//!   edge each cost one membership test and at most one push. A goal
//!   keeps each of the three once, as a [`ListSet`]: a list in
//!   first-insertion order whose membership a short scan answers, and
//!   past it a lazily built index (a bitset for elements, a hash set
//!   otherwise).
//! * The completion sweep after a full drain starts at a watermark below
//!   which every goal is complete or merged, so it visits only the goals
//!   tabled since the last sweep.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ddpa_constraints::{CalleeRef, ConstraintProgram, FuncId, NodeId, TextError};
use ddpa_obs::{Counter, FlightConfig, FlightEventKind, FlightRecorder, FlightStage, Obs};

use crate::budget::Budget;
use crate::config::DemandConfig;
use crate::cycles::CopyGraph;
use crate::goal::{Goal, GoalIndex, GoalState, ListSet, Watcher};
use crate::query::{AliasResult, CallTargets, QueryResult};
use crate::rules::{CallEdges, Deduce};
use crate::sched::Scheduler;
use crate::share::{close_dirty, CompletedGoal, DirtyView, StageEntry, SupportRef};
use crate::stats::EngineStats;
use crate::trace::Origin;

/// The demand-driven pointer analysis engine.
///
/// Holds the memo table; keep one engine alive across queries to benefit
/// from caching (see [`DemandConfig::caching`]).
///
/// # Examples
///
/// ```
/// use ddpa_demand::{DemandConfig, DemandEngine};
///
/// let cp = ddpa_constraints::parse_constraints("p = &g\nq = p\n")?;
/// let q = cp.node_ids().find(|&n| cp.display_node(n) == "q").expect("q exists");
/// let mut engine = DemandEngine::new(&cp, DemandConfig::default());
/// let result = engine.points_to(q);
/// assert!(result.complete);
/// assert_eq!(result.pts.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DemandEngine<'p> {
    /// The program, borrowed from the caller or handed over by value (a
    /// server session's, which edits append to in place).
    program: Cow<'p, ConstraintProgram>,
    pub(crate) memo: Memo,
}

/// Everything an engine keeps apart from its program: the memo table,
/// its cycle and cost bookkeeping, counters and the entries a restore
/// staged. It borrows nothing; each call that deduces is handed the
/// program.
#[derive(Debug)]
pub(crate) struct Memo {
    config: DemandConfig,
    pub(crate) goals: Vec<GoalState>,
    /// Keys merged into each representative that has any, in merge
    /// order: the family's other keys, which exports and edits keep.
    aliases: HashMap<u32, Vec<Goal>>,
    /// Goal → table index, addressed by slot (`pts(n) ↔ 2n`,
    /// `ptb(n) ↔ 2n+1`) and sized from the program's node count.
    pub(crate) index: GoalIndex,
    queue: VecDeque<u32>,
    /// Every goal below this table index is complete or merged, so
    /// [`drain`](Self::drain)'s completion sweep starts here.
    complete_below: usize,
    obs: Obs,
    counters: EngineCounters,
    /// Each fact's first derivation, keyed by the goal it was added to.
    /// Only [`crate::explain_points_to`] sets this, on a private engine
    /// that never collapses cycles, so no key is ever merged away.
    pub(crate) provenance: Option<HashMap<(Goal, u32), Origin>>,
    generation: u64,
    /// Copy-graph edges and the goal-merging union-find; every goal-index
    /// lookup routes through [`CopyGraph::find`].
    pub(crate) cycles: CopyGraph,
    /// The indirect call edges the rules discovered over this table, and
    /// the goals waiting on them ([`crate::rules`]). Memo state: it
    /// describes the tabled goals, so it is reset with them.
    calls: CallEdges,
    /// Restored fixpoints not yet touched ([`DemandEngine::warm_start`]).
    /// The first activation of a staged goal moves its entry into the
    /// table; a goal is never both staged and tabled.
    staged: Staged,
    /// The deduction flight recorder behind this engine's stage, when
    /// enabled ([`DemandConfig::flight`]). A query stages its events and
    /// publishes them into the ring when it ends, so the stage is empty
    /// between queries. Recording is append-only and never feeds back
    /// into deduction, so answers are identical either way.
    flight: Option<FlightStage>,
    /// Whether the most recent query dispatched to the frame scheduler.
    /// Hosts that request parallel execution read this to report a
    /// sequential fallback honestly instead of implying parallelism.
    last_parallel: bool,
    /// Wall-clock deadline of the sequential queries that follow
    /// ([`DemandEngine::set_deadline`]).
    deadline: Option<Instant>,
    /// Whether a query stopped at `deadline` since it was set.
    timed_out: bool,
}

/// What an incremental edit ([`DemandEngine::reload_incremental`]) did
/// to the memoized state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Completed entries dropped because the edit transitively dirtied
    /// them (or, on the full path, every one). Entries count as
    /// [`DemandEngine::export_completed`] writes them, so
    /// `invalidated + retained` is its length before the edit.
    pub invalidated: usize,
    /// Completed entries kept warm and re-installed.
    pub retained: usize,
    /// Dependency edges the dirty propagation traversed.
    pub dirty_edges: u64,
    /// `true` when the engine fell back to full invalidation
    /// (incompatible diff or caching off).
    pub full: bool,
}

/// Pre-resolved counter handles — the hot path never does a name lookup.
#[derive(Debug)]
struct EngineCounters {
    queries: Counter,
    complete_queries: Counter,
    cache_hits: Counter,
    fires: Counter,
    goals_activated: Counter,
    work: Counter,
    cycles_runs: Counter,
    cycles_collapsed: Counter,
    cycles_merged_goals: Counter,
    share_hits: Counter,
    share_misses: Counter,
    flight_events: Counter,
    sched_parked: Counter,
    sched_resumed: Counter,
    sched_steals: Counter,
    sched_wakeups: Counter,
    /// Per-[`Watcher`] variant fire counts, indexed by
    /// [`Watcher::kind_index`].
    fires_by_kind: [Counter; Watcher::KINDS],
}

impl EngineCounters {
    fn new(obs: &Obs) -> Self {
        EngineCounters {
            queries: obs.counter("demand.queries"),
            complete_queries: obs.counter("demand.queries.complete"),
            cache_hits: obs.counter("demand.cache_hits"),
            fires: obs.counter("demand.fires"),
            goals_activated: obs.counter("demand.goals_activated"),
            work: obs.counter("demand.work"),
            cycles_runs: obs.counter("demand.cycles.runs"),
            cycles_collapsed: obs.counter("demand.cycles.collapsed"),
            cycles_merged_goals: obs.counter("demand.cycles.merged_goals"),
            share_hits: obs.counter("demand.share.hits"),
            share_misses: obs.counter("demand.share.misses"),
            flight_events: obs.counter("demand.flight.events"),
            sched_parked: obs.counter("demand.sched.parked"),
            sched_resumed: obs.counter("demand.sched.resumed"),
            sched_steals: obs.counter("demand.sched.steals"),
            sched_wakeups: obs.counter("demand.sched.wakeups"),
            fires_by_kind: std::array::from_fn(|i| {
                obs.counter(&format!("demand.fires.{}", Watcher::KIND_NAMES[i]))
            }),
        }
    }
}

impl<'p> DemandEngine<'p> {
    /// Creates an engine over `cp` with a private [`Obs`] (profiling off).
    /// Pass `&cp` to borrow the program, or `cp` to hand it over.
    pub fn new(cp: impl Into<Cow<'p, ConstraintProgram>>, config: DemandConfig) -> Self {
        DemandEngine::with_obs(cp, config, Obs::new())
    }

    /// Creates an engine publishing metrics and spans into `obs` — share
    /// one [`Obs`] across engines and solvers to aggregate a whole run.
    pub fn with_obs(
        cp: impl Into<Cow<'p, ConstraintProgram>>,
        config: DemandConfig,
        obs: Obs,
    ) -> Self {
        let program = cp.into();
        let memo = Memo::new(config, obs, program.num_nodes());
        DemandEngine { program, memo }
    }

    /// Whether the most recent query ran on the frame scheduler
    /// ([`crate::sched`]) rather than the sequential drain. False for
    /// cache hits and for queries the engine pinned to the sequential
    /// path (budgeted, or resuming suspended work).
    pub fn last_query_parallel(&self) -> bool {
        self.memo.last_parallel
    }

    /// The deduction flight recorder, when enabled
    /// ([`DemandConfig::flight`]). Snapshot it at any time to reconstruct
    /// recent engine activity; see `docs/OBSERVABILITY.md`.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.memo.flight.as_ref().map(|stage| {
            debug_assert!(stage.is_empty(), "flight events left staged");
            stage.recorder()
        })
    }

    /// The observability hub this engine publishes into.
    pub fn obs(&self) -> &Obs {
        &self.memo.obs
    }

    /// The program being analyzed.
    pub fn program(&self) -> &ConstraintProgram {
        &self.program
    }

    /// The current configuration.
    pub fn config(&self) -> &DemandConfig {
        &self.memo.config
    }

    /// Adjusts only the per-query budget.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.memo.config.budget = budget;
    }

    /// Sets the wall-clock deadline of the queries that follow (`None` =
    /// none) and clears [`timed_out`](Self::timed_out). A sequential query
    /// reads the clock through its [`Budget`] once before deducing and
    /// once every [`CLOCK_STRIDE`](crate::budget::CLOCK_STRIDE) units of
    /// work, and stops like an exhausted budget once the deadline has
    /// passed; it resumes where it stopped on a later call. The frame
    /// scheduler runs each query to its fixpoint and never reads it.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.memo.deadline = deadline;
        self.memo.timed_out = false;
    }

    /// Whether a query stopped at the deadline since the last
    /// [`set_deadline`](Self::set_deadline).
    pub fn timed_out(&self) -> bool {
        self.memo.timed_out
    }

    /// Adjusts only the per-query worker count (clamped to ≥ 1). Used by
    /// hosts that toggle intra-query parallelism per request.
    pub fn set_workers(&mut self, workers: usize) {
        self.memo.config.workers = workers.max(1);
    }

    /// Adjusts the scheduler policy used by parallel queries.
    pub fn set_sched_policy(&mut self, policy: crate::config::SchedPolicy) {
        self.memo.config.sched_policy = policy;
    }

    /// A snapshot of the cumulative statistics across all queries so far.
    ///
    /// Counts reflect only this engine unless the [`Obs`] passed to
    /// [`DemandEngine::with_obs`] is shared with other engines.
    pub fn stats(&self) -> EngineStats {
        let c = &self.memo.counters;
        EngineStats {
            queries: c.queries.get(),
            complete_queries: c.complete_queries.get(),
            cache_hits: c.cache_hits.get(),
            fires: c.fires.get(),
            goals_activated: c.goals_activated.get(),
            work: c.work.get(),
            cycle_runs: c.cycles_runs.get(),
            cycles_collapsed: c.cycles_collapsed.get(),
            merged_goals: c.cycles_merged_goals.get(),
            share_hits: c.share_hits.get(),
            share_misses: c.share_misses.get(),
            flight_events: c.flight_events.get(),
            sched_parked: c.sched_parked.get(),
            sched_resumed: c.sched_resumed.get(),
            sched_steals: c.sched_steals.get(),
            sched_wakeups: c.sched_wakeups.get(),
        }
    }

    /// Opens a per-request trace bracket: snapshots the counters and
    /// starts the clock. Close it with [`crate::QueryTrace::finish`] to
    /// get the request's counter deltas and wall time. `id` is the
    /// host-minted trace/request ID, echoed back in the report.
    pub fn begin_trace(&self, id: impl Into<String>) -> crate::QueryTrace {
        crate::QueryTrace::begin(id, self)
    }

    /// Number of subgoals currently tabled.
    pub fn tabled_goals(&self) -> usize {
        self.memo.goals.len()
    }

    /// The invalidation generation: starts at 0 and increments on every
    /// [`DemandEngine::invalidate`] / [`DemandEngine::reload`]. Answers
    /// computed under one generation must not be mixed with answers from
    /// another — long-lived hosts (the `ddpa-serve` sessions) stamp every
    /// response with this value.
    pub fn generation(&self) -> u64 {
        self.memo.generation
    }

    /// Invalidates every tabled goal and bumps the generation.
    ///
    /// Use after the underlying program changed semantically (e.g. via
    /// [`DemandEngine::reload`]): completed memo entries from the old
    /// program would otherwise be served as stale cache hits.
    pub fn invalidate(&mut self) {
        self.memo.invalidate();
    }

    /// Swaps in an updated constraint program and invalidates all memoized
    /// state, so the next query deduces against `cp` from scratch.
    ///
    /// This is the incremental-edit hook: grow the program (append
    /// constraints, rebuild) and reload — queries issued afterwards see
    /// the new edges and never a stale memo.
    pub fn reload(&mut self, cp: impl Into<Cow<'p, ConstraintProgram>>) {
        self.program = cp.into();
        self.memo.invalidate();
        self.memo.index.grow(self.program.num_nodes());
    }

    /// Swaps in an updated program, invalidating *only* the transitively
    /// dirtied fixpoints and keeping everything else warm — the
    /// incremental counterpart of [`reload`](Self::reload).
    ///
    /// `diff` must be `diff_programs(old, cp)` — or the diff
    /// `append_constraints` returned — for the program `old` this
    /// engine's memo table was computed over. Entries whose support set
    /// misses the edit (and whose producers all survive) are
    /// bit-identical fixpoints under `cp`, so they stay tabled as
    /// completed goals, moved (not copied) into the slots
    /// [`warm_start`](Self::warm_start) would give them;
    /// the rest — plus any entry with no recorded support,
    /// conservatively — are dropped and re-derived on demand. Entries
    /// [`warm_start`](Self::warm_start) staged get the same treatment and
    /// stay staged when they survive.
    ///
    /// Falls back to full invalidation ([`reload`](Self::reload)) when
    /// the diff is incompatible (old node ids don't survive into `cp`) or
    /// caching is off; `EditStats::full` reports which path ran. The
    /// engine generation is bumped either way — retention is invisible to
    /// generation-stamped protocols except as less work.
    pub fn reload_incremental(
        &mut self,
        cp: impl Into<Cow<'p, ConstraintProgram>>,
        diff: &ddpa_constraints::ProgramDiff,
    ) -> EditStats {
        self.program = cp.into();
        self.memo.edit(self.program.num_nodes(), diff)
    }

    /// Appends constraint text to the program in place
    /// ([`ddpa_constraints::append_constraints`], copying a borrowed
    /// program first) and keeps warm every goal the edit does not dirty,
    /// as [`reload_incremental`](Self::reload_incremental) does. On a
    /// [`TextError`] the program and the memo table are unchanged.
    pub fn append_constraints(
        &mut self,
        text: &str,
        lines_before: usize,
    ) -> Result<EditStats, TextError> {
        let diff = ddpa_constraints::append_constraints(self.program.to_mut(), text, lines_before)?;
        Ok(self.memo.edit(self.program.num_nodes(), &diff))
    }

    /// Computes `pts(node)` on demand.
    pub fn points_to(&mut self, node: NodeId) -> QueryResult {
        self.memo.run(&self.program, Goal::Pts(node))
    }

    /// Computes `ptb(node)` — the pointers that may point to `node`.
    pub fn pointed_to_by(&mut self, node: NodeId) -> QueryResult {
        self.memo.run(&self.program, Goal::Ptb(node))
    }

    /// Resolves the callee set of call site `cs` on demand.
    ///
    /// Direct calls are free. For indirect calls the engine queries the
    /// function pointer; if the budget runs out, the result falls back to
    /// every address-taken function (sound) with `resolved = false`.
    pub fn call_targets(&mut self, cs: ddpa_constraints::CallSiteId) -> CallTargets {
        match self.program.callsite(cs).callee {
            CalleeRef::Direct(f) => CallTargets {
                targets: vec![f],
                resolved: true,
                work: 0,
            },
            CalleeRef::Indirect(fp) => {
                let r = self.points_to(fp);
                if r.complete {
                    let mut targets: Vec<FuncId> = r
                        .pts
                        .iter()
                        .filter_map(|&n| self.program.node(n).as_func())
                        .collect();
                    targets.sort_unstable();
                    CallTargets {
                        targets,
                        resolved: true,
                        work: r.work,
                    }
                } else {
                    CallTargets {
                        targets: self.program.address_taken_funcs(),
                        resolved: false,
                        work: r.work,
                    }
                }
            }
        }
    }

    /// Answers "may `a` and `b` alias?" on demand.
    ///
    /// Conservative: if either query is unresolved and no intersection was
    /// found in the partial sets, the answer is `may_alias = true` with
    /// `resolved = false`.
    pub fn may_alias(&mut self, a: NodeId, b: NodeId) -> AliasResult {
        let ra = self.points_to(a);
        let rb = self.points_to(b);
        let intersects = intersect_sorted(&ra.pts, &rb.pts);
        let resolved = intersects || (ra.complete && rb.complete);
        AliasResult {
            may_alias: intersects || !(ra.complete && rb.complete),
            resolved,
            work: ra.work + rb.work,
        }
    }

    /// Every complete goal of the memo table, plus every entry still
    /// staged, as `(goal, fixpoint)` pairs in canonical order (all `Pts`
    /// goals by node id, then all `Ptb`) — what a snapshot persists. A
    /// goal merged into a cycle is exported under its own key with its
    /// family's fixpoint.
    pub fn export_completed(&self) -> Vec<(Goal, CompletedGoal)> {
        self.memo.export_completed()
    }

    /// Stages completed fixpoints for this engine's program — the restore
    /// path of snapshots ([`ddpa-snap`](../../ddpa_snap/index.html)). A
    /// staged goal is not tabled yet: its first activation moves the
    /// entry into the table as a complete goal, so the whole subtree
    /// below it costs zero rule firings, and later subscribers replay its
    /// members from cursor 0 exactly as with a locally completed goal.
    /// Edits dirty staged entries as they dirty tabled ones, and
    /// [`invalidate`](Self::invalidate) / [`reload`](Self::reload) drop
    /// them.
    ///
    /// Skips goals already tabled or staged — a warm start must never
    /// overwrite live deduction state — and stages nothing when caching
    /// is disabled. Returns how many entries were staged. Entries given
    /// by value (a snapshot just read from disk) move in; entries given
    /// by reference are copied, each only once it is staged
    /// ([`StageEntry`]).
    ///
    /// The caller is responsible for only staging fixpoints computed
    /// over the *same program*; snapshot restore verifies the program
    /// hash, or rebinds, first.
    pub fn warm_start<E: StageEntry>(&mut self, entries: impl IntoIterator<Item = E>) -> usize {
        let memo = &mut self.memo;
        if !memo.config.caching {
            return 0;
        }
        memo.staged.at.grow(memo.index.nodes());
        let mut staged = 0;
        for entry in entries {
            let goal = entry.goal();
            if memo.index.get(goal).is_none() && memo.staged.get(goal).is_none() {
                memo.staged.insert(goal, entry.into_entry());
                staged += 1;
            }
        }
        staged
    }
}

/// Restored fixpoints not tabled yet, in staging order, found through a
/// [`GoalIndex`] so a lookup hashes nothing. Taking an entry out leaves
/// a hole, and taking the last one frees the table; the index is sized
/// to the program when entries are staged.
#[derive(Debug, Default)]
struct Staged {
    entries: Vec<Option<(Goal, CompletedGoal)>>,
    at: GoalIndex,
    len: usize,
}

impl Staged {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn get(&self, goal: Goal) -> Option<&CompletedGoal> {
        let i = self.at.get(goal)? as usize;
        self.entries[i].as_ref().map(|(_, entry)| entry)
    }

    /// Stages `entry`; `goal` is not staged yet.
    fn insert(&mut self, goal: Goal, entry: CompletedGoal) {
        self.at.insert(goal, self.entries.len() as u32);
        self.entries.push(Some((goal, entry)));
        self.len += 1;
    }

    fn remove(&mut self, goal: Goal) -> Option<CompletedGoal> {
        let i = self.at.get(goal)? as usize;
        self.at.remove(goal);
        self.len -= 1;
        let entry = self.entries[i].take().map(|(_, entry)| entry);
        if self.len == 0 {
            self.clear();
        }
        entry
    }

    fn clear(&mut self) {
        *self = Staged::default();
    }
}

/// Where an [`exported`](Memo::exported) entry's fixpoint lives: in the
/// complete family state at a table index, or in a staged entry.
enum Home<'a> {
    Table(u32, &'a GoalState),
    Staged(&'a CompletedGoal),
}

impl Memo {
    fn new(config: DemandConfig, obs: Obs, nodes: usize) -> Self {
        let counters = EngineCounters::new(&obs);
        let cycles = CopyGraph::new(config.collapse_cycles, config.collapse_threshold);
        let flight = config.flight.then(|| {
            let recorder = FlightRecorder::new(FlightConfig {
                capacity: config.flight_capacity,
                sample: config.flight_sample,
            });
            FlightStage::new(Arc::new(recorder), counters.flight_events.clone())
        });
        Memo {
            config,
            goals: Vec::new(),
            aliases: HashMap::new(),
            index: GoalIndex::with_nodes(nodes),
            queue: VecDeque::new(),
            complete_below: 0,
            obs,
            counters,
            provenance: None,
            generation: 0,
            cycles,
            calls: CallEdges::default(),
            staged: Staged::default(),
            flight,
            last_parallel: false,
            deadline: None,
            timed_out: false,
        }
    }

    /// Drops all memoized state (used between queries when caching is off).
    ///
    /// Also rebuilds the cycle union-find: merged representatives are
    /// meaningless once the goal table is gone, and a stale union-find
    /// would silently fuse unrelated goals of the next table. The
    /// call-edge table goes too: its waiters are goals of this table, and
    /// the next table arms its dispatch watchers afresh, on the next
    /// program.
    fn clear(&mut self) {
        for state in &self.goals {
            self.index.remove(state.key);
        }
        self.goals.clear();
        self.aliases.clear();
        self.queue.clear();
        self.complete_below = 0;
        self.cycles = CopyGraph::new(self.config.collapse_cycles, self.config.collapse_threshold);
        self.calls = CallEdges::default();
    }

    fn invalidate(&mut self) {
        self.clear();
        self.staged.clear();
        self.generation += 1;
    }

    /// The memo side of [`DemandEngine::reload_incremental`], for a new
    /// program of `nodes` nodes.
    fn edit(&mut self, nodes: usize, diff: &ddpa_constraints::ProgramDiff) -> EditStats {
        if !diff.compatible || !self.config.caching {
            let dropped = self.exported().count();
            self.invalidate();
            self.index.grow(nodes);
            return EditStats {
                invalidated: dropped,
                retained: 0,
                dirty_edges: 0,
                full: true,
            };
        }
        // One borrowed view per exported entry.
        let mut at = GoalIndex::with_nodes(nodes);
        let views: Vec<DirtyView<'_>> = self
            .exported()
            .zip(0u32..)
            .map(|((goal, home), i)| {
                at.insert(goal, i);
                match home {
                    Home::Table(_, state) => DirtyView {
                        goal,
                        support: SupportRef::Set(&state.support),
                        deps: &state.deps,
                        reads_indirect: state.reads_indirect,
                    },
                    Home::Staged(entry) => DirtyView::of_entry(goal, entry),
                }
            })
            .collect();
        let (dirty, dirty_edges) = close_dirty(&views, &at, diff);
        drop(views);
        let invalidated = dirty.iter().filter(|&&d| d).count();
        let retained = dirty.len() - invalidated;
        let mut survivors = Vec::with_capacity(retained);
        let mut dirty_staged = Vec::new();
        for ((goal, home), &d) in self.exported().zip(&dirty) {
            match home {
                Home::Table(gi, _) if !d => survivors.push((goal, gi)),
                Home::Staged(_) if d => dirty_staged.push(goal),
                _ => {}
            }
        }
        for goal in dirty_staged {
            self.staged.remove(goal);
        }

        // Re-table the survivors by moving their state into new slots, in
        // export order.
        let mut goals = std::mem::take(&mut self.goals);
        for state in &goals {
            self.index.remove(state.key);
        }
        self.clear();
        self.index.grow(nodes);
        self.goals.reserve_exact(retained);
        self.generation += 1;
        let mut family = None;
        for (goal, gi) in survivors {
            // A family's first survivor takes the state; later ones copy
            // the survivor tabled just before them. Each is tabled under
            // its own key, with no cost.
            let mut state = if family == Some(gi) {
                self.goals.last().expect("tabled above").completed_copy()
            } else {
                let old = std::mem::replace(&mut goals[gi as usize], GoalState::new(goal));
                GoalState::completed(goal, old.elems, old.support, old.deps, old.reads_indirect)
            };
            family = Some(gi);
            state.key = goal;
            self.push(state);
        }
        self.complete_below = self.goals.len();
        // Each re-tabled goal staged an `activated` event.
        if let Some(stage) = &mut self.flight {
            stage.publish();
        }
        EditStats {
            invalidated,
            retained,
            dirty_edges,
            full: false,
        }
    }

    /// The completed element set tabled or staged for `goal`, if it has
    /// one: how the frame scheduler seeds frames from goals already at
    /// fixpoint. A staged entry stays staged; the probe counts as a share
    /// hit or miss as in [`activate`](Self::activate).
    pub(crate) fn completed_elems(&self, goal: Goal) -> Option<Vec<u32>> {
        if let Some(gi) = self.index.get(goal) {
            let state = &self.goals[self.cycles.find_readonly(gi) as usize];
            return state.complete.then(|| state.sorted_elems());
        }
        if self.staged.is_empty() {
            return None;
        }
        let hit = self.staged.get(goal);
        self.count_share(hit.is_some());
        hit.map(|entry| entry.elems.clone())
    }

    /// Takes `goal`'s staged entry out, counting a share hit or miss
    /// while any are staged.
    fn take_staged(&mut self, goal: Goal) -> Option<CompletedGoal> {
        if self.staged.is_empty() {
            return None;
        }
        let hit = self.staged.remove(goal);
        self.count_share(hit.is_some());
        hit
    }

    fn count_share(&self, hit: bool) {
        if hit {
            self.counters.share_hits.inc();
        } else {
            self.counters.share_misses.inc();
        }
    }

    /// Every entry an export writes: each complete family's fixpoint under
    /// its key and then each of its aliases, in table order, then each
    /// staged entry. Exports, edits and their counts all read this set.
    fn exported(&self) -> impl Iterator<Item = (Goal, Home<'_>)> {
        let tabled = self
            .goals
            .iter()
            .zip(0u32..)
            .filter(|(state, _)| !state.merged && state.complete)
            .flat_map(move |(state, gi)| {
                std::iter::once(state.key)
                    .chain(self.aliases.get(&gi).into_iter().flatten().copied())
                    .map(move |goal| (goal, Home::Table(gi, state)))
            });
        let staged = self.staged.entries.iter().flatten();
        tabled.chain(staged.map(|(goal, entry)| (*goal, Home::Staged(entry))))
    }

    /// The [`exported`](Self::exported) entries as owned fixpoints, in
    /// canonical order.
    fn export_completed(&self) -> Vec<(Goal, CompletedGoal)> {
        let mut out: Vec<(Goal, CompletedGoal)> = self
            .exported()
            .map(|(goal, home)| match home {
                Home::Table(_, state) => (goal, CompletedGoal::of_state(state)),
                Home::Staged(entry) => (goal, entry.clone()),
            })
            .collect();
        out.sort_unstable_by_key(|&(goal, _)| goal.canonical_key());
        out
    }

    /// Stages one flight event (no-op when the recorder is off).
    #[inline]
    fn flight_record(&mut self, kind: FlightEventKind, a: u32, b: u32, work: u32) {
        if let Some(stage) = &mut self.flight {
            stage.record(kind, a, b, work);
        }
    }

    // ------------------------------------------------------------------
    // Tabling machinery
    // ------------------------------------------------------------------

    /// Activates `goal` and returns the index of the state holding it —
    /// the *representative* index when the goal was merged into a cycle.
    fn activate(&mut self, goal: Goal) -> u32 {
        if let Some(gi) = self.index.get(goal) {
            return self.cycles.find(gi);
        }
        if let Some(entry) = self.take_staged(goal) {
            // Table the restored fixpoint as a completed goal, by move: no
            // static rules, no enqueue — the whole subtree below `goal`
            // costs zero firings. Later subscribers replay `elems` from
            // cursor 0, exactly as with a locally completed goal.
            let gi = self.push(entry.into_state(goal));
            self.flight_record(FlightEventKind::MemoHit, gi, 1, 0);
            return gi;
        }
        let gi = self.push(GoalState::new(goal));
        self.enqueue(gi);
        gi
    }

    /// Tables `state` under its key in a new slot and returns the slot.
    /// The goal counts as activated.
    fn push(&mut self, state: GoalState) -> u32 {
        let gi = self.goals.len() as u32;
        self.index.insert(state.key, gi);
        self.goals.push(state);
        let slot = self.cycles.push();
        debug_assert_eq!(slot, gi, "union-find aligned with goal table");
        self.counters.goals_activated.inc();
        self.flight_record(FlightEventKind::Activated, gi, 0, 0);
        gi
    }

    fn enqueue(&mut self, gi: u32) {
        let state = &mut self.goals[gi as usize];
        if !state.on_list {
            state.on_list = true;
            self.queue.push_back(gi);
        }
    }

    fn requeue_front(&mut self, gi: u32) {
        let state = &mut self.goals[gi as usize];
        if !state.on_list {
            state.on_list = true;
            self.queue.push_front(gi);
        }
    }

    /// Adds `value` to `goal`'s set, recording its first derivation when
    /// the explainer asked for provenance. (The [`Deduce`] impl routes
    /// rule-produced facts here.)
    fn add_fact(&mut self, goal: Goal, value: u32, origin: Origin) {
        let gi = self.activate(goal);
        let state = &mut self.goals[gi as usize];
        let inserted = state.elems.insert(value);
        debug_assert!(
            !(inserted && state.complete),
            "fact added to a completed goal {goal:?}"
        );
        if inserted {
            if let Some(provenance) = &mut self.provenance {
                provenance.insert((goal, value), origin);
            }
            self.enqueue(gi);
        }
    }

    /// Installs `watcher` on `goal` (idempotent), starting from the first
    /// element. `CopyTo` subscriptions double as edges of the copy graph
    /// ([`CopyGraph::record_edge`]); one that targets the subscribed
    /// goal's own state — a self copy, or a copy inside an already
    /// collapsed cycle — is the identity and is suppressed.
    fn subscribe_watcher(&mut self, goal: Goal, watcher: Watcher) {
        let gi = self.activate(goal);
        // The consumer's fixpoint reads the producer's set: record the
        // dependency edge so an edit dirtying the producer transitively
        // dirties the consumer (see `reload_incremental`). Recorded even
        // for suppressed/duplicate subscriptions — `deps` dedups, and a
        // same-family edge (consumer routed to `gi` itself) is skipped.
        // Nothing below merges goals, so the representative also names
        // the consumer in the `blocked` event.
        let consumer = self
            .index
            .get(watcher.consumer())
            .map(|ci| self.cycles.find(ci));
        if let Some(ci) = consumer {
            if ci != gi {
                self.goals[ci as usize].deps.insert(goal);
            }
        }
        // The identity test runs before the duplicate test: a family only
        // grows until the table is cleared, so a suppressed copy stays
        // suppressed and never needs a place in `watchers`.
        if let Watcher::CopyTo { dst } = watcher {
            if let Some(di) = self.index.get(Goal::Pts(dst)) {
                if self.cycles.find(di) == gi {
                    return;
                }
            }
        }
        let state = &mut self.goals[gi as usize];
        if state.watchers.insert(watcher) {
            state.cursors.push(0);
            if let Watcher::CopyTo { dst } = watcher {
                self.cycles.record_edge(gi, dst);
            }
            // The consumer goal now blocks on new elements of `gi`.
            self.flight_record(
                FlightEventKind::Blocked,
                gi,
                consumer.unwrap_or(u32::MAX),
                0,
            );
            self.enqueue(gi);
        }
    }

    /// Processes one goal to quiescence. Returns `false` on budget
    /// exhaustion (the goal is re-queued at the front for resumption).
    fn process(&mut self, cp: &ConstraintProgram, gi: u32, budget: &mut Budget) -> bool {
        if self.goals[gi as usize].needs_init {
            if !budget.charge(1) {
                self.requeue_front(gi);
                self.flight_record(FlightEventKind::Resumed, gi, 0, 0);
                return false;
            }
            self.counters.work.inc();
            let state = &mut self.goals[gi as usize];
            state.cost.work += 1;
            state.needs_init = false;
            let key = state.key;
            let _span = self.obs.span("demand.query.goal_init");
            match key {
                Goal::Pts(x) => Sequential { cp, memo: self }.install_pts(x),
                Goal::Ptb(o) => Sequential { cp, memo: self }.install_ptb(o),
            }
        }
        // Per-fire tallies stay in a local and reach the shared counters
        // once per visit: nothing reads them while a goal is processed.
        let mut fires_by_kind = [0u64; Watcher::KINDS];
        let done = self.fire_watchers(cp, gi, budget, &mut fires_by_kind);
        let fires: u64 = fires_by_kind.iter().sum();
        if fires > 0 {
            self.counters.fires.add(fires);
            self.counters.work.add(fires);
            for (counter, &n) in self.counters.fires_by_kind.iter().zip(&fires_by_kind) {
                if n > 0 {
                    counter.add(n);
                }
            }
            let cost = &mut self.goals[gi as usize].cost;
            cost.work += fires;
            cost.fires += fires;
            self.cycles.tick(fires);
        }
        done
    }

    /// Advances every watcher cursor of `gi` to the end of its element
    /// list, counting each firing into `fires_by_kind`. Returns `false`
    /// on budget exhaustion (the goal is re-queued at the front).
    ///
    /// Passes run over the watchers in list order until one adds no
    /// element to the goal: every cursor is then at the end, and the
    /// visit settles the goal's watcher prefix. The first pass starts
    /// past that prefix when the goal gained no element since. Both
    /// shortcuts skip only watchers that would fire nothing.
    fn fire_watchers(
        &mut self,
        cp: &ConstraintProgram,
        gi: u32,
        budget: &mut Budget,
        fires_by_kind: &mut [u64; Watcher::KINDS],
    ) -> bool {
        let src = self.goals[gi as usize].key;
        let mut wi = self.goals[gi as usize].first_unsettled();
        loop {
            let pass_len = self.goals[gi as usize].elems.len();
            while wi < self.goals[gi as usize].watchers.len() {
                loop {
                    let state = &self.goals[gi as usize];
                    let cursor = state.cursors[wi] as usize;
                    if cursor >= state.elems.len() {
                        break;
                    }
                    if !budget.charge(1) {
                        self.requeue_front(gi);
                        self.flight_record(FlightEventKind::Resumed, gi, 0, 0);
                        return false;
                    }
                    let elem = state.elems[cursor];
                    let watcher = state.watchers[wi];
                    self.goals[gi as usize].cursors[wi] = (cursor + 1) as u32;
                    fires_by_kind[watcher.kind_index()] += 1;
                    if let Some(stage) = &mut self.flight {
                        stage.offer_fire(gi, watcher.kind_index() as u32);
                    }
                    Sequential { cp, memo: self }.fire(src, watcher, elem);
                }
                wi += 1;
            }
            let state = &mut self.goals[gi as usize];
            if state.elems.len() == pass_len {
                state.settle();
                return true;
            }
            wi = 0;
        }
    }

    /// Drains the queue. Returns `true` when everything reached fixpoint.
    fn drain(&mut self, cp: &ConstraintProgram, budget: &mut Budget) -> bool {
        while let Some(gi) = self.queue.pop_front() {
            if self.cycles.due() {
                self.collapse_now(cp);
            }
            if self.cycles.find(gi) != gi {
                // Merged away while queued: the representative carries
                // this goal's pending work and was re-enqueued by the
                // merge, so the stale entry is simply dropped.
                continue;
            }
            self.goals[gi as usize].on_list = false;
            if !self.process(cp, gi, budget) {
                return false;
            }
        }
        // Global fixpoint: memoize everything as complete. Merged shells
        // hold no state of their own — their representative does. Goals
        // below the watermark were settled by an earlier sweep, so the
        // sweep costs only the goals tabled since.
        for gi in self.complete_below..self.goals.len() {
            let state = &mut self.goals[gi];
            if state.merged {
                continue;
            }
            debug_assert!(state.quiescent(), "drained queue but goal not quiescent");
            if state.complete {
                continue;
            }
            state.complete = true;
            if self.flight.is_some() {
                let elems = self.goals[gi].elems.len().min(u32::MAX as usize) as u32;
                let work = self.goals[gi].cost.work.min(u32::MAX as u64) as u32;
                self.flight_record(FlightEventKind::Completed, gi as u32, elems, work);
            }
        }
        self.complete_below = self.goals.len();
        true
    }

    /// Runs an SCC pass over the discovered copy graph and merges every
    /// non-trivial component that is still in flux.
    fn collapse_now(&mut self, cp: &ConstraintProgram) {
        let _span = self.obs.span("demand.cycles.collapse");
        self.counters.cycles_runs.inc();
        let index = &self.index;
        let comps = self.cycles.components(|dst| index.get(Goal::Pts(dst)));
        for comp in comps {
            // A completed goal is a frozen memo entry at fixpoint; at
            // fixpoint the complete set is closed under deduction, so a
            // component can only contain completed goals if it contains
            // nothing else — and then there is no work left to save.
            if comp.iter().any(|&g| self.goals[g as usize].complete) {
                continue;
            }
            // Install static rules for members the queue has not reached
            // yet: their subscriptions (including intra-cycle copies that
            // the merge folds away) must exist before states move.
            for &g in &comp {
                let state = &mut self.goals[g as usize];
                if state.needs_init {
                    state.needs_init = false;
                    state.cost.work += 1;
                    let key = state.key;
                    self.counters.work.inc();
                    match key {
                        Goal::Pts(x) => Sequential { cp, memo: self }.install_pts(x),
                        Goal::Ptb(o) => Sequential { cp, memo: self }.install_ptb(o),
                    }
                }
            }
            let rep = self.cycles.union_all(&comp);
            self.counters.cycles_collapsed.inc();
            self.counters.cycles_merged_goals.add(comp.len() as u64 - 1);
            self.flight_record(
                FlightEventKind::CycleMerged,
                rep,
                comp.len().min(u32::MAX as usize) as u32,
                0,
            );
            self.merge_component(&comp, rep);
        }
    }

    /// Folds every goal of `comp` into the state at `rep` (which
    /// [`CopyGraph::union_all`] made the representative): one shared
    /// member set, a deduplicated watcher list, and intra-cycle copy
    /// edges dropped. Carried-over watchers rescan from element zero —
    /// firing is idempotent, so the rescan is a bounded one-time cost.
    fn merge_component(&mut self, comp: &[u32], rep: u32) {
        let rep_key = self.goals[rep as usize].key;
        let mut merged = std::mem::replace(&mut self.goals[rep as usize], GoalState::new(rep_key));
        let mut family = self.aliases.remove(&rep).unwrap_or_default();
        for &g in comp {
            if g == rep {
                continue;
            }
            let key = self.goals[g as usize].key;
            let state = std::mem::replace(&mut self.goals[g as usize], GoalState::new(key));
            let shell = &mut self.goals[g as usize];
            shell.merged = true;
            shell.needs_init = false;
            // Attribution follows the state into the representative.
            merged.cost.work += state.cost.work;
            merged.cost.fires += state.cost.fires;
            family.push(key);
            family.extend(self.aliases.remove(&g).into_iter().flatten());
            for &v in state.elems.iter() {
                merged.elems.insert(v);
            }
            for &w in state.watchers.iter() {
                if merged.watchers.insert(w) {
                    merged.cursors.push(0);
                }
            }
            // The merged fixpoint read everything its members read: the
            // representative's support/deps must cover them all, or an
            // edit touching one member's rows would fail to dirty the
            // family's shared entry.
            for n in state.support.iter() {
                merged.support.insert(n);
            }
            for &dep in state.deps.iter() {
                merged.deps.insert(dep);
            }
            merged.reads_indirect |= state.reads_indirect;
        }
        // Copy edges that now point inside the merged family are the
        // identity: drop them. A re-subscription is suppressed as an
        // identity copy before it reaches the list.
        let mut watchers = Vec::with_capacity(merged.watchers.len());
        let mut cursors = Vec::with_capacity(merged.cursors.len());
        for (&w, &c) in merged.watchers.iter().zip(&merged.cursors) {
            let internal = match w {
                Watcher::CopyTo { dst } => self
                    .index
                    .get(Goal::Pts(dst))
                    .is_some_and(|di| self.cycles.find_readonly(di) == rep),
                _ => false,
            };
            if !internal {
                watchers.push(w);
                cursors.push(c);
            }
        }
        merged.watchers = ListSet::from_vec(watchers);
        merged.cursors = cursors;
        merged.unsettle();
        merged.needs_init = false;
        merged.on_list = false;
        self.goals[rep as usize] = merged;
        self.aliases.insert(rep, family);
        self.enqueue(rep);
    }

    /// Answers one query. The sequential engine is the ring's only writer
    /// while it runs, so its flight events wait in the stage and reach the
    /// ring in one batch when the query ends.
    fn run(&mut self, cp: &ConstraintProgram, goal: Goal) -> QueryResult {
        let _span = self.obs.span("demand.query");
        if let Some(stage) = &mut self.flight {
            stage.sync();
        }
        let result = self.answer(cp, goal);
        if let Some(stage) = &mut self.flight {
            stage.publish();
        }
        result
    }

    fn answer(&mut self, cp: &ConstraintProgram, goal: Goal) -> QueryResult {
        self.last_parallel = false;
        if !self.config.caching {
            self.clear();
        }
        self.counters.queries.inc();
        // Parallel dispatch, decided *before* activation touches the
        // queue: eligible queries are unbudgeted (frames cannot abort
        // mid-step deterministically) and start from a drained queue (no
        // suspended sequential work to interleave with). Already-answered
        // goals, tabled or staged, fall through to the sequential
        // cache-hit path.
        if self.config.workers > 1 && self.config.budget.is_none() && self.queue.is_empty() {
            let cached = match self.index.get(goal) {
                Some(gi) => self.goals[self.cycles.find_readonly(gi) as usize].complete,
                None => self.staged.get(goal).is_some(),
            };
            if !cached {
                return self.run_parallel(cp, goal);
            }
        }
        let gi = self.activate(goal);
        if self.goals[gi as usize].complete {
            self.counters.cache_hits.inc();
            self.counters.complete_queries.inc();
            self.flight_record(FlightEventKind::MemoHit, gi, 0, 0);
            return QueryResult {
                pts: self.snapshot(gi),
                complete: true,
                work: 0,
            };
        }
        let mut budget = Budget::new(self.config.budget).with_deadline(self.deadline);
        let drained = {
            let _span = self.obs.span("demand.query.drain");
            self.drain(cp, &mut budget)
        };
        self.timed_out |= budget.timed_out();
        if drained {
            self.counters.complete_queries.inc();
        }
        // The goal may have merged into a cycle representative mid-drain.
        let gi = self.cycles.find(gi);
        QueryResult {
            pts: self.snapshot(gi),
            complete: self.goals[gi as usize].complete,
            work: budget.used(),
        }
    }

    /// Answers `goal` with the frame scheduler ([`crate::sched`]) on
    /// [`DemandConfig::workers`] threads, seeding frames from this
    /// engine's completed and staged goals, then folds the scheduler's
    /// counters and, when caching, its newly completed fixpoints back
    /// into the table. Answers are bit-identical to the sequential drain
    /// — see the module docs of [`crate::sched`].
    fn run_parallel(&mut self, cp: &ConstraintProgram, goal: Goal) -> QueryResult {
        let _span = self.obs.span("demand.query.parallel");
        self.last_parallel = true;
        let mut sched = Scheduler::new(cp, self.config.clone()).with_obs(self.obs.clone());
        if let Some(stage) = &self.flight {
            // The scheduler's workers write into the ring directly.
            debug_assert!(stage.is_empty(), "flight events left staged");
            sched = sched.with_flight(Arc::clone(stage.recorder()));
        }
        let mut outcome = sched.solve_seeded(goal, Some(self));
        let stats = outcome.stats;
        self.counters.work.add(stats.work);
        self.counters.fires.add(stats.fires);
        for (i, &n) in stats.fires_by_kind.iter().enumerate() {
            if n > 0 {
                self.counters.fires_by_kind[i].add(n);
            }
        }
        self.counters.sched_parked.add(stats.parked);
        self.counters.sched_resumed.add(stats.resumed);
        self.counters.sched_steals.add(stats.steals);
        self.counters.sched_wakeups.add(stats.wakeups);
        self.counters.flight_events.add(stats.flight_events);
        let work = stats.work;
        if self.config.caching {
            for state in outcome.completed() {
                // Table the fixpoint, with its cost, so later queries
                // (parallel or sequential) answer from the memo and
                // `inspect` sees the work. Goals the engine already tables
                // (e.g. incomplete from an old budgeted query) are left
                // untouched.
                if self.index.get(state.key).is_none() {
                    self.push(state);
                }
            }
        } else {
            self.counters.goals_activated.add(stats.activated);
        }
        self.counters.complete_queries.inc();
        QueryResult {
            pts: std::mem::take(&mut outcome.pts),
            complete: true,
            work,
        }
    }

    fn snapshot(&self, gi: u32) -> Vec<NodeId> {
        self.goals[gi as usize]
            .sorted_elems()
            .into_iter()
            .map(NodeId::from_u32)
            .collect()
    }
}

/// The sequential evaluator: the shared rule system ([`crate::rules`])
/// run over one program and the engine's memo table, built for the
/// length of one rule application. The scheduler's workers
/// ([`crate::sched`]) implement the same trait against frames.
struct Sequential<'a> {
    cp: &'a ConstraintProgram,
    memo: &'a mut Memo,
}

impl<'a> Deduce<'a> for Sequential<'a> {
    fn cp(&self) -> &'a ConstraintProgram {
        self.cp
    }

    fn add(&mut self, goal: Goal, value: u32, origin: Origin) {
        self.memo.add_fact(goal, value, origin);
    }

    fn subscribe(&mut self, goal: Goal, watcher: Watcher) {
        self.memo.subscribe_watcher(goal, watcher);
    }

    fn note_support(&mut self, goal: Goal, node: NodeId) {
        if let Some(gi) = self.memo.index.get(goal) {
            let gi = self.memo.cycles.find(gi);
            self.memo.goals[gi as usize].support.insert(node.as_u32());
        }
    }

    fn note_indirect(&mut self, goal: Goal) {
        if let Some(gi) = self.memo.index.get(goal) {
            let gi = self.memo.cycles.find(gi);
            self.memo.goals[gi as usize].reads_indirect = true;
        }
    }

    fn note_dep(&mut self, consumer: Goal, producer: Goal) {
        let memo = &mut *self.memo;
        let Some(ci) = memo.index.get(consumer) else {
            return;
        };
        let ci = memo.cycles.find(ci);
        if let Some(pi) = memo.index.get(producer) {
            if memo.cycles.find(pi) == ci {
                return;
            }
        }
        memo.goals[ci as usize].deps.insert(producer);
    }

    fn calls<R>(&mut self, op: impl FnOnce(&mut CallEdges) -> R) -> R {
        op(&mut self.memo.calls)
    }
}

fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_constraints::ConstraintBuilder;

    fn names(cp: &ConstraintProgram, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| cp.display_node(n)).collect()
    }

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn answers_copy_chain() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r = engine.points_to(node(&cp, "r"));
        assert!(r.complete);
        assert_eq!(names(&cp, &r.pts), vec!["o"]);
    }

    #[test]
    fn answers_load_store() {
        // p = &o; x = &t; *p = x; y = *p  ⇒  pts(y) = {t}
        let cp = ddpa_constraints::parse_constraints("p = &o\nx = &t\n*p = x\ny = *p\n")
            .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let y = engine.points_to(node(&cp, "y"));
        assert!(y.complete);
        assert_eq!(names(&cp, &y.pts), vec!["t"]);
        // And the object's own points-to set.
        let o = engine.points_to(node(&cp, "o"));
        assert_eq!(names(&cp, &o.pts), vec!["t"]);
    }

    #[test]
    fn pointed_to_by_inverse() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &o2\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let ptb = engine.pointed_to_by(node(&cp, "o"));
        assert!(ptb.complete);
        assert_eq!(names(&cp, &ptb.pts), vec!["p", "q"]);
    }

    #[test]
    fn resolves_indirect_call_on_demand() {
        let cp = ddpa_constraints::parse_constraints(
            "fun f/1\n\
             f::ret = f::arg0\n\
             fp = &f\n\
             x = &o\n\
             icall fp(x) -> r\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r = engine.points_to(node(&cp, "r"));
        assert!(r.complete);
        assert_eq!(names(&cp, &r.pts), vec!["o"]);
        let cs = cp.callsites().indices().next().expect("callsite");
        let targets = engine.call_targets(cs);
        assert!(targets.resolved);
        assert_eq!(targets.targets.len(), 1);
    }

    #[test]
    fn warm_start_installs_fixpoints_and_answers_with_zero_work() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        // Derive the fixpoints once, capture the export.
        let mut warm = DemandEngine::new(&cp, DemandConfig::default());
        let full = warm.points_to(node(&cp, "r"));
        let exported = warm.export_completed();
        assert!(!exported.is_empty());

        // A fresh engine warm-starts from them: staged, not yet tabled.
        let mut cold = DemandEngine::new(&cp, DemandConfig::default());
        let installed = cold.warm_start(&exported);
        assert_eq!(installed, exported.len());
        assert_eq!(cold.tabled_goals(), 0, "restore is lazy");
        assert_eq!(cold.export_completed(), exported);
        // Re-staging is a no-op: the goals are already staged.
        assert_eq!(cold.warm_start(&exported), 0);
        let reused = cold.points_to(node(&cp, "r"));
        assert_eq!(reused.pts, full.pts);
        assert_eq!(reused.work, 0, "restored answer costs zero rule firings");
        assert_eq!(cold.stats().share_hits, 1, "the hit moved one entry in");
        assert_eq!(cold.tabled_goals(), 1);
        // A tabled goal is not staged again.
        assert_eq!(cold.warm_start(&exported), 0);
        assert_eq!(cold.export_completed(), exported);
        // And the memo keeps working for queries beyond the snapshot.
        let o = cold.points_to(node(&cp, "o"));
        assert!(o.complete);
        // `invalidate` drops what is still staged.
        cold.invalidate();
        assert!(cold.export_completed().is_empty());
    }

    #[test]
    fn value_flow_cycle_reaches_fixpoint() {
        // x and y copy into each other; both see both objects.
        let cp =
            ddpa_constraints::parse_constraints("x = y\ny = x\nx = &a\ny = &b\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let x = engine.points_to(node(&cp, "x"));
        assert!(x.complete);
        assert_eq!(names(&cp, &x.pts), vec!["a", "b"]);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete_and_resumes() {
        // A long copy chain so any small budget fails.
        let mut b = ConstraintBuilder::new();
        let o = b.var("obj");
        let first = b.var("v0");
        b.addr_of(first, o);
        let mut prev = first;
        for i in 1..200 {
            let v = b.var(&format!("v{i}"));
            b.copy(v, prev);
            prev = v;
        }
        let cp = b.build();
        let last = node(&cp, "v199");

        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_budget(10));
        let r1 = engine.points_to(last);
        assert!(!r1.complete);

        // Retrying with the same small budget makes gradual progress and
        // eventually completes thanks to resumption.
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 1000, "resumption failed to converge");
            let r = engine.points_to(last);
            if r.complete {
                assert_eq!(names(&cp, &r.pts), vec!["obj"]);
                break;
            }
        }
        assert!(engine.stats().queries > 2);
    }

    #[test]
    fn partial_result_is_subset_of_full() {
        let cp = ddpa_constraints::parse_constraints("p = &a\np = &b\nq = p\n*q = p\nr = *q\n")
            .expect("parses");
        let full = {
            let mut e = DemandEngine::new(&cp, DemandConfig::default());
            e.points_to(node(&cp, "r"))
        };
        assert!(full.complete);
        for budget in [1u64, 2, 4, 8, 16, 32] {
            let mut e = DemandEngine::new(&cp, DemandConfig::default().with_budget(budget));
            let partial = e.points_to(node(&cp, "r"));
            for n in &partial.pts {
                assert!(
                    full.pts.contains(n),
                    "partial exceeded full at budget {budget}"
                );
            }
        }
    }

    #[test]
    fn caching_answers_second_query_for_free() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let first = engine.points_to(node(&cp, "q"));
        assert!(first.work > 0);
        let second = engine.points_to(node(&cp, "q"));
        assert_eq!(second.work, 0);
        assert_eq!(engine.stats().cache_hits, 1);
        // A different-but-overlapping query reuses the tabled subgoal.
        let p = engine.points_to(node(&cp, "p"));
        assert!(p.complete);
        assert_eq!(
            p.work, 0,
            "pts(p) was already tabled while answering pts(q)"
        );
    }

    #[test]
    fn no_caching_redoes_work() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().without_caching());
        let first = engine.points_to(node(&cp, "q"));
        let second = engine.points_to(node(&cp, "q"));
        assert!(first.work > 0);
        assert_eq!(first.work, second.work);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn reload_after_adding_constraints_sees_new_edge() {
        // The "incremental edit" scenario ddpa-serve drives: answer a
        // query, append a constraint, reload, and the same query must see
        // the new edge instead of the stale memoized answer.
        let before = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let after =
            ddpa_constraints::parse_constraints("p = &o\nq = p\np = &o2\n").expect("parses");
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        assert_eq!(engine.generation(), 0);

        let r1 = engine.points_to(node(&before, "q"));
        assert!(r1.complete);
        assert_eq!(names(&before, &r1.pts), vec!["o"]);
        assert!(engine.tabled_goals() > 0);

        engine.reload(&after);
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.tabled_goals(), 0, "memo table dropped");

        let r2 = engine.points_to(node(&after, "q"));
        assert!(r2.complete);
        assert_eq!(
            names(&after, &r2.pts),
            vec!["o", "o2"],
            "the added p = &o2 edge is visible, not the stale memo"
        );
        assert!(r2.work > 0, "answer was re-deduced, not cache-served");
    }

    #[test]
    fn incremental_reload_keeps_untouched_goals_warm() {
        // Two independent chains; editing one must not evict the other.
        let before =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\n").expect("parses");
        let after =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\ns = r\n").expect("parses");
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        assert!(engine.points_to(node(&before, "q")).complete);
        assert!(engine.points_to(node(&before, "r")).complete);

        let diff = ddpa_constraints::diff_programs(&before, &after);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full);
        assert!(stats.retained > 0, "the p/q chain survives the edit");
        assert!(stats.invalidated > 0, "r's row changed, so pts(r) is dirty");
        assert_eq!(engine.generation(), 1, "edits still bump the generation");

        let q = engine.points_to(node(&after, "q"));
        assert_eq!(names(&after, &q.pts), vec!["o"]);
        assert_eq!(q.work, 0, "untouched goal answers from the warm table");
        let s = engine.points_to(node(&after, "s"));
        assert_eq!(names(&after, &s.pts), vec!["u"], "new edge is visible");
    }

    #[test]
    fn incremental_reload_dirties_transitive_consumers() {
        // pts(q) depends on pts(p); editing p's addr row must dirty both.
        let before = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let after =
            ddpa_constraints::parse_constraints("p = &o\nq = p\np = &o2\n").expect("parses");
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        assert_eq!(
            names(&before, &engine.points_to(node(&before, "q")).pts),
            vec!["o"]
        );

        let diff = ddpa_constraints::diff_programs(&before, &after);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full);
        assert!(stats.invalidated > 0);

        let q = engine.points_to(node(&after, "q"));
        assert_eq!(
            names(&after, &q.pts),
            vec!["o", "o2"],
            "consumer of the edited goal was re-derived"
        );
        assert!(
            q.work > 0,
            "dirtied answer was re-deduced, not cache-served"
        );
    }

    #[test]
    fn incremental_reload_falls_back_on_incompatible_diff() {
        let before = ddpa_constraints::parse_constraints(
            "p = &o\nq = p\nr0 = &u\nr1 = r0\nr2 = r1\nr0 = r2\nt = r1\n",
        )
        .expect("parses");
        let after = ddpa_constraints::parse_constraints("z = &w\np = z\n").expect("parses");
        // The engine stages a donor's fixpoints for `q` and tables the
        // collapsed ring below `t` itself.
        let config = DemandConfig::default().with_collapse_threshold(1);
        let mut donor = DemandEngine::new(&before, config.clone());
        assert!(donor.points_to(node(&before, "q")).complete);
        let mut engine = DemandEngine::new(&before, config);
        assert!(engine.warm_start(donor.export_completed()) > 0);
        assert!(engine.points_to(node(&before, "t")).complete);
        assert!(engine.stats().merged_goals > 0, "the ring collapsed");
        let exported = engine.export_completed().len();

        let diff = ddpa_constraints::diff_programs(&before, &after);
        assert!(!diff.compatible);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(
            stats.full,
            "incompatible node spaces force full invalidation"
        );
        assert_eq!(stats.retained, 0);
        assert_eq!(
            stats.invalidated + stats.retained,
            exported,
            "every exported entry, staged or merged-in, is counted"
        );
        assert_eq!(engine.tabled_goals(), 0);
    }

    #[test]
    fn incremental_reload_keeps_staged_survivors_staged() {
        let before =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\n").expect("parses");
        let after =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\ns = r\n").expect("parses");
        let mut donor = DemandEngine::new(&before, DemandConfig::default());
        assert!(donor.points_to(node(&before, "q")).complete);
        assert!(donor.points_to(node(&before, "r")).complete);
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        engine.warm_start(donor.export_completed());

        let diff = ddpa_constraints::diff_programs(&before, &after);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full);
        assert!(stats.retained > 0 && stats.invalidated > 0);
        assert_eq!(engine.tabled_goals(), 0, "survivors stay staged");
        // Survivors are still exported; dirtied entries are gone.
        let kept = engine.export_completed();
        assert_eq!(kept.len(), stats.retained);
        assert!(kept.iter().any(|(g, _)| *g == Goal::Pts(node(&after, "q"))));
        assert!(!kept.iter().any(|(g, _)| *g == Goal::Pts(node(&after, "r"))));
        assert_eq!(engine.points_to(node(&after, "q")).work, 0);
    }

    #[test]
    fn invalidate_bumps_generation_and_redoes_work() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let q = node(&cp, "q");
        let first = engine.points_to(q);
        assert!(first.work > 0);
        let cached = engine.points_to(q);
        assert_eq!(cached.work, 0);

        engine.invalidate();
        assert_eq!(engine.generation(), 1);
        let redone = engine.points_to(q);
        assert_eq!(redone.pts, first.pts, "same answer after invalidation");
        assert_eq!(redone.work, first.work, "fully re-deduced");
        assert_eq!(
            engine.stats().cache_hits,
            1,
            "only the pre-invalidation repeat hit the cache"
        );

        engine.invalidate();
        assert_eq!(engine.generation(), 2);
    }

    #[test]
    fn may_alias_detects_overlap() {
        let cp =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &other\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let pq = engine.may_alias(node(&cp, "p"), node(&cp, "q"));
        assert!(pq.may_alias);
        assert!(pq.resolved);
        let pr = engine.may_alias(node(&cp, "p"), node(&cp, "r"));
        assert!(!pr.may_alias);
        assert!(pr.resolved);
    }

    #[test]
    fn unresolved_call_falls_back_to_address_taken() {
        // fp flows through a long chain; a tiny budget cannot resolve it.
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 0);
        let g = b.func("g", 0);
        let f_obj = b.func_info(f).object;
        let _ = g;
        let first = b.var("fp0");
        b.addr_of(first, f_obj);
        let mut prev = first;
        for i in 1..100 {
            let v = b.var(&format!("fp{i}"));
            b.copy(v, prev);
            prev = v;
        }
        let cs = b.call_indirect(prev, vec![], None);
        let cp = b.build();
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_budget(5));
        let targets = engine.call_targets(cs);
        assert!(!targets.resolved);
        // Fallback: only f is address-taken.
        assert_eq!(targets.targets, vec![f]);
    }
}

#[cfg(test)]
mod cycle_tests {
    use super::*;
    use ddpa_constraints::ConstraintBuilder;
    use std::collections::HashSet;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    /// A ring of `len` copy-related vars seeded with `objs` address-of
    /// constraints spread around it, plus a tail var reading from the
    /// ring. Every ring member's final set is all `objs` objects.
    fn ring_program(len: usize, objs: usize) -> ConstraintProgram {
        let mut b = ConstraintBuilder::new();
        let objects: Vec<_> = (0..objs).map(|j| b.var(&format!("obj_{j}"))).collect();
        let vars: Vec<_> = (0..len).map(|i| b.var(&format!("r{i}"))).collect();
        for i in 1..len {
            b.copy(vars[i], vars[i - 1]);
        }
        b.copy(vars[0], vars[len - 1]);
        for (j, &o) in objects.iter().enumerate() {
            b.addr_of(vars[j * len / objs], o);
        }
        let tail = b.var("tail");
        b.copy(tail, vars[len / 3]);
        b.build()
    }

    #[test]
    fn ring_collapses_to_one_representative() {
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        let r = engine.points_to(node(&cp, "tail"));
        assert!(r.complete);
        let names: Vec<String> = r.pts.iter().map(|&n| cp.display_node(n)).collect();
        assert_eq!(names, vec!["obj_0", "obj_1"]);
        let stats = engine.stats();
        assert!(stats.cycle_runs >= 1, "SCC pass ran");
        assert!(stats.cycles_collapsed >= 1, "the ring was collapsed");
        assert_eq!(stats.merged_goals, 7, "eight goals fused into one");
    }

    #[test]
    fn collapsing_matches_uncollapsed_answers() {
        // Every query form, on vs off, on a program mixing a ring with
        // loads and stores through it.
        let cp = ddpa_constraints::parse_constraints(
            "x = y\ny = z\nz = x\nx = &a\nz = &b\n\
             p = &x\n*p = z\nw = *p\nq = x\n",
        )
        .expect("parses");
        let mut on = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        let mut off = DemandEngine::new(&cp, DemandConfig::default().without_cycle_collapsing());
        for n in cp.node_ids() {
            assert_eq!(on.points_to(n).pts, off.points_to(n).pts, "pts diverged");
            assert_eq!(
                on.pointed_to_by(n).pts,
                off.pointed_to_by(n).pts,
                "ptb diverged"
            );
        }
        assert!(on.stats().cycles_collapsed >= 1, "collapse actually ran");
    }

    #[test]
    fn collapsing_reduces_work_on_rings() {
        let cp = ring_program(64, 16);
        let work_of = |config: DemandConfig| {
            let mut e = DemandEngine::new(&cp, config);
            let r = e.points_to(node(&cp, "tail"));
            assert!(r.complete);
            (e.stats().work, e.stats().fires, r.pts)
        };
        let (work_on, fires_on, pts_on) =
            work_of(DemandConfig::default().with_collapse_threshold(8));
        let (work_off, fires_off, pts_off) =
            work_of(DemandConfig::default().without_cycle_collapsing());
        assert_eq!(pts_on, pts_off, "answers bit-identical");
        assert!(
            work_on * 2 <= work_off,
            "expected ≥2× work reduction, got {work_on} vs {work_off}"
        );
        assert!(
            fires_on * 2 <= fires_off,
            "expected ≥2× fire reduction, got {fires_on} vs {fires_off}"
        );
    }

    /// A collapsed family's representative records each member's
    /// producers exactly once: its deps are the set the uncollapsed
    /// goals record between them, long enough to be indexed.
    #[test]
    fn merged_deps_are_the_members_union() {
        let cp = ring_program(40, 3);
        let tail = node(&cp, "tail");
        let mut on = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        let mut off = DemandEngine::new(&cp, DemandConfig::default().without_cycle_collapsing());
        on.points_to(tail);
        off.points_to(tail);
        let memo = &on.memo;
        let rep = memo.index.get(Goal::Pts(node(&cp, "r0"))).expect("tabled");
        let rep = memo.cycles.find_readonly(rep) as usize;
        let state = &memo.goals[rep];
        let aliases = &memo.aliases[&(rep as u32)];
        assert_eq!(aliases.len(), 39, "the whole ring merged");
        let distinct: HashSet<Goal> = state.deps.iter().copied().collect();
        assert_eq!(distinct.len(), state.deps.len(), "no dep recorded twice");
        let family = std::iter::once(state.key).chain(aliases.iter().copied());
        let union: HashSet<Goal> = family
            .flat_map(|g| {
                let gi = off.memo.index.get(g).expect("tabled uncollapsed");
                off.memo.goals[gi as usize].deps.iter().copied()
            })
            .collect();
        assert_eq!(distinct, union);
        assert_eq!(union.len(), 40);
    }

    #[test]
    fn collapsed_goals_are_cached_complete() {
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        let first = engine.points_to(node(&cp, "r3"));
        assert!(first.complete && first.work > 0);
        // Every ring member now answers from the family's merged entry.
        for i in 0..8 {
            let r = engine.points_to(node(&cp, &format!("r{i}")));
            assert!(r.complete);
            assert_eq!(r.work, 0, "r{i} served from the merged memo");
            assert_eq!(r.pts, first.pts);
        }
        assert_eq!(engine.stats().cache_hits, 8);
    }

    #[test]
    fn budget_resumption_with_collapsing() {
        let cp = ring_program(32, 4);
        let mut engine = DemandEngine::new(
            &cp,
            DemandConfig::default()
                .with_collapse_threshold(4)
                .with_budget(10),
        );
        let tail = node(&cp, "tail");
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 1000, "resumption failed to converge");
            let r = engine.points_to(tail);
            for n in &r.pts {
                let name = cp.display_node(*n);
                assert!(name.starts_with("obj_"), "partial stayed sound: {name}");
            }
            if r.complete {
                assert_eq!(r.pts.len(), 4);
                break;
            }
        }
        assert!(attempts > 1, "budget 10 cannot finish a 32-ring at once");
    }

    #[test]
    fn reload_resets_union_find() {
        // First program: x, y, z form a cycle and collapse. Second
        // program: the cycle is broken (z no longer feeds x) — a stale
        // union-find would keep serving the merged set.
        let before = ddpa_constraints::parse_constraints("x = y\ny = z\nz = x\nx = &a\nz = &b\n")
            .expect("parses");
        let after =
            ddpa_constraints::parse_constraints("x = y\ny = z\nz = &b\nx = &a\n").expect("parses");
        let mut engine =
            DemandEngine::new(&before, DemandConfig::default().with_collapse_threshold(1));
        let r1 = engine.points_to(node(&before, "x"));
        assert_eq!(r1.pts.len(), 2, "cycle: x sees both objects");
        assert!(engine.stats().cycles_collapsed >= 1);

        engine.reload(&after);
        let z = engine.points_to(node(&after, "z"));
        assert_eq!(
            z.pts
                .iter()
                .map(|&n| after.display_node(n))
                .collect::<Vec<_>>(),
            vec!["b"],
            "broken cycle: z no longer sees a"
        );
        let x = engine.points_to(node(&after, "x"));
        assert_eq!(x.pts.len(), 2, "x still reads z through the chain");
    }

    #[test]
    fn self_copy_is_suppressed() {
        let cp = ddpa_constraints::parse_constraints("x = x\nx = &o\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r = engine.points_to(node(&cp, "x"));
        assert!(r.complete);
        assert_eq!(r.pts.len(), 1);
    }

    #[test]
    fn explanation_survives_merging() {
        // The default engine fuses the ring, but each member's facts are
        // still explained through its own goal: the explainer derives on
        // an engine of its own that never collapses.
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        assert!(engine.points_to(node(&cp, "tail")).complete);
        assert!(engine.stats().cycles_collapsed >= 1, "merge happened");
        let obj_a = node(&cp, "obj_0");
        let obj_b = node(&cp, "obj_1");
        let mut queries: Vec<NodeId> = (0..8).map(|i| node(&cp, &format!("r{i}"))).collect();
        queries.push(node(&cp, "tail"));
        for v in queries {
            for o in [obj_a, obj_b] {
                let e = crate::explain_points_to(&cp, v, o)
                    .unwrap_or_else(|| panic!("no explanation for {}", cp.display_node(v)));
                assert_eq!(e.steps[0].goal, Goal::Pts(v), "the chain starts at v");
                for pair in e.steps.windows(2) {
                    let Origin::Rule { watcher, src, elem } = pair[0].origin else {
                        panic!("a base fact ends the chain");
                    };
                    assert_eq!(watcher.consumer(), pair[0].goal);
                    assert_eq!((src, elem), (pair[1].goal, pair[1].elem));
                }
                assert_eq!(e.steps.last().expect("nonempty").origin, Origin::Base);
            }
        }
    }

    #[test]
    fn merged_families_survive_incremental_reload() {
        let text = ddpa_constraints::print_constraints(&ring_program(8, 2));
        let before = ddpa_constraints::parse_constraints(&text).expect("parses");
        let mut after = ddpa_constraints::parse_constraints(&text).expect("parses");
        let diff =
            ddpa_constraints::append_constraints(&mut after, "far = &away\n", text.lines().count())
                .expect("appends");
        let config = DemandConfig::default().with_collapse_threshold(1);
        let mut engine = DemandEngine::new(&before, config);
        assert!(engine.points_to(node(&before, "tail")).complete);
        assert!(engine.stats().cycles_collapsed >= 1, "merge happened");

        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full);
        assert_eq!(stats.invalidated, 0, "the edit touches nothing tabled");
        assert!(stats.retained >= 9, "every ring key and the tail survive");
        // Every alias was re-tabled under its own key with the family's
        // fixpoint.
        let objs = [node(&after, "obj_0"), node(&after, "obj_1")];
        for i in 0..8 {
            let answer = engine.points_to(node(&after, &format!("r{i}")));
            assert_eq!(answer.work, 0, "r{i} answers from the warm table");
            assert_eq!(answer.pts, objs);
        }
    }

    #[test]
    fn stats_stay_zero_when_disabled() {
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().without_cycle_collapsing());
        let r = engine.points_to(node(&cp, "tail"));
        assert!(r.complete);
        let stats = engine.stats();
        assert_eq!(stats.cycle_runs, 0);
        assert_eq!(stats.cycles_collapsed, 0);
        assert_eq!(stats.merged_goals, 0);
    }
}

#[cfg(test)]
mod field_tests {
    use super::*;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn field_addresses_resolve_per_object() {
        // Two structs; each pointer reaches only its own object's field.
        let cp = ddpa_constraints::parse_constraints(
            "field s1.0\n\
             field s2.0\n\
             p1 = &s1\n\
             p2 = &s2\n\
             f1 = &p1->0\n\
             f2 = &p2->0\n\
             x = &val\n\
             *f1 = x\n\
             r1 = *f1\n\
             r2 = *f2\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r1 = engine.points_to(node(&cp, "r1"));
        assert!(r1.complete);
        assert_eq!(r1.pts.len(), 1);
        assert_eq!(cp.display_node(r1.pts[0]), "val");
        // Field-sensitivity: s2.f0 was never written.
        let r2 = engine.points_to(node(&cp, "r2"));
        assert!(r2.complete);
        assert!(
            r2.pts.is_empty(),
            "fields of distinct objects stay distinct"
        );
    }

    #[test]
    fn field_ptb_finds_field_pointers() {
        let cp = ddpa_constraints::parse_constraints(
            "field s.0\n\
             p = &s\n\
             q = p\n\
             f1 = &p->0\n\
             f2 = &q->0\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let s = node(&cp, "s");
        let fld = cp.field_of(s, 0).expect("field node");
        let ptb = engine.pointed_to_by(fld);
        assert!(ptb.complete);
        let names: Vec<String> = ptb.pts.iter().map(|&n| cp.display_node(n)).collect();
        assert_eq!(names, vec!["f1", "f2"]);
    }

    #[test]
    fn objects_without_the_field_are_skipped() {
        let cp = ddpa_constraints::parse_constraints(
            "field s.0\n\
             p = &s\n\
             p = &plain\n\
             f = &p->0\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let f = engine.points_to(node(&cp, "f"));
        assert!(f.complete);
        assert_eq!(f.pts.len(), 1);
        assert_eq!(cp.display_node(f.pts[0]), "s.f0");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::explain_points_to;
    use crate::trace::Origin;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn explains_copy_chain_back_to_base() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let (r, o) = (node(&cp, "r"), node(&cp, "o"));
        let explanation = explain_points_to(&cp, r, o).expect("o ∈ pts(r)");
        assert_eq!(explanation.steps.len(), 3);
        assert_eq!(
            explanation.steps.last().expect("base step").origin,
            Origin::Base
        );
        let text = explanation.render(&cp);
        assert!(text.contains("o ∈ pts(r)"), "{text}");
        assert!(text.contains("o ∈ pts(p)"), "{text}");
        assert!(text.contains("[ADDR]"), "{text}");
    }

    #[test]
    fn explains_through_loads_and_stores() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nx = &t\n*p = x\ny = *p\n")
            .expect("parses");
        let (y, t) = (node(&cp, "y"), node(&cp, "t"));
        let explanation = explain_points_to(&cp, y, t).expect("t ∈ pts(y)");
        // The chain ends at x = &t.
        assert_eq!(explanation.steps.last().expect("base").origin, Origin::Base);
        assert!(explanation.steps.len() >= 2);
    }

    #[test]
    fn no_explanation_for_a_false_fact() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = &o2\n").expect("parses");
        let (p, o2, q) = (node(&cp, "p"), node(&cp, "o2"), node(&cp, "q"));
        assert!(explain_points_to(&cp, p, o2).is_none());
        assert!(explain_points_to(&cp, p, q).is_none());
    }

    #[test]
    fn tracing_does_not_change_answers() {
        // Recording provenance with collapsing off derives exactly the
        // facts the default engine answers.
        let cp = ddpa_constraints::parse_constraints(
            "p = &a\nq = p\n*q = p\nr = *q\nx = y\ny = x\nx = &b\n",
        )
        .expect("parses");
        let mut plain = DemandEngine::new(&cp, DemandConfig::default());
        for n in cp.node_ids() {
            let pts = plain.points_to(n).pts;
            for o in cp.node_ids() {
                assert_eq!(
                    explain_points_to(&cp, n, o).is_some(),
                    pts.contains(&o),
                    "{} ∈ pts({})",
                    cp.display_node(o),
                    cp.display_node(n)
                );
            }
        }
    }
}
