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
//! recursively — the on-the-fly call graph.
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ddpa_constraints::{CalleeRef, ConstraintProgram, FuncId, NodeId};
use ddpa_obs::{Counter, FlightConfig, FlightEventKind, FlightRecorder, Obs};

use crate::budget::Budget;
use crate::config::DemandConfig;
use crate::cycles::CopyGraph;
use crate::goal::{Goal, GoalState, Watcher};
use crate::query::{AliasResult, CallTargets, QueryResult};
use crate::rules::Deduce;
use crate::sched::{EngineView, Scheduler};
use crate::share::{close_dirty, CompletedGoal, DirtyView, SharedMemo, SupportRef, ViewIndex};
use crate::stats::EngineStats;
use crate::trace::{Explanation, Origin, TraceStep};

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
    cp: &'p ConstraintProgram,
    config: DemandConfig,
    pub(crate) goals: Vec<GoalState>,
    pub(crate) keys: Vec<Goal>,
    pub(crate) index: HashMap<Goal, u32>,
    queue: VecDeque<u32>,
    obs: Obs,
    counters: EngineCounters,
    provenance: HashMap<(Goal, u32), Origin>,
    generation: u64,
    /// Copy-graph edges and the goal-merging union-find; every goal-index
    /// lookup routes through [`CopyGraph::find`].
    pub(crate) cycles: CopyGraph,
    /// Cross-engine memo table, when attached
    /// ([`DemandEngine::with_shared_memo`]); ignored while
    /// [`DemandConfig::caching`] is off.
    shared: Option<Arc<SharedMemo>>,
    /// The [`SharedMemo`] generation this engine's tabled state was
    /// computed under; lookups and publishes against any other
    /// generation are refused by the table.
    shared_gen: u64,
    /// Goals already published to (or installed from) the shared table,
    /// so a drain never re-publishes the whole table.
    published: HashSet<Goal>,
    /// The deduction flight recorder, when enabled
    /// ([`DemandConfig::flight`]). Recording is append-only and never
    /// feeds back into deduction, so answers are identical either way.
    pub(crate) flight: Option<Arc<FlightRecorder>>,
    /// Per-goal attribution, parallel to `goals`: how much work and how
    /// many rule firings each goal's processing consumed. Folded into the
    /// representative when a cycle merges. Drives the top-k "hottest
    /// goals" view and the critical-path analyzer ([`crate::inspect`]).
    pub(crate) costs: Vec<GoalCost>,
    /// Whether the most recent query dispatched to the frame scheduler.
    /// Hosts that request parallel execution read this to report a
    /// sequential fallback honestly instead of implying parallelism.
    last_parallel: bool,
}

/// What an incremental edit ([`DemandEngine::reload_incremental`]) did
/// to the memoized state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Completed entries dropped because the edit transitively dirtied
    /// them (or, on the full path, every completed entry).
    pub invalidated: usize,
    /// Completed entries kept warm and re-installed.
    pub retained: usize,
    /// Dependency edges the dirty propagation traversed.
    pub dirty_edges: u64,
    /// `true` when the engine fell back to full invalidation
    /// (incompatible diff or caching off).
    pub full: bool,
}

/// Work/fires attributed to one goal (see [`crate::inspect`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct GoalCost {
    /// Work ticks charged while processing this goal (init + firings).
    pub work: u64,
    /// Rule firings delivered while processing this goal.
    pub fires: u64,
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
    share_publishes: Counter,
    share_evictions: Counter,
    flight_events: Counter,
    sched_parked: Counter,
    sched_resumed: Counter,
    sched_steals: Counter,
    sched_wakeups: Counter,
    /// Per-[`Watcher`] variant fire counts, indexed by
    /// [`Watcher::kind_index`].
    fires_by_kind: [Counter; 12],
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
            share_publishes: obs.counter("demand.share.publishes"),
            share_evictions: obs.counter("demand.share.evictions"),
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
    pub fn new(cp: &'p ConstraintProgram, config: DemandConfig) -> Self {
        DemandEngine::with_obs(cp, config, Obs::new())
    }

    /// Creates an engine publishing metrics and spans into `obs` — share
    /// one [`Obs`] across engines and solvers to aggregate a whole run.
    pub fn with_obs(cp: &'p ConstraintProgram, config: DemandConfig, obs: Obs) -> Self {
        let counters = EngineCounters::new(&obs);
        let cycles = CopyGraph::new(config.collapse_cycles, config.collapse_threshold);
        let flight = config.flight.then(|| {
            Arc::new(FlightRecorder::new(FlightConfig {
                capacity: config.flight_capacity,
                sample: config.flight_sample,
            }))
        });
        DemandEngine {
            cp,
            config,
            goals: Vec::new(),
            keys: Vec::new(),
            index: HashMap::new(),
            queue: VecDeque::new(),
            obs,
            counters,
            provenance: HashMap::new(),
            generation: 0,
            cycles,
            shared: None,
            shared_gen: 0,
            published: HashSet::new(),
            flight,
            costs: Vec::new(),
            last_parallel: false,
        }
    }

    /// Whether the most recent query ran on the frame scheduler
    /// ([`crate::sched`]) rather than the sequential drain. False for
    /// cache hits and for queries the engine pinned to the sequential
    /// path (budgeted, traced, or resuming suspended work).
    pub fn last_query_parallel(&self) -> bool {
        self.last_parallel
    }

    /// The deduction flight recorder, when enabled
    /// ([`DemandConfig::flight`]). Snapshot it at any time to reconstruct
    /// recent engine activity; see `docs/OBSERVABILITY.md`.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Records one flight event (no-op when the recorder is off).
    #[inline]
    fn flight_record(&self, kind: FlightEventKind, a: u32, b: u32, work: u32) {
        if let Some(flight) = &self.flight {
            flight.record(kind, a, b, work);
            self.counters.flight_events.inc();
        }
    }

    /// Attaches a shared cross-engine memo table (concurrent tabling).
    ///
    /// On activating a goal it has not tabled, the engine first consults
    /// `shared`: a hit installs the published member set as a completed
    /// local goal, costing zero rule firings for that whole subtree. On
    /// every successful drain the engine publishes its newly completed
    /// goals, so engines attached to the same table do each subgoal's
    /// work once between them. Gated on [`DemandConfig::caching`]: with
    /// caching off every query clears local state and the shared table
    /// is ignored entirely.
    ///
    /// [`DemandEngine::invalidate`] / [`DemandEngine::reload`] bump the
    /// table's generation, so entries computed against the old program
    /// are never served again (see [`SharedMemo`]). Attach the table at
    /// construction time, before issuing queries.
    pub fn with_shared_memo(mut self, shared: Arc<SharedMemo>) -> Self {
        self.shared_gen = shared.generation();
        self.shared = Some(shared);
        self
    }

    /// The shared memo table this engine consults, if one is attached.
    pub fn shared_memo(&self) -> Option<&Arc<SharedMemo>> {
        self.shared.as_ref()
    }

    /// The observability hub this engine publishes into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The program being analyzed.
    pub fn program(&self) -> &'p ConstraintProgram {
        self.cp
    }

    /// The current configuration.
    pub fn config(&self) -> &DemandConfig {
        &self.config
    }

    /// Replaces the configuration (used by [`crate::BudgetLadder`]).
    pub fn set_config(&mut self, config: DemandConfig) {
        self.config = config;
    }

    /// Adjusts only the per-query budget.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.config.budget = budget;
    }

    /// Adjusts only the per-query worker count (clamped to ≥ 1). Used by
    /// hosts that toggle intra-query parallelism per request.
    pub fn set_workers(&mut self, workers: usize) {
        self.config.workers = workers.max(1);
    }

    /// Adjusts the scheduler policy used by parallel queries.
    pub fn set_sched_policy(&mut self, policy: crate::config::SchedPolicy) {
        self.config.sched_policy = policy;
    }

    /// A snapshot of the cumulative statistics across all queries so far.
    ///
    /// Counts reflect only this engine unless the [`Obs`] passed to
    /// [`DemandEngine::with_obs`] is shared with other engines.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.counters.queries.get(),
            complete_queries: self.counters.complete_queries.get(),
            cache_hits: self.counters.cache_hits.get(),
            fires: self.counters.fires.get(),
            goals_activated: self.counters.goals_activated.get(),
            work: self.counters.work.get(),
            cycle_runs: self.counters.cycles_runs.get(),
            cycles_collapsed: self.counters.cycles_collapsed.get(),
            merged_goals: self.counters.cycles_merged_goals.get(),
            share_hits: self.counters.share_hits.get(),
            share_misses: self.counters.share_misses.get(),
            share_publishes: self.counters.share_publishes.get(),
            share_evictions: self.counters.share_evictions.get(),
            flight_events: self.counters.flight_events.get(),
            sched_parked: self.counters.sched_parked.get(),
            sched_resumed: self.counters.sched_resumed.get(),
            sched_steals: self.counters.sched_steals.get(),
            sched_wakeups: self.counters.sched_wakeups.get(),
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
        self.goals.len()
    }

    /// Drops all memoized state (used between queries when caching is off).
    ///
    /// Also rebuilds the cycle union-find: merged representatives are
    /// meaningless once the goal table is gone, and a stale union-find
    /// would silently fuse unrelated goals of the next table.
    pub fn clear(&mut self) {
        self.goals.clear();
        self.keys.clear();
        self.index.clear();
        self.queue.clear();
        self.provenance.clear();
        self.published.clear();
        self.costs.clear();
        self.cycles = CopyGraph::new(self.config.collapse_cycles, self.config.collapse_threshold);
    }

    /// The invalidation generation: starts at 0 and increments on every
    /// [`DemandEngine::invalidate`] / [`DemandEngine::reload`]. Answers
    /// computed under one generation must not be mixed with answers from
    /// another — long-lived hosts (the `ddpa-serve` sessions) stamp every
    /// response with this value.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Invalidates every tabled goal and bumps the generation.
    ///
    /// Use after the underlying program changed semantically (e.g. via
    /// [`DemandEngine::reload`]): completed memo entries from the old
    /// program would otherwise be served as stale cache hits.
    pub fn invalidate(&mut self) {
        self.clear();
        self.generation += 1;
        // The program this engine answers for has changed, so entries in
        // an attached shared table are stale for every engine sharing it:
        // bump its generation and adopt the new one.
        if let Some(shared) = &self.shared {
            self.shared_gen = shared.bump_generation();
        }
    }

    /// Swaps in an updated constraint program and invalidates all memoized
    /// state, so the next query deduces against `cp` from scratch.
    ///
    /// This is the incremental-edit hook: grow the program (append
    /// constraints, rebuild) and reload — queries issued afterwards see
    /// the new edges and never a stale memo.
    pub fn reload(&mut self, cp: &'p ConstraintProgram) {
        self.cp = cp;
        self.invalidate();
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
    /// [`install_completed`](Self::install_completed) would give them;
    /// the rest — plus any entry with no recorded support,
    /// conservatively — are dropped and re-derived on demand. An
    /// attached [`SharedMemo`] gets the same
    /// treatment via [`SharedMemo::invalidate_entries`]: per-entry
    /// removal *without* a generation bump, so surviving entries keep
    /// serving other engines that move to the new program.
    ///
    /// Falls back to full invalidation ([`reload`](Self::reload)) when
    /// the diff is incompatible (old node ids don't survive into `cp`) or
    /// caching is off; `EditStats::full` reports which path ran. The
    /// engine generation is bumped either way — retention is invisible to
    /// generation-stamped protocols except as less work.
    pub fn reload_incremental(
        &mut self,
        cp: &'p ConstraintProgram,
        diff: &ddpa_constraints::ProgramDiff,
    ) -> EditStats {
        if !diff.compatible || !self.config.caching {
            let dropped = self
                .goals
                .iter()
                .filter(|s| !s.merged && s.complete)
                .count();
            self.reload(cp);
            return EditStats {
                invalidated: dropped,
                retained: 0,
                dirty_edges: 0,
                full: true,
            };
        }
        // Candidates: one borrowed view per key of every completed local
        // fixpoint (the canonical key, then its merged-in aliases — the
        // keys the shared table publishes), plus clones of whatever
        // other engines published that this one never tabled.
        let mut views: Vec<DirtyView<'_>> = Vec::new();
        let mut at = ViewIndex::with_nodes(cp.num_nodes());
        for (gi, state) in self.goals.iter().enumerate() {
            if state.merged || !state.complete {
                continue;
            }
            for goal in std::iter::once(self.keys[gi]).chain(state.aliases.iter().copied()) {
                at.insert(goal, views.len());
                views.push(DirtyView {
                    goal,
                    support: SupportRef::Set(&state.support),
                    deps: &state.deps,
                    reads_indirect: state.reads_indirect,
                });
            }
        }
        let foreign = match &self.shared {
            Some(shared) => shared.export_where(|g| at.get(g).is_none()),
            None => Vec::new(),
        };
        for (goal, entry) in &foreign {
            at.insert(*goal, views.len());
            views.push(DirtyView::of_entry(*goal, entry));
        }
        let (dirty, dirty_edges) = close_dirty(&views, &at, diff);
        let dirty_goals: HashSet<Goal> = views
            .iter()
            .zip(&dirty)
            .filter(|&(_, &d)| d)
            .map(|(v, _)| v.goal)
            .collect();
        let retained = views.len() - dirty_goals.len();
        drop(views);

        // Re-table the survivors by moving their state into the slots
        // `install_completed` would give them, in the same order.
        let mut goals = std::mem::take(&mut self.goals);
        let keys = std::mem::take(&mut self.keys);
        let provenance = std::mem::take(&mut self.provenance);
        self.clear();
        self.goals.reserve_exact(retained);
        self.keys.reserve_exact(retained);
        self.costs.reserve_exact(retained);
        self.generation += 1;
        self.cp = cp;
        if let Some(shared) = &self.shared {
            let shared = Arc::clone(shared);
            let (_removed, compacted) = shared.invalidate_entries(&dirty_goals);
            if compacted > 0 {
                self.counters.share_evictions.add(compacted);
            }
            // No generation bump: survivors stay valid for the new
            // program, and this engine keeps publishing under the same
            // shared generation.
            self.shared_gen = shared.generation();
        }
        let mut flags = dirty.iter();
        for (gi, slot) in goals.iter_mut().enumerate() {
            if slot.merged || !slot.complete {
                continue;
            }
            let key = keys[gi];
            let mut state = std::mem::take(slot);
            let aliases = std::mem::take(&mut state.aliases);
            let mut state = Some(state.into_completed());
            for goal in std::iter::once(key).chain(aliases) {
                if *flags.next().expect("one flag per view") {
                    continue;
                }
                // The family's first survivor takes the state; later ones
                // copy the survivor tabled just before them.
                let fresh = match state.take() {
                    Some(s) => s,
                    None => self.goals.last().expect("tabled above").completed_copy(),
                };
                let at = self.push_completed(goal, fresh) as usize;
                if self.config.trace {
                    for &v in &self.goals[at].elems {
                        if let Some(&origin) = provenance.get(&(key, v)) {
                            self.provenance.insert((goal, v), origin);
                        }
                    }
                }
            }
        }
        for ((goal, entry), &d) in foreign.iter().zip(flags) {
            if !d {
                self.install_completed(*goal, entry);
            }
        }
        EditStats {
            invalidated: dirty_goals.len(),
            retained,
            dirty_edges,
            full: false,
        }
    }

    /// Points the engine at `cp` without touching the memo table. `cp`
    /// must be rule-equivalent to the current program: the same program
    /// at a new address, or a placeholder no query runs against while
    /// the real program is being edited in place.
    pub fn repoint(&mut self, cp: &'p ConstraintProgram) {
        self.cp = cp;
    }

    /// Computes `pts(node)` on demand.
    pub fn points_to(&mut self, node: NodeId) -> QueryResult {
        self.run(Goal::Pts(node))
    }

    /// Computes `ptb(node)` — the pointers that may point to `node`.
    pub fn pointed_to_by(&mut self, node: NodeId) -> QueryResult {
        self.run(Goal::Ptb(node))
    }

    /// Resolves the callee set of call site `cs` on demand.
    ///
    /// Direct calls are free. For indirect calls the engine queries the
    /// function pointer; if the budget runs out, the result falls back to
    /// every address-taken function (sound) with `resolved = false`.
    pub fn call_targets(&mut self, cs: ddpa_constraints::CallSiteId) -> CallTargets {
        match self.cp.callsite(cs).callee {
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
                        .filter_map(|&n| self.cp.node(n).as_func())
                        .collect();
                    targets.sort_unstable();
                    CallTargets {
                        targets,
                        resolved: true,
                        work: r.work,
                    }
                } else {
                    CallTargets {
                        targets: self.cp.address_taken_funcs(),
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

    /// Explains why `target ∈ pts(node)`, as a derivation chain ending in
    /// a base `x = &o` fact.
    ///
    /// Returns `None` if tracing is disabled ([`DemandConfig::trace`]), the
    /// fact has not been derived (query it first), or the fact is false.
    pub fn explain_points_to(&self, node: NodeId, target: NodeId) -> Option<Explanation> {
        if !self.config.trace {
            return None;
        }
        let mut steps = Vec::new();
        let mut current = (Goal::Pts(node), target.as_u32());
        // Cycle collapsing can leave a fact recorded under any member of
        // a merged goal family, so lookup may fall back from the exact
        // key to the representative's key and its aliases. The visited
        // set keeps those fallbacks from revisiting an entry; each loop
        // iteration consumes a fresh entry, so the walk terminates.
        let mut visited: HashSet<(Goal, u32)> = HashSet::new();
        loop {
            let (entry_key, origin) = self.lookup_provenance(current.0, current.1, &visited)?;
            visited.insert((entry_key, current.1));
            steps.push(TraceStep {
                goal: current.0,
                elem: current.1,
                origin,
            });
            match origin {
                Origin::Base => return Some(Explanation { steps }),
                Origin::Rule { src, elem, .. } => current = (src, elem),
            }
        }
    }

    /// Finds the provenance entry proving `value ∈ goal`: the exact key
    /// first, then — when `goal` belongs to a collapsed cycle — the
    /// representative's key and every merged-in alias. Entries already in
    /// `visited` are skipped.
    fn lookup_provenance(
        &self,
        goal: Goal,
        value: u32,
        visited: &HashSet<(Goal, u32)>,
    ) -> Option<(Goal, Origin)> {
        let try_key = |key: Goal| -> Option<(Goal, Origin)> {
            if visited.contains(&(key, value)) {
                return None;
            }
            self.provenance.get(&(key, value)).map(|&o| (key, o))
        };
        if let Some(hit) = try_key(goal) {
            return Some(hit);
        }
        let &gi = self.index.get(&goal)?;
        let rep = self.cycles.find_readonly(gi);
        let rep_key = self.keys[rep as usize];
        if rep_key != goal {
            if let Some(hit) = try_key(rep_key) {
                return Some(hit);
            }
        }
        for &alias in &self.goals[rep as usize].aliases {
            if alias == goal {
                continue;
            }
            if let Some(hit) = try_key(alias) {
                return Some(hit);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Tabling machinery
    // ------------------------------------------------------------------

    /// Activates `goal` and returns the index of the state holding it —
    /// the *representative* index when the goal was merged into a cycle.
    fn activate(&mut self, goal: Goal) -> u32 {
        if let Some(&gi) = self.index.get(&goal) {
            return self.cycles.find(gi);
        }
        let gi = self.goals.len() as u32;
        self.goals.push(GoalState::new());
        self.keys.push(goal);
        self.index.insert(goal, gi);
        self.costs.push(GoalCost::default());
        let slot = self.cycles.push();
        debug_assert_eq!(slot, gi, "union-find aligned with goal table");
        self.counters.goals_activated.inc();
        self.flight_record(FlightEventKind::Activated, gi, 0, 0);
        if let Some(hit) = self.shared_lookup(goal) {
            // Install the published fixpoint as a completed goal: no
            // static rules, no enqueue — the whole subtree below `goal`
            // costs zero firings. Later subscribers replay `elems` from
            // cursor 0, exactly as with a locally completed goal.
            let state = &mut self.goals[gi as usize];
            for &v in &hit.elems {
                state.members.insert(v);
                state.elems.push(v);
            }
            for &n in &hit.support {
                state.support.insert(n);
            }
            state.deps = hit.deps.clone();
            state.reads_indirect = hit.reads_indirect;
            state.needs_init = false;
            state.complete = true;
            if self.config.trace {
                for &(v, origin) in &hit.provenance {
                    self.provenance.insert((goal, v), origin);
                }
            }
            self.published.insert(goal);
            self.flight_record(FlightEventKind::MemoHit, gi, 1, 0);
            return gi;
        }
        self.enqueue(gi);
        gi
    }

    /// Consults the attached shared memo table for `goal`, counting the
    /// hit or miss and any stale entries the touched shard evicted.
    fn shared_lookup(&self, goal: Goal) -> Option<CompletedGoal> {
        let shared = self.shared.as_ref()?;
        if !self.config.caching {
            return None;
        }
        let _span = self.obs.span("demand.share.lookup");
        let (hit, evicted) = shared.lookup(self.shared_gen, goal);
        if evicted > 0 {
            self.counters.share_evictions.add(evicted);
        }
        if hit.is_some() {
            self.counters.share_hits.inc();
        } else {
            self.counters.share_misses.inc();
        }
        hit
    }

    /// Publishes every newly completed goal into the attached shared
    /// table. Called at global fixpoint: a completed set is the unique
    /// least-model answer for this generation, so any engine may reuse
    /// it. Merged cycle members share one fixpoint — the representative's
    /// set is published under its own key and every alias key.
    fn shared_publish_completed(&mut self) {
        let Some(shared) = &self.shared else {
            return;
        };
        if !self.config.caching {
            return;
        }
        let shared = Arc::clone(shared);
        for gi in 0..self.goals.len() {
            let state = &self.goals[gi];
            if state.merged || !state.complete {
                continue;
            }
            let key = self.keys[gi];
            if self.published.contains(&key) && state.aliases.is_empty() {
                continue;
            }
            let mut entry: Option<CompletedGoal> = None;
            for target in std::iter::once(key).chain(state.aliases.iter().copied()) {
                if !self.published.insert(target) {
                    continue;
                }
                let entry = entry.get_or_insert_with(|| self.completed_entry(gi, key));
                let (published, evicted) = shared.publish(self.shared_gen, target, entry.clone());
                if evicted > 0 {
                    self.counters.share_evictions.add(evicted);
                }
                if published {
                    self.counters.share_publishes.inc();
                }
            }
        }
    }

    /// Materializes the publishable [`CompletedGoal`] for the complete
    /// goal at `gi` (provenance looked up under `key`). Member, support,
    /// and dep orders are canonical, so entries are byte-stable
    /// regardless of derivation order.
    fn completed_entry(&self, gi: usize, key: Goal) -> CompletedGoal {
        let state = &self.goals[gi];
        let elems: Vec<u32> = state.members.iter().collect();
        let provenance = if self.config.trace {
            elems
                .iter()
                .filter_map(|&v| self.provenance.get(&(key, v)).map(|&origin| (v, origin)))
                .collect()
        } else {
            Vec::new()
        };
        let support: Vec<u32> = state.support.iter().collect();
        let mut deps = state.deps.clone();
        deps.sort_by_key(|g| g.canonical_key());
        CompletedGoal {
            elems,
            provenance,
            support,
            deps,
            reads_indirect: state.reads_indirect,
        }
    }

    /// Installs a completed fixpoint as a tabled, complete goal without
    /// deriving it — the warm-start path used by snapshot restore
    /// ([`ddpa-snap`](../../ddpa_snap/index.html)). Equivalent to the
    /// shared-memo hit branch of `activate`: the whole subtree below
    /// `goal` costs zero rule firings, and later subscribers replay
    /// `elems` from cursor 0 exactly as with a locally completed goal.
    ///
    /// Returns `false` (and installs nothing) when the goal is already
    /// tabled locally — a warm start must never overwrite live deduction
    /// state — or when caching is disabled.
    ///
    /// The caller is responsible for only installing fixpoints computed
    /// over the *same program*; snapshot restore verifies the program
    /// hash first.
    pub fn install_completed(&mut self, goal: Goal, result: &CompletedGoal) -> bool {
        if !self.config.caching || self.index.contains_key(&goal) {
            return false;
        }
        let state = GoalState::completed(
            result.elems.iter().copied().collect(),
            result.elems.clone(),
            result.support.iter().copied().collect(),
            result.deps.clone(),
            result.reads_indirect,
        );
        self.push_completed(goal, state);
        if self.config.trace {
            for &(v, origin) in &result.provenance {
                self.provenance.insert((goal, v), origin);
            }
        }
        true
    }

    /// Tables `state`, a completed fixpoint, as `goal` in a new slot and
    /// returns the slot. The goal counts as activated and as published.
    fn push_completed(&mut self, goal: Goal, state: GoalState) -> u32 {
        let gi = self.goals.len() as u32;
        self.goals.push(state);
        self.keys.push(goal);
        self.index.insert(goal, gi);
        self.costs.push(GoalCost::default());
        let slot = self.cycles.push();
        debug_assert_eq!(slot, gi, "union-find aligned with goal table");
        self.counters.goals_activated.inc();
        self.flight_record(FlightEventKind::Activated, gi, 0, 0);
        self.published.insert(goal);
        gi
    }

    /// Bulk [`install_completed`](Self::install_completed); returns how
    /// many goals were actually installed.
    pub fn warm_start<'e, I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = &'e (Goal, CompletedGoal)>,
    {
        entries
            .into_iter()
            .filter(|(goal, result)| self.install_completed(*goal, result))
            .count()
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

    /// Adds `value` to `goal`'s set, recording its derivation when
    /// tracing is enabled. (The [`Deduce`] impl routes rule-produced
    /// facts here.)
    fn add_fact(&mut self, goal: Goal, value: u32, origin: Origin) {
        let gi = self.activate(goal);
        let state = &mut self.goals[gi as usize];
        let inserted = state.add(value);
        debug_assert!(
            !(inserted && state.complete),
            "fact added to a completed goal {goal:?}"
        );
        if inserted {
            if self.config.trace {
                // Record under the canonical key so lookups after further
                // merges still resolve (see `lookup_provenance`).
                let key = self.keys[gi as usize];
                self.provenance.insert((key, value), origin);
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
        // for suppressed/duplicate subscriptions — `add_dep` dedups, and
        // a same-family edge (consumer routed to `gi` itself) is skipped.
        if let Some(&ci) = self.index.get(&watcher.consumer()) {
            let ci = self.cycles.find(ci);
            if ci != gi {
                self.goals[ci as usize].add_dep(goal);
            }
        }
        if let Watcher::CopyTo { dst } = watcher {
            if let Some(&di) = self.index.get(&Goal::Pts(dst)) {
                if self.cycles.find(di) == gi {
                    self.goals[gi as usize].registered.insert(watcher);
                    return;
                }
            }
        }
        let state = &mut self.goals[gi as usize];
        if state.registered.insert(watcher) {
            state.watchers.push(watcher);
            state.cursors.push(0);
            if let Watcher::CopyTo { dst } = watcher {
                self.cycles.record_edge(gi, dst);
            }
            if self.flight.is_some() {
                // The consumer goal now blocks on new elements of `gi`.
                let consumer = self
                    .index
                    .get(&watcher.consumer())
                    .map(|&ci| self.cycles.find_readonly(ci))
                    .unwrap_or(u32::MAX);
                self.flight_record(FlightEventKind::Blocked, gi, consumer, 0);
            }
            self.enqueue(gi);
        }
    }

    /// Processes one goal to quiescence. Returns `false` on budget
    /// exhaustion (the goal is re-queued at the front for resumption).
    fn process(&mut self, gi: u32, budget: &mut Budget) -> bool {
        if self.goals[gi as usize].needs_init {
            if !budget.charge(1) {
                self.requeue_front(gi);
                self.flight_record(FlightEventKind::Resumed, gi, 0, 0);
                return false;
            }
            self.counters.work.inc();
            self.costs[gi as usize].work += 1;
            self.goals[gi as usize].needs_init = false;
            let _span = self.obs.span("demand.query.goal_init");
            match self.keys[gi as usize] {
                Goal::Pts(x) => self.install_pts(x),
                Goal::Ptb(o) => self.install_ptb(o),
            }
        }
        loop {
            let mut progressed = false;
            let mut wi = 0;
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
                    self.counters.fires.inc();
                    self.counters.fires_by_kind[watcher.kind_index()].inc();
                    self.counters.work.inc();
                    {
                        let cost = &mut self.costs[gi as usize];
                        cost.work += 1;
                        cost.fires += 1;
                    }
                    if let Some(flight) = &self.flight {
                        if flight.maybe_record_fire(gi, watcher.kind_index() as u32) {
                            self.counters.flight_events.inc();
                        }
                    }
                    self.cycles.tick();
                    let src = self.keys[gi as usize];
                    self.fire(src, watcher, elem);
                    progressed = true;
                }
                wi += 1;
            }
            if !progressed {
                return true;
            }
        }
    }

    /// Drains the queue. Returns `true` when everything reached fixpoint.
    fn drain(&mut self, budget: &mut Budget) -> bool {
        while let Some(gi) = self.queue.pop_front() {
            if self.cycles.due() {
                self.collapse_now();
            }
            if self.cycles.find(gi) != gi {
                // Merged away while queued: the representative carries
                // this goal's pending work and was re-enqueued by the
                // merge, so the stale entry is simply dropped.
                continue;
            }
            self.goals[gi as usize].on_list = false;
            if !self.process(gi, budget) {
                return false;
            }
        }
        // Global fixpoint: memoize everything as complete. Merged shells
        // hold no state of their own — their representative does.
        for gi in 0..self.goals.len() {
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
                let work = self.costs[gi].work.min(u32::MAX as u64) as u32;
                self.flight_record(FlightEventKind::Completed, gi as u32, elems, work);
            }
        }
        self.shared_publish_completed();
        true
    }

    /// Runs an SCC pass over the discovered copy graph and merges every
    /// non-trivial component that is still in flux.
    fn collapse_now(&mut self) {
        let _span = self.obs.span("demand.cycles.collapse");
        self.counters.cycles_runs.inc();
        let index = &self.index;
        let comps = self
            .cycles
            .components(|dst| index.get(&Goal::Pts(dst)).copied());
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
                if self.goals[g as usize].needs_init {
                    self.goals[g as usize].needs_init = false;
                    self.counters.work.inc();
                    self.costs[g as usize].work += 1;
                    match self.keys[g as usize] {
                        Goal::Pts(x) => self.install_pts(x),
                        Goal::Ptb(o) => self.install_ptb(o),
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
        let mut merged = std::mem::take(&mut self.goals[rep as usize]);
        for &g in comp {
            if g == rep {
                continue;
            }
            let state = std::mem::take(&mut self.goals[g as usize]);
            let shell = &mut self.goals[g as usize];
            shell.merged = true;
            shell.needs_init = false;
            // Attribution follows the state into the representative.
            let cost = std::mem::take(&mut self.costs[g as usize]);
            self.costs[rep as usize].work += cost.work;
            self.costs[rep as usize].fires += cost.fires;
            merged.aliases.push(self.keys[g as usize]);
            merged.aliases.extend(state.aliases.iter().copied());
            for &v in &state.elems {
                if merged.members.insert(v) {
                    merged.elems.push(v);
                }
            }
            for &w in &state.watchers {
                if merged.registered.insert(w) {
                    merged.watchers.push(w);
                    merged.cursors.push(0);
                }
            }
            // Suppressed registrations (identity copies) must keep
            // deduplicating future subscriptions.
            for w in state.registered {
                merged.registered.insert(w);
            }
            // The merged fixpoint read everything its members read: the
            // representative's support/deps must cover them all, or an
            // edit touching one member's rows would fail to dirty the
            // family's shared entry.
            for n in state.support.iter() {
                merged.support.insert(n);
            }
            for dep in state.deps {
                merged.add_dep(dep);
            }
            merged.reads_indirect |= state.reads_indirect;
        }
        // Copy edges that now point inside the merged family are the
        // identity: drop them from the active list. They stay
        // `registered`, so re-subscription attempts still dedup.
        let mut watchers = Vec::with_capacity(merged.watchers.len());
        let mut cursors = Vec::with_capacity(merged.cursors.len());
        for (&w, &c) in merged.watchers.iter().zip(&merged.cursors) {
            let internal = match w {
                Watcher::CopyTo { dst } => self
                    .index
                    .get(&Goal::Pts(dst))
                    .is_some_and(|&di| self.cycles.find_readonly(di) == rep),
                _ => false,
            };
            if !internal {
                watchers.push(w);
                cursors.push(c);
            }
        }
        merged.watchers = watchers;
        merged.cursors = cursors;
        merged.needs_init = false;
        merged.on_list = false;
        self.goals[rep as usize] = merged;
        self.enqueue(rep);
    }

    fn run(&mut self, goal: Goal) -> QueryResult {
        let _span = self.obs.span("demand.query");
        self.last_parallel = false;
        if !self.config.caching {
            self.clear();
        }
        self.counters.queries.inc();
        // Parallel dispatch, decided *before* activation touches the
        // queue: eligible queries are unbudgeted (frames cannot abort
        // mid-step deterministically), untraced (no cross-thread
        // provenance map), and start from a drained queue (no suspended
        // sequential work to interleave with). Already-answered goals
        // fall through to the sequential cache-hit path.
        if self.config.workers > 1
            && self.config.budget.is_none()
            && !self.config.trace
            && self.queue.is_empty()
        {
            let cached = self
                .index
                .get(&goal)
                .map(|&gi| self.cycles.find_readonly(gi))
                .is_some_and(|gi| self.goals[gi as usize].complete);
            if !cached {
                return self.run_parallel(goal);
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
        let mut budget = Budget::new(self.config.budget);
        let drained = {
            let _span = self.obs.span("demand.query.drain");
            self.drain(&mut budget)
        };
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
    /// engine's completed goals, then folds the scheduler's counters and
    /// newly completed fixpoints back into the engine (and the attached
    /// [`SharedMemo`], when caching). Answers are bit-identical to the
    /// sequential drain — see the module docs of [`crate::sched`].
    fn run_parallel(&mut self, goal: Goal) -> QueryResult {
        let _span = self.obs.span("demand.query.parallel");
        self.last_parallel = true;
        let mut sched = Scheduler::new(self.cp, self.config.clone()).with_obs(self.obs.clone());
        if let Some(flight) = &self.flight {
            sched = sched.with_flight(Arc::clone(flight));
        }
        if self.config.caching {
            if let Some(shared) = &self.shared {
                sched = sched.with_shared(Arc::clone(shared), self.shared_gen);
            }
        }
        let outcome = {
            let view = EngineView {
                goals: &self.goals,
                index: &self.index,
                cycles: &self.cycles,
            };
            sched.solve_seeded(goal, Some(&view))
        };
        let stats = &outcome.stats;
        self.counters.work.add(stats.work);
        self.counters.fires.add(stats.fires);
        for (i, &n) in stats.fires_by_kind.iter().enumerate() {
            if n > 0 {
                self.counters.fires_by_kind[i].add(n);
            }
        }
        self.counters.share_hits.add(stats.share_hits);
        self.counters.share_misses.add(stats.share_misses);
        self.counters.share_evictions.add(stats.share_evictions);
        self.counters.sched_parked.add(stats.parked);
        self.counters.sched_resumed.add(stats.resumed);
        self.counters.sched_steals.add(stats.steals);
        self.counters.sched_wakeups.add(stats.wakeups);
        self.counters.flight_events.add(stats.flight_events);
        let work = stats.work;
        if self.config.caching {
            if let Some(shared) = &self.shared {
                let shared = Arc::clone(shared);
                for (g, entry) in &outcome.completed {
                    if self.published.contains(g) {
                        continue;
                    }
                    let (published, evicted) = shared.publish(self.shared_gen, *g, entry.clone());
                    if evicted > 0 {
                        self.counters.share_evictions.add(evicted);
                    }
                    if published {
                        self.counters.share_publishes.inc();
                    }
                }
            }
            // Table the fixpoints locally so later queries (parallel or
            // sequential) answer from the memo. Goals the engine already
            // tables (e.g. incomplete from an old budgeted query) are
            // left untouched.
            for (g, entry) in &outcome.completed {
                self.install_completed(*g, entry);
            }
        } else {
            self.counters.goals_activated.add(stats.activated);
        }
        self.counters.complete_queries.inc();
        QueryResult {
            pts: outcome.pts,
            complete: true,
            work,
        }
    }

    fn snapshot(&self, gi: u32) -> Vec<NodeId> {
        self.goals[gi as usize]
            .members
            .iter()
            .map(NodeId::from_u32)
            .collect()
    }
}

/// The sequential engine evaluates the shared rule system
/// ([`crate::rules`]) against its tabled goal states; the scheduler's
/// workers ([`crate::sched`]) implement the same trait against frames.
impl<'p> Deduce<'p> for DemandEngine<'p> {
    fn cp(&self) -> &'p ConstraintProgram {
        self.cp
    }

    fn add(&mut self, goal: Goal, value: u32, origin: Origin) {
        self.add_fact(goal, value, origin);
    }

    fn subscribe(&mut self, goal: Goal, watcher: Watcher) {
        self.subscribe_watcher(goal, watcher);
    }

    fn note_support(&mut self, goal: Goal, node: NodeId) {
        if let Some(&gi) = self.index.get(&goal) {
            let gi = self.cycles.find(gi);
            self.goals[gi as usize].support.insert(node.as_u32());
        }
    }

    fn note_indirect(&mut self, goal: Goal) {
        if let Some(&gi) = self.index.get(&goal) {
            let gi = self.cycles.find(gi);
            self.goals[gi as usize].reads_indirect = true;
        }
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
        let shared = std::sync::Arc::new(crate::SharedMemo::new());
        let mut warm = DemandEngine::new(&cp, DemandConfig::default())
            .with_shared_memo(std::sync::Arc::clone(&shared));
        let full = warm.points_to(node(&cp, "r"));
        let exported = shared.export_completed();
        assert!(!exported.is_empty());

        // A fresh engine (no shared table at all) warm-starts from them.
        let mut cold = DemandEngine::new(&cp, DemandConfig::default());
        let installed = cold.warm_start(&exported);
        assert_eq!(installed, exported.len());
        // Re-installing is a no-op: the goals are already tabled.
        assert_eq!(cold.warm_start(&exported), 0);
        let reused = cold.points_to(node(&cp, "r"));
        assert_eq!(reused.pts, full.pts);
        assert_eq!(reused.work, 0, "restored answer costs zero rule firings");
        // And the memo keeps working for queries beyond the snapshot.
        let o = cold.points_to(node(&cp, "o"));
        assert!(o.complete);
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
        let before = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let after = ddpa_constraints::parse_constraints("z = &w\np = z\n").expect("parses");
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        assert!(engine.points_to(node(&before, "q")).complete);

        let diff = ddpa_constraints::diff_programs(&before, &after);
        assert!(!diff.compatible);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(
            stats.full,
            "incompatible node spaces force full invalidation"
        );
        assert_eq!(stats.retained, 0);
        assert_eq!(engine.tabled_goals(), 0);
    }

    #[test]
    fn incremental_reload_keeps_shared_survivors_without_generation_bump() {
        let before =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\n").expect("parses");
        let after =
            ddpa_constraints::parse_constraints("p = &o\nq = p\nr = &u\ns = r\n").expect("parses");
        let shared = std::sync::Arc::new(crate::SharedMemo::new());
        let mut engine = DemandEngine::new(&before, DemandConfig::default())
            .with_shared_memo(std::sync::Arc::clone(&shared));
        assert!(engine.points_to(node(&before, "q")).complete);
        assert!(engine.points_to(node(&before, "r")).complete);
        let gen_before = shared.generation();

        let diff = ddpa_constraints::diff_programs(&before, &after);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full);
        assert_eq!(
            shared.generation(),
            gen_before,
            "per-entry invalidation must not bump the shared generation"
        );
        // Survivors are still served; dirtied entries are gone.
        let kept = shared.export_completed();
        assert!(kept.iter().any(|(g, _)| *g == Goal::Pts(node(&after, "q"))));
        assert!(!kept.iter().any(|(g, _)| *g == Goal::Pts(node(&after, "r"))));
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

    #[test]
    fn collapsed_goals_are_cached_complete() {
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        let first = engine.points_to(node(&cp, "r3"));
        assert!(first.complete && first.work > 0);
        // Every ring member now answers from the shared memo entry.
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
        let cp = ring_program(8, 2);
        let mut engine = DemandEngine::new(
            &cp,
            DemandConfig::default()
                .with_collapse_threshold(1)
                .with_trace(),
        );
        let obj_a = node(&cp, "obj_0");
        let obj_b = node(&cp, "obj_1");
        assert!(engine.points_to(node(&cp, "tail")).complete);
        assert!(engine.stats().cycles_collapsed >= 1, "merge happened");
        // Every merged member (and the tail) can still explain both facts.
        let mut queries: Vec<NodeId> = (0..8).map(|i| node(&cp, &format!("r{i}"))).collect();
        queries.push(node(&cp, "tail"));
        for v in queries {
            for o in [obj_a, obj_b] {
                let e = engine
                    .explain_points_to(v, o)
                    .unwrap_or_else(|| panic!("no explanation for {}", cp.display_node(v)));
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
    use crate::trace::Origin;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn explains_copy_chain_back_to_base() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_trace());
        let r = node(&cp, "r");
        let o = node(&cp, "o");
        assert!(engine.points_to(r).contains(o));
        let explanation = engine.explain_points_to(r, o).expect("traced");
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
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_trace());
        let y = node(&cp, "y");
        let t = node(&cp, "t");
        assert!(engine.points_to(y).contains(t));
        let explanation = engine.explain_points_to(y, t).expect("traced");
        // The chain ends at x = &t.
        assert_eq!(explanation.steps.last().expect("base").origin, Origin::Base);
        assert!(explanation.steps.len() >= 2);
    }

    #[test]
    fn no_trace_without_flag_or_fact() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = &o2\n").expect("parses");
        let (p, o, o2) = (node(&cp, "p"), node(&cp, "o"), node(&cp, "o2"));
        // Tracing disabled.
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let _ = engine.points_to(p);
        assert!(engine.explain_points_to(p, o).is_none());
        // Tracing enabled, but the fact is false.
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_trace());
        let _ = engine.points_to(p);
        assert!(engine.explain_points_to(p, o2).is_none());
    }

    #[test]
    fn tracing_does_not_change_answers() {
        let cp = ddpa_constraints::parse_constraints(
            "p = &a\nq = p\n*q = p\nr = *q\nx = y\ny = x\nx = &b\n",
        )
        .expect("parses");
        let mut plain = DemandEngine::new(&cp, DemandConfig::default());
        let mut traced = DemandEngine::new(&cp, DemandConfig::default().with_trace());
        for n in cp.node_ids() {
            assert_eq!(plain.points_to(n).pts, traced.points_to(n).pts);
        }
    }
}
