//! Frame-based suspendable goal scheduler — intra-query parallelism.
//!
//! The sequential engine drains one goal queue on one thread; here each
//! in-progress goal becomes a [`Frame`] any worker can *step*. A step
//! installs the goal's static rules (first step only) and then fires
//! every watcher on every element it has not yet consumed. A frame whose
//! watchers have drained *parks* — it simply leaves the runnable set.
//! Publishing a new fact into a goal (or installing a new watcher on it)
//! *wakes* its frame: the publishing worker pushes the frame onto its own
//! stealable deque ([`StealQueue`]). The paper's deduction is formulated
//! as resumable subgoals, which is exactly what makes this sound: a frame
//! carries complete resumption state (element cursors per watcher), so
//! steps can happen in any order, on any worker.
//!
//! # Why answers are bit-identical to the sequential engine
//!
//! The rule system is monotone: facts are only ever added, and every
//! (goal, watcher, element) triple fires exactly once — cursors advance
//! under the frame lock, so two workers stepping the same frame consume
//! disjoint element ranges. A monotone system has a unique least
//! fixpoint; evaluation order (DFS vs BFS, 1 vs N workers, steal
//! interleavings) changes only the *discovery* order, never the final
//! sets. The differential suite (`tests/sched_differential.rs`) asserts
//! this across policies × worker counts against the sequential engine
//! and the exhaustive wave solver.
//!
//! The same argument gives deterministic total work: the fire multiset is
//! the same as the sequential engine's (collapse-off), so
//! [`SchedStats::work`] is *equal* — not merely close — on a fresh table.
//!
//! # Addressing
//!
//! Frames are pre-allocated, one per possible goal, and addressed by
//! *slot*: `pts(n) ↔ 2·n`, `ptb(n) ↔ 2·n + 1`. Slot identity replaces
//! the sequential engine's activation-ordered goal indices and its
//! `index` hash map — workers never contend on a shared allocation, and
//! `Goal ↔ slot` is a pure function.
//!
//! # Termination
//!
//! `active` counts frames that are queued or mid-step. It is incremented
//! under the frame lock on the off-list → on-list transition, kept while
//! a popped frame is being stepped, and decremented when the step
//! finishes. New work only appears from steps, so `active == 0` implies
//! the global fixpoint; idle workers spin on a condvar with a short
//! timeout until then.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_obs::{FlightEventKind, FlightRecorder, Obs};

use crate::config::{DemandConfig, SchedPolicy};
use crate::cycles::CopyGraph;
use crate::goal::{Goal, GoalState, Watcher};
use crate::pool::StealQueue;
use crate::rules::Deduce;
use crate::share::{CompletedGoal, SharedMemo};
use crate::trace::Origin;

/// The slot addressing a goal's frame: `pts(n) → 2n`, `ptb(n) → 2n+1`.
fn slot_of(goal: Goal) -> u32 {
    match goal {
        Goal::Pts(n) => 2 * n.as_u32(),
        Goal::Ptb(n) => 2 * n.as_u32() + 1,
    }
}

/// Inverse of [`slot_of`].
fn goal_of(slot: u32) -> Goal {
    let n = NodeId::from_u32(slot / 2);
    if slot.is_multiple_of(2) {
        Goal::Pts(n)
    } else {
        Goal::Ptb(n)
    }
}

/// One suspendable goal: the tabled deduction state plus scheduling
/// bookkeeping. `state.on_list` marks membership in some runnable deque;
/// `state.cursors` are the resumption points.
#[derive(Debug, Default)]
struct Frame {
    state: GoalState,
    /// Completed steps; a schedule of a stepped frame is a *wakeup*.
    steps: u32,
    /// The frame has been referenced (seeded or queued) this solve.
    active: bool,
    /// Seeded from the host engine's already-complete table entry — the
    /// fixpoint was derived (and published) previously, so finalization
    /// skips it.
    seeded_from_engine: bool,
}

/// Per-worker tallies, summed by the driver after the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Frames referenced (≈ goals activated on a fresh table).
    pub activated: u64,
    /// Work ticks: rule installs + watcher firings (identical to the
    /// sequential engine's `work` on a fresh table).
    pub work: u64,
    /// Watcher firings.
    pub fires: u64,
    /// Steps after which a frame left the runnable set incomplete.
    pub parked: u64,
    /// Steps of a frame that had been stepped before.
    pub resumed: u64,
    /// Frames taken from another worker's deque.
    pub steals: u64,
    /// Reschedules of previously stepped frames (fact or watcher arrived).
    pub wakeups: u64,
    /// Shared-memo consults that installed a published fixpoint.
    pub share_hits: u64,
    /// Shared-memo consults that found nothing.
    pub share_misses: u64,
    /// Stale shared-memo entries evicted by our lookups.
    pub share_evictions: u64,
    /// Flight-recorder events emitted by this worker.
    pub flight_events: u64,
    /// Firings per [`Watcher`] variant, by [`Watcher::kind_index`].
    pub fires_by_kind: [u64; 12],
}

impl SchedStats {
    fn absorb(&mut self, other: &SchedStats) {
        self.activated += other.activated;
        self.work += other.work;
        self.fires += other.fires;
        self.parked += other.parked;
        self.resumed += other.resumed;
        self.steals += other.steals;
        self.wakeups += other.wakeups;
        self.share_hits += other.share_hits;
        self.share_misses += other.share_misses;
        self.share_evictions += other.share_evictions;
        self.flight_events += other.flight_events;
        for (mine, theirs) in self.fires_by_kind.iter_mut().zip(&other.fires_by_kind) {
            *mine += *theirs;
        }
    }
}

/// The result of one parallel solve.
#[derive(Debug)]
pub struct SolveOutcome {
    /// Every goal newly driven to fixpoint, with its final element set
    /// (ascending) — ready for [`crate::DemandEngine::install_completed`]
    /// or [`SharedMemo::publish`]. Engine-seeded goals are excluded.
    pub completed: Vec<(Goal, CompletedGoal)>,
    /// The requested goal's final set, ascending.
    pub pts: Vec<NodeId>,
    /// Whether the requested goal was answered from an engine seed (no
    /// frames were stepped at all).
    pub seeded: bool,
    /// Summed worker tallies.
    pub stats: SchedStats,
}

/// A read-only view of a host engine's tabled state, used to seed frames
/// from goals the engine has already driven to fixpoint — the parallel
/// path's equivalent of a warm memo table.
pub(crate) struct EngineView<'a> {
    pub goals: &'a [GoalState],
    pub index: &'a HashMap<Goal, u32>,
    pub cycles: &'a CopyGraph,
}

impl EngineView<'_> {
    /// The engine's completed element set for `goal`, if it has one.
    fn lookup(&self, goal: Goal) -> Option<Vec<u32>> {
        let &gi = self.index.get(&goal)?;
        let rep = self.cycles.find_readonly(gi);
        let state = &self.goals[rep as usize];
        state.complete.then(|| state.members.iter().collect())
    }
}

/// Shared scheduler state: the frame table plus the runnable queues.
struct Core<'p> {
    cp: &'p ConstraintProgram,
    policy: SchedPolicy,
    frames: Vec<Mutex<Frame>>,
    /// The global runnable queue: the root goal enters here, and workers
    /// fall back to it before stealing.
    injector: StealQueue<u32>,
    /// Per-worker stealable deques; a worker schedules onto its own.
    locals: Vec<StealQueue<u32>>,
    /// Queued + mid-step frames; 0 ⇒ global fixpoint.
    active: AtomicUsize,
    idle: Mutex<()>,
    wake: Condvar,
    shared: Option<(Arc<SharedMemo>, u64)>,
    flight: Option<Arc<FlightRecorder>>,
    obs: Obs,
}

impl<'p> Core<'p> {
    fn lock(&self, slot: u32) -> MutexGuard<'_, Frame> {
        self.frames[slot as usize]
            .lock()
            .expect("frame lock poisoned")
    }
}

/// One worker's execution context. Implements [`Deduce`], so a step runs
/// the very same rule bodies as the sequential engine.
struct WorkerCtx<'c, 'p> {
    core: &'c Core<'p>,
    view: Option<&'c EngineView<'c>>,
    /// Worker index into `locals`; `usize::MAX` is the driver bootstrap
    /// context, which schedules onto the global injector.
    id: usize,
    stats: SchedStats,
}

impl<'c, 'p> WorkerCtx<'c, 'p> {
    /// First-touch activation: seed the frame from the host engine's
    /// table or the shared memo, or schedule its first step.
    fn ensure_active(&mut self, slot: u32) {
        let mut f = self.core.lock(slot);
        if f.active {
            return;
        }
        f.active = true;
        self.stats.activated += 1;
        let goal = goal_of(slot);
        if let Some(elems) = self.view.and_then(|v| v.lookup(goal)) {
            for v in elems {
                f.state.add(v);
            }
            f.state.needs_init = false;
            f.state.complete = true;
            f.seeded_from_engine = true;
            // Nothing to schedule: a complete frame with no watchers is
            // quiescent. A later subscribe wakes it to replay `elems`.
            return;
        }
        if let Some((shared, gen)) = &self.core.shared {
            let (hit, evicted) = shared.lookup(*gen, goal);
            self.stats.share_evictions += evicted;
            match hit {
                Some(hit) => {
                    self.stats.share_hits += 1;
                    for &v in &hit.elems {
                        f.state.add(v);
                    }
                    for &n in &hit.support {
                        f.state.support.insert(n);
                    }
                    f.state.deps = hit.deps.clone();
                    f.state.reads_indirect = hit.reads_indirect;
                    f.state.needs_init = false;
                    f.state.complete = true;
                    return;
                }
                None => self.stats.share_misses += 1,
            }
        }
        self.schedule_locked(slot, &mut f);
    }

    /// Puts `slot` on this worker's deque (idempotent while queued).
    /// Completed frames are scheduled too: they must replay their element
    /// list to newly installed watchers, exactly as the sequential engine
    /// re-enqueues a completed goal on subscription.
    fn schedule_locked(&mut self, slot: u32, f: &mut Frame) {
        if f.state.on_list {
            return;
        }
        f.state.on_list = true;
        if f.steps > 0 {
            self.stats.wakeups += 1;
            self.flight(FlightEventKind::Woken, slot);
        }
        self.core.active.fetch_add(1, Ordering::SeqCst);
        if self.id == usize::MAX {
            self.core.injector.push(slot);
        } else {
            self.core.locals[self.id].push(slot);
        }
        self.core.wake.notify_one();
    }

    #[inline]
    fn flight(&mut self, kind: FlightEventKind, slot: u32) {
        if let Some(flight) = &self.core.flight {
            let worker = if self.id == usize::MAX {
                u32::MAX
            } else {
                self.id as u32
            };
            flight.record(kind, slot, worker, 0);
            self.stats.flight_events += 1;
        }
    }

    /// Runs one frame to (momentary) quiescence: install static rules on
    /// the first step, then fire every watcher on every unconsumed
    /// element, in batches collected under the frame lock. Rule bodies
    /// run *unlocked* — they lock other frames (or re-lock this one via
    /// `add`/`subscribe`, e.g. the `FwdProp` self-subscription).
    fn step(&mut self, slot: u32) {
        let _span = self.core.obs.span("demand.sched.step");
        let needs_init = {
            let mut f = self.core.lock(slot);
            f.state.on_list = false;
            if f.steps > 0 {
                self.stats.resumed += 1;
            }
            std::mem::replace(&mut f.state.needs_init, false)
        };
        if needs_init {
            self.stats.work += 1;
            match goal_of(slot) {
                Goal::Pts(x) => self.install_pts(x),
                Goal::Ptb(o) => self.install_ptb(o),
            }
        }
        let src = goal_of(slot);
        loop {
            // Claim the pending (watcher, elements) pairs under the lock;
            // cursor advancement is what makes concurrent steps of the
            // same frame consume disjoint ranges.
            let mut batch: Vec<(Watcher, Vec<u32>)> = Vec::new();
            {
                let mut f = self.core.lock(slot);
                let nelems = f.state.elems.len();
                for wi in 0..f.state.watchers.len() {
                    let cursor = f.state.cursors[wi] as usize;
                    if cursor < nelems {
                        let pending = f.state.elems[cursor..nelems].to_vec();
                        batch.push((f.state.watchers[wi], pending));
                        f.state.cursors[wi] = nelems as u32;
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            for (watcher, elems) in batch {
                for elem in elems {
                    self.stats.fires += 1;
                    self.stats.work += 1;
                    self.stats.fires_by_kind[watcher.kind_index()] += 1;
                    if let Some(flight) = &self.core.flight {
                        if flight.maybe_record_fire(slot, watcher.kind_index() as u32) {
                            self.stats.flight_events += 1;
                        }
                    }
                    self.fire(src, watcher, elem);
                }
            }
        }
        let mut f = self.core.lock(slot);
        f.steps += 1;
        if !f.state.on_list && !f.state.complete {
            self.stats.parked += 1;
            drop(f);
            self.flight(FlightEventKind::Parked, slot);
        }
    }

    /// Pops the next runnable frame: own deque (policy order), then the
    /// global injector, then round-robin theft from the other workers.
    fn next_task(&mut self) -> Option<u32> {
        let own = &self.core.locals[self.id];
        let task = match self.core.policy {
            SchedPolicy::Dfs => own.pop_back(),
            SchedPolicy::Bfs => own.pop_front(),
        };
        if task.is_some() {
            return task;
        }
        if let Some(slot) = self.core.injector.steal() {
            return Some(slot);
        }
        let n = self.core.locals.len();
        for k in 1..n {
            let victim = (self.id + k) % n;
            if let Some(slot) = self.core.locals[victim].steal() {
                self.stats.steals += 1;
                self.flight(FlightEventKind::Stolen, slot);
                return Some(slot);
            }
        }
        None
    }

    /// The worker loop: step frames until the global fixpoint.
    fn run(&mut self) {
        loop {
            if let Some(slot) = self.next_task() {
                self.step(slot);
                // The popped entry kept `active` high through the step;
                // release it, and if that was the last unit, wake the
                // idle workers so they observe the fixpoint and exit.
                if self.core.active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let _idle = self.core.idle.lock().expect("idle lock poisoned");
                    self.core.wake.notify_all();
                }
            } else {
                if self.core.active.load(Ordering::SeqCst) == 0 {
                    return;
                }
                let idle = self.core.idle.lock().expect("idle lock poisoned");
                if self.core.active.load(Ordering::SeqCst) == 0 {
                    return;
                }
                let _ = self
                    .core
                    .wake
                    .wait_timeout(idle, std::time::Duration::from_millis(1))
                    .expect("idle lock poisoned");
            }
        }
    }
}

impl<'p> Deduce<'p> for WorkerCtx<'_, 'p> {
    fn cp(&self) -> &'p ConstraintProgram {
        self.core.cp
    }

    fn add(&mut self, goal: Goal, value: u32, _origin: Origin) {
        let slot = slot_of(goal);
        self.ensure_active(slot);
        let mut f = self.core.lock(slot);
        let inserted = f.state.add(value);
        debug_assert!(
            !(inserted && f.state.complete),
            "fact added to a completed goal {goal:?}"
        );
        if inserted {
            self.schedule_locked(slot, &mut f);
        }
    }

    fn subscribe(&mut self, goal: Goal, watcher: Watcher) {
        let slot = slot_of(goal);
        // Record the consumer → producer dependency edge before touching
        // the producer frame (one frame lock at a time, never two).
        let consumer = slot_of(watcher.consumer());
        if consumer != slot {
            self.core.lock(consumer).state.add_dep(goal);
        }
        self.ensure_active(slot);
        let mut f = self.core.lock(slot);
        // A CopyTo into the subscribed goal itself (`p = p`) is the
        // identity — suppress it, mirroring the sequential engine.
        if let Watcher::CopyTo { dst } = watcher {
            if slot_of(Goal::Pts(dst)) == slot {
                f.state.registered.insert(watcher);
                return;
            }
        }
        if f.state.registered.insert(watcher) {
            f.state.watchers.push(watcher);
            f.state.cursors.push(0);
            self.schedule_locked(slot, &mut f);
        }
    }

    fn note_support(&mut self, goal: Goal, node: NodeId) {
        let mut f = self.core.lock(slot_of(goal));
        f.state.support.insert(node.as_u32());
    }

    fn note_indirect(&mut self, goal: Goal) {
        let mut f = self.core.lock(slot_of(goal));
        f.state.reads_indirect = true;
    }
}

/// The frame scheduler. Construct one per parallel query; the engine's
/// dispatch ([`crate::DemandEngine`]) does this automatically when
/// [`DemandConfig::workers`] `> 1`.
pub struct Scheduler<'p> {
    cp: &'p ConstraintProgram,
    config: DemandConfig,
    shared: Option<(Arc<SharedMemo>, u64)>,
    flight: Option<Arc<FlightRecorder>>,
    obs: Obs,
}

impl<'p> Scheduler<'p> {
    /// A scheduler over `cp`; worker count and policy come from `config`.
    pub fn new(cp: &'p ConstraintProgram, config: DemandConfig) -> Self {
        Scheduler {
            cp,
            config,
            shared: None,
            flight: None,
            obs: Obs::new(),
        }
    }

    /// Routes cross-worker fact publication through `shared` (entries
    /// valid for generation `gen`): activations consult it, and the
    /// driver publishes every newly completed goal into it.
    pub fn with_shared(mut self, shared: Arc<SharedMemo>, gen: u64) -> Self {
        self.shared = Some((shared, gen));
        self
    }

    /// Records park/steal/wake (and sampled fire) events into `flight`.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Publishes the `demand.sched.step` span into `obs`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Solves `goal` to its least fixpoint with `config.workers` workers.
    pub fn solve(&self, goal: Goal) -> SolveOutcome {
        self.solve_seeded(goal, None)
    }

    /// [`solve`](Self::solve), additionally seeding frames from a host
    /// engine's already-completed goals.
    pub(crate) fn solve_seeded(&self, goal: Goal, view: Option<&EngineView<'_>>) -> SolveOutcome {
        let workers = self.config.workers.max(1);
        let slots = 2 * self.cp.num_nodes();
        let core = Core {
            cp: self.cp,
            policy: self.config.sched_policy,
            frames: (0..slots).map(|_| Mutex::new(Frame::default())).collect(),
            injector: StealQueue::new(),
            locals: (0..workers).map(|_| StealQueue::new()).collect(),
            active: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shared: self.shared.clone(),
            flight: self.flight.clone(),
            obs: self.obs.clone(),
        };
        let root = slot_of(goal);
        // Bootstrap from the driver: activate the root (which may answer
        // it outright from a seed) and enqueue its first step on the
        // global injector.
        let mut boot = WorkerCtx {
            core: &core,
            view,
            id: usize::MAX,
            stats: SchedStats::default(),
        };
        boot.ensure_active(root);
        let mut stats = boot.stats;
        let seeded = core.lock(root).seeded_from_engine;
        if !seeded {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|id| {
                        let core = &core;
                        s.spawn(move || {
                            let mut ctx = WorkerCtx {
                                core,
                                view,
                                id,
                                stats: SchedStats::default(),
                            };
                            ctx.run();
                            ctx.stats
                        })
                    })
                    .collect();
                for h in handles {
                    stats.absorb(&h.join().expect("scheduler worker panicked"));
                }
            });
        }
        debug_assert_eq!(core.active.load(Ordering::SeqCst), 0);
        // Finalize: every referenced frame is at the global fixpoint.
        let mut completed = Vec::new();
        let mut pts = Vec::new();
        for (slot, frame) in core.frames.iter().enumerate() {
            let mut f = frame.lock().expect("frame lock poisoned");
            if !f.active {
                continue;
            }
            if !f.state.complete {
                debug_assert!(f.state.quiescent(), "fixpoint but frame not quiescent");
                f.state.complete = true;
            }
            if slot as u32 == root {
                pts = f.state.members.iter().map(NodeId::from_u32).collect();
            }
            if !f.seeded_from_engine {
                let mut deps = std::mem::take(&mut f.state.deps);
                deps.sort_unstable_by_key(|g| g.canonical_key());
                completed.push((
                    goal_of(slot as u32),
                    CompletedGoal {
                        elems: f.state.members.iter().collect(),
                        provenance: Vec::new(),
                        support: f.state.support.iter().collect(),
                        deps,
                        reads_indirect: f.state.reads_indirect,
                    },
                ));
            }
        }
        SolveOutcome {
            completed,
            pts,
            seeded,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DemandConfig;
    use crate::engine::DemandEngine;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn slot_addressing_round_trips() {
        for n in 0..16u32 {
            for goal in [
                Goal::Pts(NodeId::from_u32(n)),
                Goal::Ptb(NodeId::from_u32(n)),
            ] {
                assert_eq!(goal_of(slot_of(goal)), goal);
            }
        }
    }

    #[test]
    fn solves_copy_chain_like_sequential() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        for workers in 1..=4 {
            for policy in [SchedPolicy::Dfs, SchedPolicy::Bfs] {
                let sched = Scheduler::new(
                    &cp,
                    DemandConfig::new()
                        .with_workers(workers)
                        .with_sched_policy(policy),
                );
                let out = sched.solve(Goal::Pts(node(&cp, "r")));
                let names: Vec<String> = out.pts.iter().map(|&n| cp.display_node(n)).collect();
                assert_eq!(names, vec!["o"], "{policy:?} × {workers}");
                assert!(!out.seeded);
                assert!(!out.completed.is_empty());
            }
        }
    }

    #[test]
    fn matches_sequential_on_loads_stores_and_cycles() {
        let src = "p = &o\nx = &t\n*p = x\ny = *p\na = b\nb = a\na = &g\nb = &h\n";
        let cp = ddpa_constraints::parse_constraints(src).expect("parses");
        for name in ["y", "a", "b", "o"] {
            let mut engine = DemandEngine::new(&cp, DemandConfig::default());
            let expected = engine.points_to(node(&cp, name));
            let sched = Scheduler::new(&cp, DemandConfig::new().with_workers(3));
            let got = sched.solve(Goal::Pts(node(&cp, name)));
            assert_eq!(got.pts, expected.pts, "pts({name})");
        }
    }

    #[test]
    fn parallel_work_equals_sequential_collapse_off_work() {
        let src = "p = &o\nx = &t\n*p = x\ny = *p\nq = p\nr = q\ns = r\n";
        let cp = ddpa_constraints::parse_constraints(src).expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::new().without_cycle_collapsing());
        let seq = engine.points_to(node(&cp, "y"));
        let sched = Scheduler::new(&cp, DemandConfig::new().with_workers(4));
        let par = sched.solve(Goal::Pts(node(&cp, "y")));
        assert_eq!(par.pts, seq.pts);
        assert_eq!(
            par.stats.work, seq.work,
            "same fire multiset ⇒ identical work"
        );
    }

    #[test]
    fn shared_memo_seeds_and_receives_fixpoints() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let shared = Arc::new(SharedMemo::new());
        let sched = Scheduler::new(&cp, DemandConfig::new().with_workers(2))
            .with_shared(Arc::clone(&shared), shared.generation());
        let first = sched.solve(Goal::Pts(node(&cp, "r")));
        for (goal, entry) in &first.completed {
            shared.publish(shared.generation(), *goal, entry.clone());
        }
        // A second scheduler answers the root from the table without
        // stepping the subtree.
        let sched2 = Scheduler::new(&cp, DemandConfig::new().with_workers(2))
            .with_shared(Arc::clone(&shared), shared.generation());
        let second = sched2.solve(Goal::Pts(node(&cp, "r")));
        assert_eq!(second.pts, first.pts);
        assert!(second.stats.share_hits >= 1);
        assert_eq!(second.stats.work, 0, "published fixpoint costs no work");
    }
}
