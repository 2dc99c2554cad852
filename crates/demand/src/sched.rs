//! Frame-based suspendable goal scheduler — intra-query parallelism.
//!
//! The sequential engine drains one goal queue on one thread; here each
//! in-progress goal becomes a `Frame` any worker can *step*. A step
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
//! the sequential engine's activation-ordered goal indices (which that
//! engine finds through a slot-addressed `GoalIndex`) — workers never
//! contend on a shared allocation, and `Goal ↔ slot` is a pure function.
//!
//! # Termination
//!
//! `active` counts frames that are queued or mid-step. It is incremented
//! under the frame lock on the off-list → on-list transition, kept while
//! a popped frame is being stepped, and decremented when the step
//! finishes. New work only appears from steps, so `active == 0` implies
//! the global fixpoint.
//!
//! A worker that finds no runnable frame sleeps on a condvar with no
//! timeout, and wakeups are counted so that a schedule costs no syscall
//! while every worker is busy:
//!
//! * the idle worker takes the idle lock, increments `sleepers`, re-checks
//!   `active` and every queue, and only then waits;
//! * a producer pushes the frame, issues a `SeqCst` fence, and takes the
//!   idle lock to notify one sleeper only when `sleepers > 0`;
//! * the step that drops `active` to zero notifies every sleeper.
//!
//! No wakeup is lost: either the producer's load sees the sleeper's
//! increment, or the sleeper's re-check (which locks the queue after the
//! increment) sees the pushed frame. The notify happens under the idle
//! lock, which the sleeper holds from its increment until it waits.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_obs::{FlightEventKind, FlightRecorder, Obs};

use crate::config::{DemandConfig, SchedPolicy};
use crate::engine::Memo;
use crate::goal::{Goal, GoalState, ListSet, Watcher};
use crate::pool::StealQueue;
use crate::rules::Deduce;
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
    /// Seeded from the host engine's already-complete table entry or a
    /// staged one — the fixpoint exists already, so finalization skips
    /// it.
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
        self.flight_events += other.flight_events;
        for (mine, theirs) in self.fires_by_kind.iter_mut().zip(&other.fires_by_kind) {
            *mine += *theirs;
        }
    }
}

/// The result of one parallel solve.
#[derive(Debug)]
pub struct SolveOutcome {
    /// The requested goal's final set, ascending.
    pub pts: Vec<NodeId>,
    /// Whether the requested goal was answered from an engine seed (no
    /// frames were stepped at all).
    pub seeded: bool,
    /// Summed worker tallies.
    pub stats: SchedStats,
    /// The solve's frame table, at the global fixpoint.
    frames: Vec<Mutex<Frame>>,
    /// The slots the solve activated, ascending.
    activated: Vec<u32>,
}

impl SolveOutcome {
    /// Every goal newly driven to fixpoint, in slot order, as a complete,
    /// watcher-free [`GoalState`] (`elems` ascending, `deps` canonical)
    /// that a host engine tables as is. Engine-seeded goals are excluded.
    ///
    /// Each state is copied exact-size on the calling thread as the
    /// iterator reaches it, rather than moved out of a frame a worker
    /// grew: the frames, and the worker-grown buffers in them, are freed
    /// with the outcome, after the copies exist.
    pub fn completed(&mut self) -> impl Iterator<Item = (Goal, GoalState)> + '_ {
        let frames = &mut self.frames;
        self.activated.iter().filter_map(move |&slot| {
            let f = frames[slot as usize]
                .get_mut()
                .expect("frame lock poisoned");
            if f.seeded_from_engine {
                return None;
            }
            Some((goal_of(slot), f.state.completed_copy()))
        })
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
    /// Workers waiting (or about to wait) on `wake`; producers notify
    /// only when it is nonzero.
    sleepers: AtomicUsize,
    idle: Mutex<()>,
    wake: Condvar,
    flight: Option<Arc<FlightRecorder>>,
    obs: Obs,
}

impl<'p> Core<'p> {
    fn lock(&self, slot: u32) -> MutexGuard<'_, Frame> {
        self.frames[slot as usize]
            .lock()
            .expect("frame lock poisoned")
    }

    /// Whether any runnable queue holds a frame.
    fn has_queued(&self) -> bool {
        !self.injector.is_empty() || self.locals.iter().any(|q| !q.is_empty())
    }

    /// Wakes one sleeping worker after a push, if any worker sleeps.
    fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _idle = self.idle.lock().expect("idle lock poisoned");
            self.wake.notify_one();
        }
    }
}

/// One worker's execution context. Implements [`Deduce`], so a step runs
/// the very same rule bodies as the sequential engine.
struct WorkerCtx<'c, 'p> {
    core: &'c Core<'p>,
    seed: Option<&'c Memo>,
    /// Worker index into `locals`; `usize::MAX` is the driver bootstrap
    /// context, which schedules onto the global injector.
    id: usize,
    stats: SchedStats,
    /// Slots this context activated; finalize visits only these.
    activated: Vec<u32>,
    /// Step buffers, reused across steps: the claimed elements, and one
    /// `(watcher, start, end)` range of them per watcher.
    pending: Vec<u32>,
    batch: Vec<(Watcher, u32, u32)>,
}

impl<'c, 'p> WorkerCtx<'c, 'p> {
    fn new(core: &'c Core<'p>, seed: Option<&'c Memo>, id: usize) -> Self {
        WorkerCtx {
            core,
            seed,
            id,
            stats: SchedStats::default(),
            activated: Vec::new(),
            pending: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// Locks `slot`'s frame, activating it first if this is its first
    /// touch.
    fn lock_active(&mut self, slot: u32) -> MutexGuard<'c, Frame> {
        let core = self.core;
        let mut f = core.lock(slot);
        if !f.active {
            self.activate_locked(slot, &mut f);
        }
        f
    }

    /// First-touch activation of the locked, inactive frame `f`: seed it
    /// from the host engine's table or staged entries, or schedule its
    /// first step.
    fn activate_locked(&mut self, slot: u32, f: &mut Frame) {
        f.active = true;
        self.stats.activated += 1;
        self.activated.push(slot);
        let goal = goal_of(slot);
        if let Some(elems) = self.seed.and_then(|m| m.completed_elems(goal)) {
            f.state.elems = ListSet::from_vec(elems);
            f.state.needs_init = false;
            f.state.complete = true;
            f.seeded_from_engine = true;
            // Nothing to schedule: a complete frame with no watchers is
            // quiescent. A later subscribe wakes it to replay `elems`.
            return;
        }
        self.schedule_locked(slot, f);
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
        self.core.wake_one();
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
    /// element, in batches collected under the frame lock into the
    /// context's reused buffers. Rule bodies run *unlocked* — they lock
    /// other frames (or re-lock this one via `add`/`subscribe`, e.g. the
    /// `FwdProp` self-subscription).
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
        let mut pending = std::mem::take(&mut self.pending);
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            // Claim the pending (watcher, elements) ranges under the lock;
            // cursor advancement is what makes concurrent steps of the
            // same frame consume disjoint ranges. A claim leaves every
            // cursor at the end, so it settles the watcher prefix, and the
            // next claim starts past it unless an element arrived since.
            pending.clear();
            batch.clear();
            {
                let mut f = self.core.lock(slot);
                let state = &mut f.state;
                let nelems = state.elems.len();
                let from = state.first_unsettled();
                let claims = state.watchers[from..]
                    .iter()
                    .zip(&mut state.cursors[from..]);
                for (watcher, cursor) in claims {
                    if (*cursor as usize) < nelems {
                        let start = pending.len() as u32;
                        pending.extend_from_slice(&state.elems[*cursor as usize..]);
                        batch.push((*watcher, start, pending.len() as u32));
                        *cursor = nelems as u32;
                    }
                }
                state.settle();
            }
            if batch.is_empty() {
                break;
            }
            for &(watcher, start, end) in &batch {
                for &elem in &pending[start as usize..end as usize] {
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
        self.pending = pending;
        self.batch = batch;
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
                // Announce the sleep before the re-check, so a producer
                // that pushes after the re-check sees `sleepers > 0`.
                let idle = self.core.idle.lock().expect("idle lock poisoned");
                self.core.sleepers.fetch_add(1, Ordering::SeqCst);
                let done = self.core.active.load(Ordering::SeqCst) == 0;
                if !done && !self.core.has_queued() {
                    drop(self.core.wake.wait(idle).expect("idle lock poisoned"));
                }
                self.core.sleepers.fetch_sub(1, Ordering::SeqCst);
                if done {
                    return;
                }
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
        let mut f = self.lock_active(slot);
        let inserted = f.state.elems.insert(value);
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
            self.core.lock(consumer).state.deps.insert(goal);
        }
        let mut f = self.lock_active(slot);
        // A CopyTo into the subscribed goal itself (`p = p`) is the
        // identity — suppress it, mirroring the sequential engine.
        if let Watcher::CopyTo { dst } = watcher {
            if slot_of(Goal::Pts(dst)) == slot {
                return;
            }
        }
        if f.state.watchers.insert(watcher) {
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
    flight: Option<Arc<FlightRecorder>>,
    obs: Obs,
}

impl<'p> Scheduler<'p> {
    /// A scheduler over `cp`; worker count and policy come from `config`.
    pub fn new(cp: &'p ConstraintProgram, config: DemandConfig) -> Self {
        Scheduler {
            cp,
            config,
            flight: None,
            obs: Obs::new(),
        }
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
    /// engine's already-completed and staged goals.
    pub(crate) fn solve_seeded(&self, goal: Goal, seed: Option<&Memo>) -> SolveOutcome {
        let workers = self.config.workers.max(1);
        let slots = 2 * self.cp.num_nodes();
        let core = Core {
            cp: self.cp,
            policy: self.config.sched_policy,
            frames: (0..slots).map(|_| Mutex::new(Frame::default())).collect(),
            injector: StealQueue::new(),
            locals: (0..workers).map(|_| StealQueue::new()).collect(),
            active: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            flight: self.flight.clone(),
            obs: self.obs.clone(),
        };
        let root = slot_of(goal);
        // Bootstrap from the driver: activate the root (which may answer
        // it outright from a seed) and enqueue its first step on the
        // global injector.
        let mut boot = WorkerCtx::new(&core, seed, usize::MAX);
        drop(boot.lock_active(root));
        let mut stats = boot.stats;
        let mut activated = boot.activated;
        let seeded = core.lock(root).seeded_from_engine;
        if !seeded {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|id| {
                        let core = &core;
                        s.spawn(move || {
                            let mut ctx = WorkerCtx::new(core, seed, id);
                            ctx.run();
                            (ctx.stats, ctx.activated)
                        })
                    })
                    .collect();
                for h in handles {
                    let (worker_stats, worker_activated) =
                        h.join().expect("scheduler worker panicked");
                    stats.absorb(&worker_stats);
                    activated.extend(worker_activated);
                }
            });
        }
        debug_assert_eq!(core.active.load(Ordering::SeqCst), 0);
        // Finalize: every activated frame is at the global fixpoint. Each
        // slot is activated once, so sorting gives slot order.
        activated.sort_unstable();
        debug_assert!(activated.iter().all(|&slot| {
            let f = core.lock(slot);
            f.state.complete || f.state.quiescent()
        }));
        let pts = core
            .lock(root)
            .state
            .sorted_elems()
            .into_iter()
            .map(NodeId::from_u32)
            .collect();
        SolveOutcome {
            pts,
            seeded,
            stats,
            frames: core.frames,
            activated,
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
                let mut out = sched.solve(Goal::Pts(node(&cp, "r")));
                let names: Vec<String> = out.pts.iter().map(|&n| cp.display_node(n)).collect();
                assert_eq!(names, vec!["o"], "{policy:?} × {workers}");
                assert!(!out.seeded);
                assert!(out.completed().next().is_some());
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
    fn staged_entries_seed_frames_and_stay_staged() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let config = DemandConfig::new().with_workers(2);
        let mut donor = DemandEngine::new(&cp, config.clone());
        let first = donor.points_to(node(&cp, "q"));
        let mut engine = DemandEngine::new(&cp, config);
        engine.warm_start(&donor.export_completed());
        // The root is not staged, so the query runs on the scheduler; the
        // staged pts(q) seeds its frame without stepping the subtree.
        let second = engine.points_to(node(&cp, "r"));
        assert!(engine.last_query_parallel());
        assert_eq!(second.pts, first.pts);
        assert_eq!(second.work, 2, "only pts(r) is derived");
        assert!(engine.stats().share_hits >= 1);
        assert!(
            engine
                .export_completed()
                .iter()
                .any(|(g, _)| *g == Goal::Pts(node(&cp, "q"))),
            "the seeded entry stays staged"
        );
    }
}
