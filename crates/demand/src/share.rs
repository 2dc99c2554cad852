//! A shared, concurrent subgoal cache — concurrent tabling.
//!
//! The sequential engine memoizes completed goals in a private table, so
//! N parallel workers redo the subgoals a single cached engine computes
//! once (the caching/parallelism trade-off recorded in `EXPERIMENTS.md`
//! §A2). [`SharedMemo`] closes that hole: a sharded, mutex-protected map
//! from [`Goal`] to its published fixpoint that many engines consult and
//! feed concurrently. Attach one table to several engines via
//! [`DemandEngine::with_shared_memo`](crate::DemandEngine::with_shared_memo);
//! each engine then
//!
//! * *consults* the table when it activates a goal it has not tabled —
//!   a hit installs the published member set as a completed local goal,
//!   costing zero rule firings for that entire subtree; and
//! * *publishes* every newly completed goal after a successful drain —
//!   at global fixpoint a tabled set is the least-model answer, so any
//!   engine over the same program may reuse it verbatim.
//!
//! # Generations
//!
//! Entries are stamped with the table's *generation*, an atomic counter
//! bumped by [`DemandEngine::invalidate`](crate::DemandEngine::invalidate)
//! / [`reload`](crate::DemandEngine::reload) when the underlying program
//! changes. Both [`SharedMemo::lookup`] and [`SharedMemo::publish`] take
//! the generation the caller's state was computed under and refuse to
//! cross generations, so a stale entry can never be served and a
//! late-publishing engine can never pollute the new generation. Stale
//! entries are evicted lazily: the first operation to touch a shard after
//! a bump sweeps that shard's dead entries.
//!
//! # Determinism
//!
//! Published member sets are sorted snapshots ([`HybridSet`]
//! (ddpa_support::HybridSet) iterates in ascending order), and a goal's
//! fixpoint under a fixed program is unique — whichever engine publishes
//! first, every reader installs the same bits, so answers are
//! bit-identical to a private-memo engine and to the exhaustive solver.
//!
//! Everything here is `std`-only, matching the repo's zero-dependency
//! rule: 64 shards of `Mutex<HashMap>` rather than a lock-free map.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ddpa_constraints::ProgramDiff;
use ddpa_support::HybridSet;

use crate::goal::Goal;
use crate::trace::Origin;

/// Number of independently locked shards; a power of two so the shard
/// pick is a mask. 64 keeps contention negligible for any plausible
/// worker count while costing ~3 KiB of empty maps.
const SHARDS: usize = 64;

/// A completed goal's published fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompletedGoal {
    /// Member node ids, sorted ascending — the canonical snapshot order.
    pub elems: Vec<u32>,
    /// `(member, first derivation)` pairs; populated only when the
    /// publishing engine ran with tracing on, empty otherwise.
    pub provenance: Vec<(u32, Origin)>,
    /// Support set: node ids whose program rows this fixpoint read,
    /// sorted ascending. An empty support on a published entry means
    /// "unknown provenance" and is treated as always-dirty by
    /// [`dirty_closure`](crate::dirty_closure).
    pub support: Vec<u32>,
    /// Producer goals this fixpoint consumed facts from, in canonical
    /// order (`Pts` before `Ptb`, then by node id). Transitive dirtying
    /// follows these edges from producer to consumer.
    pub deps: Vec<Goal>,
    /// Whether the fixpoint scanned the global indirect-callsite list.
    pub reads_indirect: bool,
}

#[derive(Debug)]
struct Entry {
    generation: u64,
    result: CompletedGoal,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Goal, Entry>,
    /// Generation this shard last swept stale entries at. Eviction is
    /// lazy: the first lookup/publish to observe a newer table
    /// generation retains only current-generation entries.
    swept_at: u64,
}

impl Shard {
    /// Drops entries from generations older than `current`; returns how
    /// many were evicted.
    fn sweep(&mut self, current: u64) -> u64 {
        if self.swept_at == current {
            return 0;
        }
        let before = self.entries.len();
        self.entries.retain(|_, e| e.generation == current);
        self.swept_at = current;
        (before - self.entries.len()) as u64
    }
}

/// A sharded, generation-stamped cache of completed goals shared across
/// engines (and threads).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ddpa_demand::{DemandConfig, DemandEngine, SharedMemo};
///
/// let cp = ddpa_constraints::parse_constraints("p = &g\nq = p\n")?;
/// let q = cp.node_ids().find(|&n| cp.display_node(n) == "q").expect("q exists");
/// let shared = Arc::new(SharedMemo::new());
///
/// let mut warm = DemandEngine::new(&cp, DemandConfig::default())
///     .with_shared_memo(Arc::clone(&shared));
/// let full = warm.points_to(q); // computes, then publishes
///
/// let mut cold = DemandEngine::new(&cp, DemandConfig::default())
///     .with_shared_memo(Arc::clone(&shared));
/// let reused = cold.points_to(q); // served from the shared table
/// assert_eq!(full.pts, reused.pts);
/// assert_eq!(reused.work, 0); // zero rule firings
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SharedMemo {
    shards: Vec<Mutex<Shard>>,
    generation: AtomicU64,
}

impl Default for SharedMemo {
    fn default() -> Self {
        SharedMemo::new()
    }
}

impl SharedMemo {
    /// Creates an empty table at generation 0.
    pub fn new() -> Self {
        SharedMemo {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Bumps the generation, logically invalidating every entry, and
    /// returns the new value. Physical eviction happens lazily per shard.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Looks up `goal` among entries of generation `generation`.
    ///
    /// Returns `(hit, evicted)`: the entry if one exists *and*
    /// `generation` is still current (a caller whose state predates a
    /// bump must recompute, never reuse), plus the number of stale
    /// entries the touched shard lazily evicted.
    pub fn lookup(&self, generation: u64, goal: Goal) -> (Option<CompletedGoal>, u64) {
        let current = self.generation();
        let mut shard = self.shard(goal);
        let evicted = shard.sweep(current);
        if generation != current {
            return (None, evicted);
        }
        let hit = shard
            .entries
            .get(&goal)
            .filter(|e| e.generation == generation)
            .map(|e| e.result.clone());
        (hit, evicted)
    }

    /// Publishes `result` as the fixpoint of `goal`, computed under
    /// `generation`.
    ///
    /// Returns `(published, evicted)`: `published` is `false` when the
    /// table has moved on to a newer generation (the stale result is
    /// discarded rather than allowed to pollute the new one) or when
    /// another engine already published this goal (first writer wins —
    /// fixpoints are unique, so the loser's copy is redundant).
    pub fn publish(&self, generation: u64, goal: Goal, result: CompletedGoal) -> (bool, u64) {
        let current = self.generation();
        let mut shard = self.shard(goal);
        let evicted = shard.sweep(current);
        if generation != current {
            return (false, evicted);
        }
        let mut inserted = false;
        shard.entries.entry(goal).or_insert_with(|| {
            inserted = true;
            Entry { generation, result }
        });
        (inserted, evicted)
    }

    /// Removes exactly the `dirty` goals from the *current* generation —
    /// per-entry dirtying for incremental edits, in contrast to
    /// [`bump_generation`](Self::bump_generation), which logically evicts
    /// everything. Also eagerly sweeps stale generations from every shard
    /// so dirtied entries stop accumulating lazily.
    ///
    /// Returns `(removed, compacted)`: current-generation entries dropped
    /// because they were dirty, and stale-generation entries swept.
    pub fn invalidate_entries(&self, dirty: &HashSet<Goal>) -> (u64, u64) {
        let compacted = self.compact();
        let removed = dirty
            .iter()
            .filter(|&&goal| self.shard(goal).entries.remove(&goal).is_some())
            .count();
        (removed as u64, compacted)
    }

    /// Eagerly sweeps every shard, dropping all entries from generations
    /// older than the current one; returns how many were evicted.
    ///
    /// Normally eviction is lazy (the first touch of a shard after a
    /// [`bump_generation`](Self::bump_generation) sweeps it), which is
    /// fine for serving but wrong for persistence: a snapshot taken from
    /// a half-swept table would serialize dead generations.
    /// [`export_completed`](Self::export_completed) calls this first.
    pub fn compact(&self) -> u64 {
        let current = self.generation();
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).sweep(current))
            .sum()
    }

    /// Exports every current-generation fixpoint as a deterministically
    /// sorted list of `(goal, result)` pairs.
    ///
    /// Compacts first, so the export never contains stale generations.
    /// The order is canonical (all `Pts` goals by node id, then all
    /// `Ptb`), making exports byte-stable for snapshotting regardless of
    /// which worker published which entry.
    pub fn export_completed(&self) -> Vec<(Goal, CompletedGoal)> {
        self.export_where(|_| true)
    }

    /// [`export_completed`](Self::export_completed) restricted to the
    /// goals `keep` accepts; only those entries are cloned.
    pub fn export_where(&self, keep: impl Fn(Goal) -> bool) -> Vec<(Goal, CompletedGoal)> {
        self.compact();
        let mut out: Vec<(Goal, CompletedGoal)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(
                shard
                    .entries
                    .iter()
                    .filter(|(goal, _)| keep(**goal))
                    .map(|(goal, entry)| (*goal, entry.result.clone())),
            );
        }
        out.sort_by_key(|&(goal, _)| goal.canonical_key());
        out
    }

    /// Bulk-installs fixpoints at the table's *current* generation;
    /// returns how many were newly inserted.
    ///
    /// This is the restore half of [`export_completed`](Self::export_completed).
    /// First-writer-wins semantics are preserved: entries already
    /// published (e.g. by a worker that raced the restore) are left
    /// untouched — fixpoints under a fixed program are unique, so the
    /// copies agree. The caller is responsible for checking that the
    /// imported entries were computed over the *same program* (snapshot
    /// restore verifies the program hash before calling this).
    pub fn import<I>(&self, entries: I) -> usize
    where
        I: IntoIterator<Item = (Goal, CompletedGoal)>,
    {
        let generation = self.generation();
        let mut installed = 0;
        for (goal, result) in entries {
            if self.publish(generation, goal, result).0 {
                installed += 1;
            }
        }
        installed
    }

    /// Number of entries currently stored (including not-yet-evicted
    /// stale ones).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// Whether the table stores no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks and returns the shard responsible for `goal`. A poisoned
    /// shard is recovered (`into_inner`): entries are only ever inserted
    /// or removed whole, so the map is valid after any panic.
    fn shard(&self, goal: Goal) -> std::sync::MutexGuard<'_, Shard> {
        let mut h = DefaultHasher::new();
        goal.hash(&mut h);
        let i = (h.finish() as usize) & (SHARDS - 1);
        self.shards[i].lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Computes the transitively dirtied subset of `entries` under `diff`.
///
/// An entry is *seed-dirty* when its support set intersects the edit's
/// changed nodes, when it scanned the indirect-callsite list and that
/// list changed, when its support is empty (unknown provenance — e.g. an
/// entry published by a pre-support-set engine), or when it depends on a
/// producer goal with no entry of its own. Dirt then propagates forward
/// along the recorded dependency edges, dirty producer → consumer, until
/// fixpoint — the demanded-dirtying rule of *Demanded Abstract
/// Interpretation* applied to the goal graph.
///
/// Returns the dirty goal set and the number of dependency edges the
/// propagation traversed.
pub fn dirty_closure(
    entries: &[(Goal, CompletedGoal)],
    diff: &ProgramDiff,
) -> (HashSet<Goal>, u64) {
    let mut at = ViewIndex::with_nodes(0);
    let views: Vec<DirtyView<'_>> = entries
        .iter()
        .enumerate()
        .map(|(i, (goal, cg))| {
            at.insert(*goal, i);
            DirtyView::of_entry(*goal, cg)
        })
        .collect();
    let (dirty, edges) = close_dirty(&views, &at, diff);
    let set = views
        .iter()
        .zip(dirty)
        .filter(|&(_, d)| d)
        .map(|(v, _)| v.goal)
        .collect();
    (set, edges)
}

/// Goal → index of its view. Goals of the first `nodes` nodes are
/// addressed densely by slot (`pts(n) → 2n`, `ptb(n) → 2n+1`), so the
/// closure's many lookups hash nothing; any other goal — one a snapshot
/// may carry — goes to a map, so no node id can size an allocation.
pub(crate) struct ViewIndex {
    dense: Vec<u32>,
    sparse: HashMap<Goal, u32>,
}

impl ViewIndex {
    /// An empty index, dense over the goals of `nodes` nodes.
    pub(crate) fn with_nodes(nodes: usize) -> Self {
        ViewIndex {
            dense: vec![u32::MAX; 2 * nodes],
            sparse: HashMap::new(),
        }
    }

    fn slot(&self, goal: Goal) -> Option<usize> {
        let slot = match goal {
            Goal::Pts(n) => 2 * n.as_u32() as usize,
            Goal::Ptb(n) => 2 * n.as_u32() as usize + 1,
        };
        (slot < self.dense.len()).then_some(slot)
    }

    /// Records `view` as the view of `goal` (a later call wins).
    pub(crate) fn insert(&mut self, goal: Goal, view: usize) {
        match self.slot(goal) {
            Some(slot) => self.dense[slot] = view as u32,
            None => {
                self.sparse.insert(goal, view as u32);
            }
        }
    }

    /// The view of `goal`, if one was recorded.
    pub(crate) fn get(&self, goal: Goal) -> Option<usize> {
        let view = match self.slot(goal) {
            Some(slot) => self.dense[slot],
            None => *self.sparse.get(&goal)?,
        };
        (view != u32::MAX).then_some(view as usize)
    }
}

/// A support set as [`close_dirty`] reads it.
pub(crate) enum SupportRef<'a> {
    /// A published entry's ascending node list.
    Sorted(&'a [u32]),
    /// A tabled goal's set.
    Set(&'a HybridSet),
}

/// One memoized fixpoint as [`close_dirty`] reads it, borrowed from a
/// published [`CompletedGoal`] or from an engine's tabled goal state.
pub(crate) struct DirtyView<'a> {
    pub(crate) goal: Goal,
    pub(crate) support: SupportRef<'a>,
    pub(crate) deps: &'a [Goal],
    pub(crate) reads_indirect: bool,
}

impl<'a> DirtyView<'a> {
    pub(crate) fn of_entry(goal: Goal, entry: &'a CompletedGoal) -> Self {
        DirtyView {
            goal,
            support: SupportRef::Sorted(&entry.support),
            deps: &entry.deps,
            reads_indirect: entry.reads_indirect,
        }
    }

    /// Dirty on its own account: see [`dirty_closure`].
    fn seed(&self, diff: &ProgramDiff) -> bool {
        if self.reads_indirect && diff.indirect_changed {
            return true;
        }
        match self.support {
            SupportRef::Sorted(s) => s.is_empty() || s.iter().any(|&n| diff.is_changed(n)),
            SupportRef::Set(s) => s.is_empty() || diff.changed.iter().any(|&n| s.contains(n)),
        }
    }
}

/// The closure behind [`dirty_closure`] and incremental reload: `at`
/// finds each goal's view, and a dep no view holds seeds its consumer.
/// Returns a dirty flag per view and the number of dependency edges the
/// propagation traversed.
pub(crate) fn close_dirty(
    views: &[DirtyView<'_>],
    at: &ViewIndex,
    diff: &ProgramDiff,
) -> (Vec<bool>, u64) {
    let n = views.len();
    let mut dirty = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    // Consumers of view `p` are `consumers[start[p]..start[p + 1]]`:
    // count each producer's consumers, then place them.
    let mut start = vec![0u32; n + 1];
    for (i, view) in views.iter().enumerate() {
        let mut seed = view.seed(diff);
        for &p in view.deps {
            match at.get(p) {
                Some(pi) if pi != i => start[pi + 1] += 1,
                Some(_) => {}
                None => seed = true,
            }
        }
        if seed {
            dirty[i] = true;
            queue.push(i);
        }
    }
    for p in 0..n {
        start[p + 1] += start[p];
    }
    let mut consumers = vec![0u32; start[n] as usize];
    let mut next = start.clone();
    for (i, view) in views.iter().enumerate() {
        for &p in view.deps {
            if let Some(pi) = at.get(p).filter(|&pi| pi != i) {
                consumers[next[pi] as usize] = i as u32;
                next[pi] += 1;
            }
        }
    }
    let mut traversed = 0u64;
    while let Some(i) = queue.pop() {
        for &c in &consumers[start[i] as usize..start[i + 1] as usize] {
            traversed += 1;
            if !dirty[c as usize] {
                dirty[c as usize] = true;
                queue.push(c as usize);
            }
        }
    }
    (dirty, traversed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_constraints::NodeId;

    fn goal(n: u32) -> Goal {
        Goal::Pts(NodeId::from_u32(n))
    }

    fn entry(elems: &[u32]) -> CompletedGoal {
        CompletedGoal {
            elems: elems.to_vec(),
            ..CompletedGoal::default()
        }
    }

    #[test]
    fn publish_then_lookup_round_trips() {
        let memo = SharedMemo::new();
        let (published, _) = memo.publish(0, goal(1), entry(&[3, 7]));
        assert!(published);
        let (hit, _) = memo.lookup(0, goal(1));
        assert_eq!(hit.expect("hit").elems, vec![3, 7]);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn first_writer_wins() {
        let memo = SharedMemo::new();
        assert!(memo.publish(0, goal(1), entry(&[3])).0);
        assert!(!memo.publish(0, goal(1), entry(&[3])).0);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn bump_hides_and_lazily_evicts_stale_entries() {
        let memo = SharedMemo::new();
        for n in 0..100 {
            memo.publish(0, goal(n), entry(&[n]));
        }
        assert_eq!(memo.len(), 100);
        assert_eq!(memo.bump_generation(), 1);
        // Old-generation reads miss, whichever generation they ask for.
        assert!(memo.lookup(0, goal(5)).0.is_none());
        assert!(memo.lookup(1, goal(6)).0.is_none());
        // Each touched shard swept its stale entries exactly once.
        let (_, evicted_now) = memo.lookup(1, goal(5));
        assert_eq!(evicted_now, 0, "second touch of a swept shard is free");
        // Publishing at the new generation works; at the old one it is
        // refused.
        assert!(memo.publish(1, goal(5), entry(&[9])).0);
        assert!(!memo.publish(0, goal(6), entry(&[9])).0);
        assert_eq!(memo.lookup(1, goal(5)).0.expect("hit").elems, vec![9]);
    }

    #[test]
    fn eviction_counts_sum_to_the_stale_population() {
        let memo = SharedMemo::new();
        for n in 0..256 {
            memo.publish(0, goal(n), entry(&[n]));
        }
        memo.bump_generation();
        // First touch of each shard sweeps it and reports its stale
        // count; touching every goal therefore accounts for all 256.
        let evicted: u64 = (0..256).map(|n| memo.lookup(1, goal(n)).1).sum();
        assert_eq!(evicted, 256);
        assert_eq!(memo.len(), 0);
        let resweep: u64 = (0..256).map(|n| memo.lookup(1, goal(n)).1).sum();
        assert_eq!(resweep, 0);
    }

    #[test]
    fn compact_reports_every_stale_entry_exactly_once() {
        let memo = SharedMemo::new();
        for n in 0..256 {
            memo.publish(0, goal(n), entry(&[n]));
        }
        // Nothing is stale yet, so compaction is a no-op.
        assert_eq!(memo.compact(), 0);
        memo.bump_generation();
        // One lookup lazily sweeps a single shard; compact must account
        // for everything else and must not double-count that shard.
        let (_, swept_early) = memo.lookup(1, goal(0));
        assert_eq!(memo.compact() + swept_early, 256);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.compact(), 0, "second compact finds nothing");
    }

    #[test]
    fn export_is_sorted_skips_stale_and_round_trips_through_import() {
        let memo = SharedMemo::new();
        memo.publish(0, Goal::Ptb(NodeId::from_u32(2)), entry(&[9]));
        memo.publish(0, goal(7), entry(&[1, 4]));
        memo.publish(0, goal(3), entry(&[2]));
        let exported = memo.export_completed();
        let order: Vec<Goal> = exported.iter().map(|&(g, _)| g).collect();
        assert_eq!(
            order,
            vec![goal(3), goal(7), Goal::Ptb(NodeId::from_u32(2))],
            "canonical order: Pts by node, then Ptb"
        );

        // Import into a fresh table: everything lands, answers intact.
        let fresh = SharedMemo::new();
        assert_eq!(fresh.import(exported.clone()), 3);
        assert_eq!(fresh.lookup(0, goal(7)).0.expect("hit").elems, vec![1, 4]);
        // Re-import is first-writer-wins: nothing new.
        assert_eq!(fresh.import(exported), 0);

        // A bump makes the old entries stale; export must not see them.
        memo.bump_generation();
        memo.publish(1, goal(11), entry(&[5]));
        let after = memo.export_completed();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].0, goal(11));
    }

    #[test]
    fn import_lands_at_the_current_generation() {
        let source = SharedMemo::new();
        source.publish(0, goal(1), entry(&[8]));
        let exported = source.export_completed();

        let target = SharedMemo::new();
        target.bump_generation();
        target.bump_generation();
        assert_eq!(target.import(exported), 1);
        // Visible at the target's own generation, not the source's.
        assert_eq!(target.lookup(2, goal(1)).0.expect("hit").elems, vec![8]);
        assert!(target.lookup(0, goal(1)).0.is_none());
    }

    #[test]
    fn dirty_closure_follows_deps_on_any_node_id() {
        // A snapshot can name any node id; the closure must neither size
        // an allocation by it nor lose the edge.
        let far = Goal::Ptb(NodeId::from_u32(u32::MAX - 1));
        let entries = vec![
            (
                goal(1),
                CompletedGoal {
                    support: vec![1],
                    deps: vec![far],
                    ..CompletedGoal::default()
                },
            ),
            (
                far,
                CompletedGoal {
                    support: vec![7],
                    ..CompletedGoal::default()
                },
            ),
            (
                goal(2),
                CompletedGoal {
                    support: vec![2],
                    ..CompletedGoal::default()
                },
            ),
        ];
        let diff = ProgramDiff {
            changed: vec![7],
            indirect_changed: false,
            compatible: true,
        };
        let (dirty, edges) = dirty_closure(&entries, &diff);
        assert_eq!(dirty, HashSet::from([goal(1), far]));
        assert_eq!(edges, 1);
    }

    #[test]
    fn concurrent_publish_and_lookup() {
        use std::sync::Arc;
        let memo = Arc::new(SharedMemo::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let memo = Arc::clone(&memo);
                std::thread::spawn(move || {
                    for n in 0..200u32 {
                        memo.publish(0, goal(n), entry(&[n, n + 1]));
                        if let (Some(hit), _) = memo.lookup(0, goal(n)) {
                            assert_eq!(hit.elems, vec![n, n + 1], "worker {t} read torn entry");
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker");
        }
        assert_eq!(memo.len(), 200);
    }
}
