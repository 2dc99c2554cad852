//! Subgoals and rule-instance watchers — the tabled deduction state.
//!
//! A query activates a [`Goal`]; its deduction rules are installed as
//! [`Watcher`]s subscribed to other goals. Each watcher keeps a *cursor*
//! into its source goal's element list, so delivery is incremental,
//! budget-abortable, and resumable: a watcher installed later simply
//! starts its cursor at zero and replays the memoized elements.

use std::collections::HashMap;
use std::hash::Hash;

use ddpa_support::{FxHashSet, HybridSet, SparseBitSet};

use ddpa_constraints::NodeId;

/// A tabled subgoal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Goal {
    /// `pts(v)` — the set of locations `v` may point to.
    Pts(NodeId),
    /// `ptb(o)` — the set of locations that may point to `o` (the inverse
    /// relation; needed to find the stores that may write a location).
    Ptb(NodeId),
}

impl Goal {
    /// The node this goal is about.
    pub fn node(self) -> NodeId {
        match self {
            Goal::Pts(n) | Goal::Ptb(n) => n,
        }
    }

    /// The canonical goal order of exported entries and their deps:
    /// every `Pts` goal by node id, then every `Ptb`.
    pub fn canonical_key(self) -> (u8, u32) {
        match self {
            Goal::Pts(n) => (0, n.as_u32()),
            Goal::Ptb(n) => (1, n.as_u32()),
        }
    }
}

/// Goal → `u32` table (a goal-table index or a view index) addressed by
/// the scheduler's slots: `pts(n) → 2n`, `ptb(n) → 2n+1`. Goals of the
/// first `nodes` nodes live in a dense array, so lookups hash nothing;
/// any other goal — one a snapshot may carry — goes to a map, so no node
/// id can size an allocation. The dense part grows only by
/// [`GoalIndex::grow`], to the node count of the program being analyzed.
#[derive(Debug, Default)]
pub(crate) struct GoalIndex {
    dense: Vec<u32>,
    sparse: HashMap<Goal, u32>,
}

impl GoalIndex {
    const ABSENT: u32 = u32::MAX;

    /// An empty index, dense over the goals of `nodes` nodes.
    pub(crate) fn with_nodes(nodes: usize) -> Self {
        let mut index = GoalIndex::default();
        index.grow(nodes);
        index
    }

    /// Extends the dense part to cover the goals of `nodes` nodes (never
    /// shrinks), moving map entries that now fall inside it.
    pub(crate) fn grow(&mut self, nodes: usize) {
        if 2 * nodes <= self.dense.len() {
            return;
        }
        self.dense.resize(2 * nodes, Self::ABSENT);
        let sparse = std::mem::take(&mut self.sparse);
        for (goal, v) in sparse {
            self.insert(goal, v);
        }
    }

    fn slot(&self, goal: Goal) -> Option<usize> {
        let slot = match goal {
            Goal::Pts(n) => 2 * n.as_u32() as usize,
            Goal::Ptb(n) => 2 * n.as_u32() as usize + 1,
        };
        (slot < self.dense.len()).then_some(slot)
    }

    /// Records `v` for `goal` (a later call wins).
    pub(crate) fn insert(&mut self, goal: Goal, v: u32) {
        debug_assert_ne!(v, Self::ABSENT);
        match self.slot(goal) {
            Some(slot) => self.dense[slot] = v,
            None => {
                self.sparse.insert(goal, v);
            }
        }
    }

    /// Forgets `goal`.
    pub(crate) fn remove(&mut self, goal: Goal) {
        match self.slot(goal) {
            Some(slot) => self.dense[slot] = Self::ABSENT,
            None => {
                self.sparse.remove(&goal);
            }
        }
    }

    /// The value recorded for `goal`, if any.
    #[inline]
    pub(crate) fn get(&self, goal: Goal) -> Option<u32> {
        let v = match self.slot(goal) {
            Some(slot) => self.dense[slot],
            None => *self.sparse.get(&goal)?,
        };
        (v != Self::ABSENT).then_some(v)
    }
}

/// A rule instance subscribed to a goal; fired once per (watcher, element).
///
/// Each variant documents the deduction rule it implements, writing `Δ` for
/// the newly delivered element of the subscribed goal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Watcher {
    /// On `pts(src)`: `dst = src  ∧  Δ ∈ pts(src)  ⇒  Δ ∈ pts(dst)`.
    /// Also used as the materialized edge of resolved loads, stores and
    /// calls.
    CopyTo {
        /// Destination `pts` goal.
        dst: NodeId,
    },
    /// On `pts(p)` for a load `dst = *p`:
    /// `Δ ∈ pts(p) ⇒ pts(dst) ⊇ pts(Δ)` — installs `CopyTo{dst}` on
    /// `pts(Δ)`.
    LoadDst {
        /// The load's destination.
        dst: NodeId,
    },
    /// On `ptb(obj)` (for the `pts(obj)` goal of an address-taken `obj`):
    /// `Δ ∈ ptb(obj) ∧ *Δ = src ⇒ pts(obj) ⊇ pts(src)` — installs
    /// `CopyTo{obj}` on `pts(src)` for every store through `Δ`.
    StoreInto {
        /// The queried object.
        obj: NodeId,
    },
    /// On `pts(fp)` of an indirect call site, for a formal-parameter goal:
    /// `Δ = @fn ⇒ pts(formal) ⊇ pts(arg)`.
    CallFormal {
        /// The function object that must appear for the edge to be real.
        func_obj: NodeId,
        /// The callee's formal being queried.
        formal: NodeId,
        /// The call site's actual argument at the matching position.
        arg: NodeId,
    },
    /// On `pts(fp)` of an indirect call site, for a return-value goal:
    /// `Δ = @fn f ⇒ pts(dst) ⊇ pts(f::ret)`.
    CallRet {
        /// The call's result destination.
        dst: NodeId,
    },
    /// On `ptb(obj)` itself: forward-propagates each new pointer `Δ`
    /// through copies, stores, loads and calls (rules a–f in
    /// [`crate::engine`]).
    FwdProp {
        /// The object whose `ptb` goal this is.
        obj: NodeId,
    },
    /// On `pts(p)` for a store `*p = w` with `w ∈ ptb(obj)`:
    /// `Δ ∈ pts(p) ⇒ Δ ∈ ptb(obj)`.
    StoreSpread {
        /// The object being tracked.
        obj: NodeId,
    },
    /// On `ptb(z)` for an object `z ∈ ptb(obj)`:
    /// `Δ ∈ ptb(z) ∧ d = *Δ ⇒ d ∈ ptb(obj)`.
    LoadSpread {
        /// The object being tracked.
        obj: NodeId,
    },
    /// On `pts(fp)` of an indirect call site whose argument at `pos` is in
    /// `ptb(obj)`: `Δ = @fn f ⇒ f::arg_pos ∈ ptb(obj)`.
    ArgSpread {
        /// The object being tracked.
        obj: NodeId,
        /// Argument position.
        pos: u32,
    },
    /// On `pts(fp)` of an indirect call site, when `f::ret ∈ ptb(obj)`:
    /// `Δ = func_obj ⇒ ret_dst ∈ ptb(obj)`.
    RetSpread {
        /// The object being tracked.
        obj: NodeId,
        /// The function object whose return is in `ptb(obj)`.
        func_obj: NodeId,
        /// The call site's result destination.
        ret_dst: NodeId,
    },
    /// On `pts(base)` for `dst = &base->field` (field-sensitive
    /// extension): `Δ ∈ pts(base), Δ has field ⇒ Δ.field ∈ pts(dst)`.
    FieldOf {
        /// The pointer receiving the field address.
        dst: NodeId,
        /// The field index.
        field: u32,
    },
    /// On `ptb(parent)` for a field-node goal `ptb(parent.field)`:
    /// `Δ ∈ ptb(parent), dst = &Δ->field ⇒ dst ∈ ptb(parent.field)`.
    FieldPtb {
        /// The field node being tracked.
        obj: NodeId,
        /// The field index.
        field: u32,
    },
}

impl Watcher {
    /// Metric-friendly names of the variants, indexed by [`Watcher::kind_index`].
    pub const KIND_NAMES: [&'static str; 12] = [
        "copy_to",
        "load_dst",
        "store_into",
        "call_formal",
        "call_ret",
        "fwd_prop",
        "store_spread",
        "load_spread",
        "arg_spread",
        "ret_spread",
        "field_of",
        "field_ptb",
    ];

    /// The variant's index into [`Watcher::KIND_NAMES`] (declaration order).
    pub fn kind_index(&self) -> usize {
        match self {
            Watcher::CopyTo { .. } => 0,
            Watcher::LoadDst { .. } => 1,
            Watcher::StoreInto { .. } => 2,
            Watcher::CallFormal { .. } => 3,
            Watcher::CallRet { .. } => 4,
            Watcher::FwdProp { .. } => 5,
            Watcher::StoreSpread { .. } => 6,
            Watcher::LoadSpread { .. } => 7,
            Watcher::ArgSpread { .. } => 8,
            Watcher::RetSpread { .. } => 9,
            Watcher::FieldOf { .. } => 10,
            Watcher::FieldPtb { .. } => 11,
        }
    }

    /// The variant's metric-friendly name.
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// The goal this rule instance delivers facts *into* — the consumer
    /// side of the dependency edge `producer → consumer` the watcher
    /// realizes. The producer is the goal the watcher is installed on,
    /// so a goal's watcher list *is* its outgoing dependency edges; the
    /// introspection layer ([`crate::inspect`]) walks exactly this
    /// mapping to reconstruct the goal graph post-hoc.
    pub fn consumer(&self) -> Goal {
        match *self {
            Watcher::CopyTo { dst } => Goal::Pts(dst),
            Watcher::LoadDst { dst } => Goal::Pts(dst),
            Watcher::StoreInto { obj } => Goal::Pts(obj),
            Watcher::CallFormal { formal, .. } => Goal::Pts(formal),
            Watcher::CallRet { dst } => Goal::Pts(dst),
            Watcher::FwdProp { obj } => Goal::Ptb(obj),
            Watcher::StoreSpread { obj } => Goal::Ptb(obj),
            Watcher::LoadSpread { obj } => Goal::Ptb(obj),
            Watcher::ArgSpread { obj, .. } => Goal::Ptb(obj),
            Watcher::RetSpread { obj, .. } => Goal::Ptb(obj),
            Watcher::FieldOf { dst, .. } => Goal::Pts(dst),
            Watcher::FieldPtb { obj, .. } => Goal::Ptb(obj),
        }
    }
}

/// How many entries a [`ListSet`] scans for membership before it builds
/// an index.
const SCAN: usize = 16;

/// The membership index a [`ListSet`] builds past the scan.
pub trait SetIndex<T>: FromIterator<T> {
    /// Inserts `value`; returns `true` if it was absent.
    fn insert_new(&mut self, value: T) -> bool;
}

/// Element ids: the bitset also iterates them ascending.
impl SetIndex<u32> for SparseBitSet {
    fn insert_new(&mut self, value: u32) -> bool {
        self.insert(value)
    }
}

impl<T: Hash + Eq> SetIndex<T> for FxHashSet<T> {
    fn insert_new(&mut self, value: T) -> bool {
        self.insert(value)
    }
}

/// A set stored once, as a list in first-insertion order. Membership is
/// a linear scan up to 16 entries (`SCAN`) and past that an index `I`
/// behind one box, built by the first insert that needs it, so a set
/// that is never probed past the scan never pays for one. Reads go
/// through the list; only [`insert`](ListSet::insert) grows it.
#[derive(Clone, Debug)]
pub struct ListSet<T, I = FxHashSet<T>> {
    list: Vec<T>,
    index: Option<Box<I>>,
}

impl<T: Copy + Eq, I: SetIndex<T>> ListSet<T, I> {
    /// The set of `list`'s entries, which must be distinct, in their
    /// order.
    pub fn from_vec(list: Vec<T>) -> Self {
        ListSet { list, index: None }
    }

    /// Appends `value` unless present; returns `true` if it was new.
    pub fn insert(&mut self, value: T) -> bool {
        let new = match &mut self.index {
            Some(index) => index.insert_new(value),
            None if self.list.len() < SCAN => !self.list.contains(&value),
            None => {
                let index = self.list.iter().copied().collect();
                self.index.insert(Box::new(index)).insert_new(value)
            }
        };
        if new {
            self.list.push(value);
        }
        new
    }
}

impl<T, I> Default for ListSet<T, I> {
    fn default() -> Self {
        ListSet {
            list: Vec::new(),
            index: None,
        }
    }
}

impl<T, I> std::ops::Deref for ListSet<T, I> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.list
    }
}

/// The table entry for one goal: its fact set and the rule instances
/// reading it, each stored once in a [`ListSet`].
#[derive(Debug)]
pub struct GoalState {
    /// Elements in insertion order — watchers index into this; queries
    /// read it ascending through [`GoalState::sorted_elems`].
    pub elems: ListSet<u32, SparseBitSet>,
    /// Installed rule instances, in installation order. A suppressed
    /// identity copy is never installed, and the engine tests for one
    /// before it tests membership here.
    pub watchers: ListSet<Watcher>,
    /// `cursors[i]` = how many of `elems` watcher `i` has consumed.
    pub cursors: Vec<u32>,
    /// Static rules not yet installed.
    pub needs_init: bool,
    /// All rules installed and every fact fully propagated — the memoized
    /// result is final and reusable.
    pub complete: bool,
    /// Currently queued for processing.
    pub on_list: bool,
    /// This state was merged into a cycle representative and is now an
    /// empty shell; all lookups route to the representative via the
    /// engine's union-find (see [`crate::cycles::CopyGraph`]).
    pub merged: bool,
    /// Keys of goals merged *into* this state. Provenance entries recorded
    /// before the merge live under these keys, so explanation lookup tries
    /// them after the canonical key.
    pub aliases: Vec<Goal>,
    /// Support set: nodes whose program rows this goal's fixpoint read.
    /// An edit that changes any of these rows dirties the goal; an edit
    /// that changes none of them (and no dirty producer, see `deps`)
    /// leaves the memoized result valid for the new program.
    pub support: HybridSet,
    /// Producer goals this goal consumed facts from (the reverse of the
    /// watcher edges), in first-insertion order: transitive dirtying
    /// follows these edges forward, from a dirty producer to every
    /// consumer.
    pub deps: ListSet<Goal>,
    /// The settled watcher prefix: while `elems` still holds
    /// `settled_len` elements, every watcher below `settled_watchers` has
    /// consumed all of them (see [`GoalState::first_unsettled`]).
    settled_watchers: u32,
    settled_len: u32,
    /// The fixpoint scanned the global indirect-callsite list (`[PARAM]` /
    /// fwd-prop rule (e)), so any edit adding an indirect call dirties it.
    pub reads_indirect: bool,
}

impl GoalState {
    /// A freshly activated, uninitialized goal.
    pub fn new() -> Self {
        GoalState {
            elems: ListSet::default(),
            watchers: ListSet::default(),
            cursors: Vec::new(),
            needs_init: true,
            complete: false,
            on_list: false,
            merged: false,
            aliases: Vec::new(),
            support: HybridSet::new(),
            deps: ListSet::default(),
            settled_watchers: 0,
            settled_len: 0,
            reads_indirect: false,
        }
    }

    /// A completed fixpoint with no watchers, its `elems` sorted ascending
    /// and its `deps` into [`Goal::canonical_key`] order.
    pub fn completed(
        mut elems: ListSet<u32, SparseBitSet>,
        support: HybridSet,
        mut deps: ListSet<Goal>,
        reads_indirect: bool,
    ) -> Self {
        elems.list.sort_unstable();
        deps.list.sort_unstable_by_key(|g| g.canonical_key());
        GoalState {
            elems,
            support,
            deps,
            reads_indirect,
            needs_init: false,
            complete: true,
            ..GoalState::new()
        }
    }

    /// This state's fixpoint as [`GoalState::completed`] builds it, by
    /// move: watchers dropped, `elems` and `deps` sorted.
    pub fn into_completed(self) -> Self {
        GoalState::completed(self.elems, self.support, self.deps, self.reads_indirect)
    }

    /// A copy of this state's fixpoint as [`GoalState::completed`] builds
    /// it.
    pub fn completed_copy(&self) -> Self {
        GoalState::completed(
            self.elems.clone(),
            self.support.clone(),
            self.deps.clone(),
            self.reads_indirect,
        )
    }

    /// The elements in ascending order, exact-size: read off the index
    /// when `elems` has one, else a sorted copy of the list — at most 16
    /// (`SCAN`) elements, or a completed state's, already in order.
    pub fn sorted_elems(&self) -> Vec<u32> {
        match self.elems.index.as_deref() {
            Some(bits) => {
                let mut out = Vec::with_capacity(self.elems.len());
                out.extend(bits.iter());
                out
            }
            None => {
                let mut out = self.elems.to_vec();
                out.sort_unstable();
                out
            }
        }
    }

    /// Where a visit starts firing: past the settled watcher prefix when
    /// the goal gained no element since [`GoalState::settle`], else at
    /// the first watcher. Only watchers whose cursor is already at the end
    /// are skipped, so the firing order is unchanged.
    pub(crate) fn first_unsettled(&self) -> usize {
        if self.elems.len() == self.settled_len as usize {
            self.settled_watchers as usize
        } else {
            0
        }
    }

    /// Marks every watcher as settled; the caller has just advanced every
    /// cursor to the end of `elems`. New watchers append after the prefix
    /// and new elements void it, so it stays valid until the watcher list
    /// is rebuilt ([`GoalState::unsettle`]).
    pub(crate) fn settle(&mut self) {
        self.settled_watchers = self.watchers.len() as u32;
        self.settled_len = self.elems.len() as u32;
    }

    /// Forgets the settled prefix (the watcher list was rebuilt).
    pub(crate) fn unsettle(&mut self) {
        self.settled_watchers = 0;
        self.settled_len = 0;
    }

    /// Returns `true` if every watcher has consumed every element and the
    /// static rules are installed.
    pub fn quiescent(&self) -> bool {
        !self.needs_init && self.cursors.iter().all(|&c| c as usize == self.elems.len())
    }
}

impl Default for GoalState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use ddpa_support::Rng;

    use super::*;

    #[test]
    fn add_deduplicates_and_orders() {
        let mut g = GoalState::new();
        assert!(g.elems.insert(5));
        assert!(g.elems.insert(3));
        assert!(!g.elems.insert(5));
        assert_eq!(*g.elems, [5, 3]);
        assert_eq!(g.elems.len(), 2);
    }

    #[test]
    fn quiescence_tracks_cursors() {
        let mut g = GoalState::new();
        g.needs_init = false;
        assert!(g.quiescent());
        g.elems.insert(1);
        g.watchers.insert(Watcher::CopyTo {
            dst: NodeId::from_u32(0),
        });
        g.cursors.push(0);
        assert!(!g.quiescent());
        g.cursors[0] = 1;
        assert!(g.quiescent());
    }

    fn goal(i: u32) -> Goal {
        let n = NodeId::from_u32(i / 2);
        if i.is_multiple_of(2) {
            Goal::Pts(n)
        } else {
            Goal::Ptb(n)
        }
    }

    fn goals(ids: impl IntoIterator<Item = u32>) -> Vec<Goal> {
        ids.into_iter().map(goal).collect()
    }

    fn watcher(i: u32) -> Watcher {
        let n = NodeId::from_u32(i / 3);
        match i % 3 {
            0 => Watcher::CopyTo { dst: n },
            1 => Watcher::FwdProp { obj: n },
            _ => Watcher::FieldOf { dst: n, field: i },
        }
    }

    /// Random insert sequences of `make(id)` over id ranges on both sides
    /// of the scan, checked after every insert against a model: the ids
    /// in first-insertion order and their `BTreeSet`. `each` then sees
    /// every final set with its model, for reads specific to `T`.
    fn model_check<T: Copy + Eq + std::fmt::Debug, I: SetIndex<T>>(
        make: impl Fn(u32) -> T,
        mut each: impl FnMut(&ListSet<T, I>, &BTreeSet<u32>),
    ) {
        let mut rng = Rng::seed_from_u64(21);
        for universe in 1..=4 * SCAN as u32 {
            let mut set = ListSet::default();
            let (mut order, mut model) = (Vec::new(), BTreeSet::new());
            for _ in 0..3 * universe {
                let id = rng.gen_range(0..universe);
                let new = model.insert(id);
                if new {
                    order.push(id);
                }
                assert_eq!(set.insert(make(id)), new, "set semantics");
                assert!(set.len() <= SCAN || set.index.is_some(), "long lists index");
                assert!(set.iter().copied().eq(order.iter().map(|&i| make(i))));
            }
            let mut rebuilt = ListSet::<T, I>::from_vec(set.to_vec());
            assert!(rebuilt.index.is_none(), "the index waits for an insert");
            assert!(
                set.iter().all(|&v| !rebuilt.insert(v)),
                "every entry is known"
            );
            assert_eq!(rebuilt.index.is_some(), set.len() >= SCAN);
            assert!(rebuilt.iter().eq(set.iter()));
            each(&set, &model);
        }
    }

    #[test]
    fn list_set_of_elements_matches_its_model() {
        model_check(
            |id| id * 37 % 1000,
            |set, model| {
                let g = GoalState {
                    elems: set.clone(),
                    ..GoalState::new()
                };
                let want: BTreeSet<u32> = model.iter().map(|&id| id * 37 % 1000).collect();
                assert_eq!(g.sorted_elems(), want.into_iter().collect::<Vec<_>>());
            },
        );
    }

    #[test]
    fn list_set_of_goals_matches_its_model() {
        model_check(goal, |set, model| {
            let g = GoalState::completed(ListSet::default(), HybridSet::new(), set.clone(), false);
            let mut want = goals(model.iter().copied());
            want.sort_by_key(|g| g.canonical_key());
            assert_eq!(*g.deps, want[..]);
        });
    }

    #[test]
    fn list_set_of_watchers_matches_its_model() {
        model_check(watcher, |set: &ListSet<Watcher>, model| {
            assert_eq!(set.len(), model.len());
        });
    }

    #[test]
    fn long_sorted_list_reads_sorted_before_and_after_its_index() {
        let sorted: Vec<u32> = (0..3 * SCAN as u32).map(|i| 5 * i).collect();
        let entry = crate::share::CompletedGoal {
            elems: sorted.clone(),
            support: vec![0],
            ..Default::default()
        };
        let mut g = entry.into_state();
        assert!(g.elems.index.is_none(), "the index is built lazily");
        assert_eq!(g.sorted_elems(), sorted);
        assert!(
            sorted.iter().all(|&v| !g.elems.insert(v)),
            "every element is known"
        );
        assert!(g.elems.index.is_some());
        assert_eq!(g.sorted_elems(), sorted);
        assert!(g.elems.insert(1));
        assert_eq!(g.elems.len(), sorted.len() + 1);
        assert_eq!(g.elems.last(), Some(&1), "a new element appends");
        assert_eq!(g.sorted_elems()[..2], [0, 1]);
    }

    #[test]
    fn add_dep_keeps_first_insertion_order_across_the_index_threshold() {
        let mut g = GoalState::new();
        // Descending ids, each recorded twice and interleaved with a
        // repeat of an earlier one, well past the scan length.
        let order = goals((0..3 * SCAN as u32).rev());
        for (i, &dep) in order.iter().enumerate() {
            g.deps.insert(dep);
            g.deps.insert(order[i / 2]);
            g.deps.insert(dep);
        }
        assert_eq!(*g.deps, order[..]);
        assert!(g.deps.index.is_some(), "a long list is indexed");
        for &dep in &order {
            g.deps.insert(dep);
        }
        assert_eq!(*g.deps, order[..], "re-recording adds nothing");
    }

    #[test]
    fn dep_index_is_built_once_the_scan_is_full() {
        let mut g = GoalState::new();
        for dep in goals(0..SCAN as u32) {
            g.deps.insert(dep);
            assert!(g.deps.index.is_none(), "a short list is scanned");
        }
        g.deps.insert(goal(0));
        assert!(g.deps.index.is_some());
        assert_eq!(*g.deps, goals(0..SCAN as u32)[..]);
    }

    #[test]
    fn restored_long_dep_list_dedups_on_the_next_record() {
        // A restored entry's deps are in canonical order.
        let mut restored = goals(0..2 * SCAN as u32);
        restored.sort_by_key(|g| g.canonical_key());
        let entry = crate::share::CompletedGoal {
            elems: vec![1, 2],
            support: vec![0],
            deps: restored.clone(),
            ..Default::default()
        };
        let mut g = entry.into_state();
        assert!(g.deps.index.is_none(), "the index is built lazily");
        for &dep in restored.iter().rev() {
            g.deps.insert(dep);
        }
        assert_eq!(*g.deps, restored[..]);
        let extra = goals([1000, 1001]);
        for &dep in extra.iter().chain(&extra) {
            g.deps.insert(dep);
        }
        assert_eq!(g.deps.len(), restored.len() + 2);
        assert_eq!(&g.deps[restored.len()..], &extra[..]);
    }

    #[test]
    fn dep_union_keeps_set_semantics() {
        // `merge_component` folds each member's deps into the
        // representative by `insert`; overlapping long lists union to
        // the representative's order followed by the member's new deps.
        let mut rep = GoalState::new();
        for dep in goals(0..2 * SCAN as u32) {
            rep.deps.insert(dep);
        }
        let mut member = GoalState::new();
        for dep in goals((SCAN as u32..3 * SCAN as u32).rev()) {
            member.deps.insert(dep);
        }
        for &dep in member.deps.iter() {
            rep.deps.insert(dep);
        }
        let mut want = goals(0..2 * SCAN as u32);
        want.extend(goals((2 * SCAN as u32..3 * SCAN as u32).rev()));
        assert_eq!(*rep.deps, want[..]);
    }

    #[test]
    fn settled_prefix_is_voided_by_a_new_element() {
        let mut g = GoalState::new();
        g.needs_init = false;
        g.elems.insert(4);
        for dst in 0..3 {
            g.watchers.insert(Watcher::CopyTo {
                dst: NodeId::from_u32(dst),
            });
            g.cursors.push(1);
        }
        assert_eq!(g.first_unsettled(), 0);
        g.settle();
        assert_eq!(g.first_unsettled(), 3);
        g.watchers.insert(Watcher::CopyTo {
            dst: NodeId::from_u32(9),
        });
        g.cursors.push(0);
        assert_eq!(g.first_unsettled(), 3, "a new watcher is past the prefix");
        g.elems.insert(5);
        assert_eq!(g.first_unsettled(), 0, "a new element voids the prefix");
        g.unsettle();
        assert_eq!(g.first_unsettled(), 0);
    }

    /// The scheduler allocates one state per frame slot (`2 · nodes`), so
    /// the state's size is a memory budget: 240 B while elements and
    /// watchers were each stored twice, 192 B since each fact is stored
    /// once.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn goal_state_stays_within_its_size_budget() {
        assert!(std::mem::size_of::<GoalState>() <= 192);
    }

    #[test]
    fn goal_node_accessor() {
        let n = NodeId::from_u32(9);
        assert_eq!(Goal::Pts(n).node(), n);
        assert_eq!(Goal::Ptb(n).node(), n);
    }
}
