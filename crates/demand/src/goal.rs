//! Subgoals and rule-instance watchers — the tabled deduction state.
//!
//! A query activates a [`Goal`]; its deduction rules are installed as
//! [`Watcher`]s subscribed to other goals. Each watcher keeps a *cursor*
//! into its source goal's element list, so delivery is incremental,
//! budget-abortable, and resumable: a watcher installed later simply
//! starts its cursor at zero and replays the memoized elements.

use std::collections::HashSet;

use ddpa_support::HybridSet;

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

    /// The canonical goal order of published entries and their deps:
    /// every `Pts` goal by node id, then every `Ptb`.
    pub fn canonical_key(self) -> (u8, u32) {
        match self {
            Goal::Pts(n) => (0, n.as_u32()),
            Goal::Ptb(n) => (1, n.as_u32()),
        }
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

/// The table entry for one goal.
#[derive(Debug)]
pub struct GoalState {
    /// Membership set (query answers read this).
    pub members: HybridSet,
    /// Elements in insertion order — watchers index into this.
    pub elems: Vec<u32>,
    /// Installed rule instances.
    pub watchers: Vec<Watcher>,
    /// `cursors[i]` = how many of `elems` watcher `i` has consumed.
    pub cursors: Vec<u32>,
    /// Deduplicates watcher installation.
    pub registered: HashSet<Watcher>,
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
    /// watcher edges): transitive dirtying follows these edges forward,
    /// from a dirty producer to every consumer.
    pub deps: Vec<Goal>,
    /// The fixpoint scanned the global indirect-callsite list ([PARAM] /
    /// fwd-prop rule (e)), so any edit adding an indirect call dirties it.
    pub reads_indirect: bool,
}

impl GoalState {
    /// A freshly activated, uninitialized goal.
    pub fn new() -> Self {
        GoalState {
            members: HybridSet::new(),
            elems: Vec::new(),
            watchers: Vec::new(),
            cursors: Vec::new(),
            registered: HashSet::new(),
            needs_init: true,
            complete: false,
            on_list: false,
            merged: false,
            aliases: Vec::new(),
            support: HybridSet::new(),
            deps: Vec::new(),
            reads_indirect: false,
        }
    }

    /// A completed fixpoint with no watchers: `elems` is `members` in
    /// ascending order, `deps` in [`Goal::canonical_key`] order.
    pub fn completed(
        members: HybridSet,
        elems: Vec<u32>,
        support: HybridSet,
        deps: Vec<Goal>,
        reads_indirect: bool,
    ) -> Self {
        GoalState {
            members,
            elems,
            support,
            deps,
            reads_indirect,
            needs_init: false,
            complete: true,
            ..GoalState::new()
        }
    }

    /// This completed state as [`GoalState::completed`] would build it:
    /// the fixpoint kept, watchers dropped, `elems` and `deps` sorted.
    pub fn into_completed(mut self) -> Self {
        self.elems.sort_unstable();
        self.deps.sort_by_key(|g| g.canonical_key());
        GoalState::completed(
            self.members,
            self.elems,
            self.support,
            self.deps,
            self.reads_indirect,
        )
    }

    /// A copy of a completed, watcher-free fixpoint.
    pub fn completed_copy(&self) -> Self {
        GoalState::completed(
            self.members.clone(),
            self.elems.clone(),
            self.support.clone(),
            self.deps.clone(),
            self.reads_indirect,
        )
    }

    /// Records a producer goal this state consumed facts from.
    pub fn add_dep(&mut self, producer: Goal) {
        if !self.deps.contains(&producer) {
            self.deps.push(producer);
        }
    }

    /// Adds `value`; returns `true` if new.
    pub fn add(&mut self, value: u32) -> bool {
        if self.members.insert(value) {
            self.elems.push(value);
            true
        } else {
            false
        }
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
    use super::*;

    #[test]
    fn add_deduplicates_and_orders() {
        let mut g = GoalState::new();
        assert!(g.add(5));
        assert!(g.add(3));
        assert!(!g.add(5));
        assert_eq!(g.elems, vec![5, 3]);
        assert_eq!(g.members.len(), 2);
    }

    #[test]
    fn quiescence_tracks_cursors() {
        let mut g = GoalState::new();
        g.needs_init = false;
        assert!(g.quiescent());
        g.add(1);
        g.watchers.push(Watcher::CopyTo {
            dst: NodeId::from_u32(0),
        });
        g.cursors.push(0);
        assert!(!g.quiescent());
        g.cursors[0] = 1;
        assert!(g.quiescent());
    }

    #[test]
    fn goal_node_accessor() {
        let n = NodeId::from_u32(9);
        assert_eq!(Goal::Pts(n).node(), n);
        assert_eq!(Goal::Ptb(n).node(), n);
    }
}
