//! Completed-goal entries: the unit snapshots carry and restores stage.
//!
//! A [`CompletedGoal`] is one memoized fixpoint in canonical, owned form:
//! its member set, the program rows it read (support), the producer goals
//! it consumed facts from (deps) and whether it scanned the indirect-call
//! list. [`DemandEngine::export_completed`](crate::DemandEngine::export_completed)
//! writes one per complete goal of the engine's memo table, and
//! [`DemandEngine::warm_start`](crate::DemandEngine::warm_start) stages
//! them back into a fresh table, where the first activation of each goal
//! moves its entry in as a completed goal.
//!
//! An edit dirties entries by [`dirty_closure`]: the support and dep
//! metadata decide which fixpoints the edit can have changed, so every
//! other entry stays valid for the new program.
//!
//! # Determinism
//!
//! Member, support and dep lists are in canonical order, and a goal's
//! fixpoint under a fixed program is unique, so an exported entry is
//! byte-stable whatever order the engine derived it in.

use std::collections::HashSet;

use ddpa_constraints::ProgramDiff;
use ddpa_support::HybridSet;

use crate::goal::{Goal, GoalIndex, GoalState, ListSet};
use crate::trace::Origin;

/// A completed goal's fixpoint, as exported and restored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompletedGoal {
    /// Member node ids, sorted ascending — the canonical snapshot order.
    pub elems: Vec<u32>,
    /// `(member, first derivation)` pairs; populated only when the
    /// exporting engine ran with tracing on, empty otherwise.
    pub provenance: Vec<(u32, Origin)>,
    /// Support set: node ids whose program rows this fixpoint read,
    /// sorted ascending. An empty support on an entry means
    /// "unknown provenance" and is treated as always-dirty by
    /// [`dirty_closure`].
    pub support: Vec<u32>,
    /// Producer goals this fixpoint consumed facts from, in canonical
    /// order (`Pts` before `Ptb`, then by node id). Transitive dirtying
    /// follows these edges from producer to consumer.
    pub deps: Vec<Goal>,
    /// Whether the fixpoint scanned the global indirect-callsite list.
    pub reads_indirect: bool,
}

impl CompletedGoal {
    /// The untraced entry for the complete goal `state`. Member, support
    /// and dep orders are canonical, so entries are byte-stable whatever
    /// the derivation order; every list is allocated exact-size.
    pub(crate) fn of_state(state: &GoalState) -> Self {
        let mut support = Vec::with_capacity(state.support.len());
        support.extend(state.support.iter());
        let mut deps = state.deps.to_vec();
        deps.sort_unstable_by_key(|g| g.canonical_key());
        CompletedGoal {
            elems: state.sorted_elems(),
            provenance: Vec::new(),
            support,
            deps,
            reads_indirect: state.reads_indirect,
        }
    }

    /// The complete goal state this entry restores; `elems` and `deps`
    /// move rather than copy. Provenance is left to the caller.
    pub(crate) fn into_state(self) -> GoalState {
        GoalState::completed(
            ListSet::from_vec(self.elems),
            self.support.iter().copied().collect(),
            ListSet::from_vec(self.deps),
            self.reads_indirect,
        )
    }
}

/// Computes the transitively dirtied subset of `entries` under `diff`.
///
/// An entry is *seed-dirty* when its support set intersects the edit's
/// changed nodes, when it scanned the indirect-callsite list and that
/// list changed, when its support is empty (unknown provenance — e.g. an
/// entry exported by a pre-support-set engine), or when it depends on a
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
    let mut at = GoalIndex::default();
    let views: Vec<DirtyView<'_>> = entries
        .iter()
        .enumerate()
        .map(|(i, (goal, cg))| {
            at.insert(*goal, i as u32);
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

/// A support set as [`close_dirty`] reads it.
pub(crate) enum SupportRef<'a> {
    /// A [`CompletedGoal`]'s ascending node list.
    Sorted(&'a [u32]),
    /// A tabled goal's set.
    Set(&'a HybridSet),
}

/// One memoized fixpoint as [`close_dirty`] reads it, borrowed from a
/// staged [`CompletedGoal`] or from an engine's tabled goal state.
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
    at: &GoalIndex,
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
            match at.get(p).map(|pi| pi as usize) {
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
            if let Some(pi) = at.get(p).map(|pi| pi as usize).filter(|&pi| pi != i) {
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
}
