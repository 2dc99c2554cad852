//! Online cycle detection over the goal-level copy graph.
//!
//! Heintze & Tardieu collapse the nodes of a discovered copy cycle so the
//! cycle's points-to set is deduced once instead of once per member. The
//! demand engine reproduces that optimization at the *goal* level: every
//! [`crate::goal::Watcher::CopyTo`] subscription installed on a `Pts` goal
//! is an edge `pts(src) ⊆ pts(dst)` of the copy graph, and a strongly
//! connected component of that graph is a family of goals whose sets are
//! provably equal at fixpoint — so the engine may merge their
//! [`crate::goal::GoalState`]s into one representative.
//!
//! [`CopyGraph`] owns the bookkeeping: a [`UnionFind`] over the engine's
//! dense goal indices (kept in lockstep with the goal table via
//! [`CopyGraph::push`]), the discovered copy edges, and a pending counter
//! that triggers a periodic SCC pass ([`CopyGraph::components`]) once
//! enough new edges and work have accumulated. The engine routes every
//! goal-index lookup through [`CopyGraph::find`], so merged-away goals
//! transparently resolve to their representative.
//!
//! # What a pass costs
//!
//! Passes run often (every `collapse_threshold` events) and almost never
//! find a cycle, so a pass first asks whether one *can* exist:
//!
//! - Edges are monotonic and contracting a component closes no new
//!   cycle, so a new non-trivial component must contain an edge resolved
//!   since the last pass.
//! - The graph keeps a dynamic topological order over representatives
//!   (Pearce & Kelly, *Online Cycle Detection and Difference Propagation
//!   for Pointer Analysis*, SCAM 2003). A new edge `u → v` with
//!   `ord(u) < ord(v)` cannot close a cycle and is only linked in. An edge
//!   that breaks the order searches forward from `v` and backward from `u`
//!   within the window `ord(v)..=ord(u)`; reaching `u` is a cycle,
//!   otherwise the two visited sets swap places inside the window.
//! - Goals activated since the last pass take positions before every
//!   other: demand activates a copy's destination before its source, so
//!   most new edges already respect the order.
//! - A component the engine returned but left unmerged (it holds a
//!   completed goal) is one block of the order: its members share one
//!   position. Any later component through it also holds that goal.
//!
//! A pass whose new edges close no cycle returns nothing, and costs
//! `O(k)` for its `k` new edges and the goals activated since, plus the
//! searched windows of the edges that broke the order. A pass that finds a cycle runs the full pass below
//! unchanged, so it returns exactly what a from-scratch pass over every
//! recorded edge would, in the same order (the tests keep that pass as an
//! oracle). A pass that skips leaves out only components returned
//! earlier and never merged, which the engine would skip again.
//!
//! The full pass keeps the graph canonical instead of rebuilding it:
//! `canon` holds the resolved edges as `(representative, representative)`
//! pairs, sorted and deduplicated, with no self-edges; the pass sorts the
//! edges resolved since and merges them in. Tarjan then runs over the
//! edge *sources* (the only nodes that can lie on a cycle), numbered
//! densely in ascending order through a mark array, with `canon`'s sorted
//! rows as CSR adjacency; its component numbering, a reverse topological
//! order, re-seeds the order. That costs `O(E + k log k)` with no hashing,
//! where `E` is the number of distinct canonical edges. The union-find
//! changes only when the engine merges a returned component, and only
//! then does the next pass re-map `canon` through `find` and relink the
//! order's adjacency, in `O(E)`.
//!
//! Edges are monotonic — a `CopyTo` subscription is never retracted while
//! the memo table lives — which is what makes merging sound: once a cycle
//! exists in the discovered subgraph it exists in the program, and every
//! member's final set equals the representative's. [`CopyGraph`] stores
//! edge *destinations* as [`NodeId`]s rather than goal indices because the
//! destination goal may not be activated yet when the subscription is
//! installed; resolution to an index happens lazily in
//! [`CopyGraph::components`], and an edge whose destination is not yet
//! activated cannot close a cycle yet (an unactivated goal has no
//! outgoing subscriptions), so it waits in `raw` for a later pass.

use ddpa_constraints::NodeId;
use ddpa_support::scc::{self, SccResult};
use ddpa_support::UnionFind;

/// Marks a goal that is not a source of the current pass's graph.
const NOT_SOURCE: u32 = u32::MAX;

/// Ends an adjacency list of [`Order`].
const NIL: u32 = u32::MAX;

/// Where [`Order`] re-seeds its positions: goals activated since count
/// down from below it, the re-seeded ones count up from it.
const SEED: u32 = 1 << 31;

/// The copy-subscription graph and goal-merging union-find.
#[derive(Debug)]
pub struct CopyGraph {
    enabled: bool,
    threshold: u32,
    uf: UnionFind,
    /// Recorded `pts(src_goal) ⊆ pts(dst_node)` subscriptions not resolved
    /// yet: those recorded since the last pass, plus older ones whose
    /// destination goal was not activated yet. Sources are goal indices
    /// (the goal carrying the watcher necessarily exists); destinations
    /// stay symbolic until a pass resolves them.
    raw: Vec<(u32, NodeId)>,
    /// Resolved edges as `(representative, representative)` pairs as of
    /// the last full pass: sorted, deduplicated, no self-edges.
    canon: Vec<(u32, u32)>,
    /// Edges resolved since `canon` was last brought up to date, in
    /// resolution order (repeats allowed), plus the merge target that
    /// becomes the next `canon`.
    added: Vec<(u32, u32)>,
    merged: Vec<(u32, u32)>,
    /// Set by [`CopyGraph::union_all`]: `canon` and the order's adjacency
    /// name merged-away goals until the next pass re-maps them.
    remap: bool,
    order: Order,
    /// Per goal: its dense number among the full pass's sources, or
    /// [`NOT_SOURCE`]. Reset after every full pass.
    mark: Vec<u32>,
    /// Passes that ran Tarjan.
    #[cfg(test)]
    full_passes: usize,
    /// Number of copy edges recorded so far.
    recorded: usize,
    /// Edges recorded since the last SCC pass.
    pending: u32,
    /// Engine work units ([`CopyGraph::tick`]) since the last SCC pass.
    /// A cycle's closing edge typically arrives at the *end* of the
    /// activation cascade, with most propagation still ahead — counting
    /// work keeps a pass coming even when no further edges appear.
    ticks: u32,
}

impl CopyGraph {
    /// An empty graph. A pass is due once at least one new copy edge was
    /// recorded and the new edges plus the work ticks since the last pass
    /// reach `threshold` (clamped to at least 1); `enabled` gates edge
    /// recording entirely, so a disabled graph costs one identity `find`
    /// per lookup and nothing else.
    pub fn new(enabled: bool, threshold: u32) -> Self {
        CopyGraph {
            enabled,
            threshold: threshold.max(1),
            uf: UnionFind::new(0),
            raw: Vec::new(),
            canon: Vec::new(),
            added: Vec::new(),
            merged: Vec::new(),
            remap: false,
            order: Order::default(),
            mark: Vec::new(),
            #[cfg(test)]
            full_passes: 0,
            recorded: 0,
            pending: 0,
            ticks: 0,
        }
    }

    /// Whether edge recording (and thus collapsing) is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Registers a fresh goal slot; must be called exactly once per goal
    /// activation so the union-find stays aligned with the goal table.
    pub fn push(&mut self) -> u32 {
        self.uf.push()
    }

    /// The representative goal index for `gi` (path-compressing).
    pub fn find(&mut self, gi: u32) -> u32 {
        self.uf.find(gi)
    }

    /// The representative goal index for `gi` without mutation (for
    /// `&self` entry points like explanation lookup).
    pub fn find_readonly(&self, gi: u32) -> u32 {
        self.uf.find_readonly(gi)
    }

    /// Records the copy edge `pts(goal src) ⊆ pts(node dst)`.
    pub fn record_edge(&mut self, src: u32, dst: NodeId) {
        if !self.enabled {
            return;
        }
        self.raw.push((src, dst));
        self.recorded += 1;
        self.pending += 1;
    }

    /// Number of copy edges discovered so far.
    pub fn edge_count(&self) -> usize {
        self.recorded
    }

    /// Records `n` units of engine work (rule firings) toward the next
    /// SCC pass.
    pub fn tick(&mut self, n: u64) {
        if self.enabled {
            let n = u32::try_from(n).unwrap_or(u32::MAX);
            self.ticks = self.ticks.saturating_add(n);
        }
    }

    /// `true` once at least one new edge exists and enough events (new
    /// edges + work ticks) accumulated to warrant an SCC pass.
    pub fn due(&self) -> bool {
        self.enabled
            && self.pending >= 1
            && self.pending.saturating_add(self.ticks) >= self.threshold
    }

    /// Runs SCC detection over the discovered copy graph and returns the
    /// non-trivial components, each as a sorted list of *current
    /// representative* goal indices. `resolve` maps an edge's destination
    /// node to its goal index, or `None` if `Pts(dst)` was never
    /// activated (such edges cannot participate in a cycle yet; they are
    /// retried on the next pass).
    ///
    /// When no newly resolved edge closes a cycle, returns nothing; the
    /// components it leaves out were all returned by an earlier pass and
    /// not merged since. Otherwise returns every non-trivial component.
    ///
    /// Resets the pending counter, so the next pass only runs after
    /// another `threshold` edges. Deterministic: the graph is the sorted,
    /// deduplicated set of canonical edges, so component contents and
    /// ordering do not depend on hash-map iteration order or on which
    /// pass an edge was first seen in.
    pub fn components(&mut self, resolve: impl Fn(NodeId) -> Option<u32>) -> Vec<Vec<u32>> {
        self.pending = 0;
        self.ticks = 0;
        self.order.grow(self.uf.len());
        if self.remap {
            self.remap_canon();
        }
        let (uf, order, added) = (&mut self.uf, &mut self.order, &mut self.added);
        let mut cycle = false;
        self.raw.retain(|&(s, d)| {
            let Some(di) = resolve(d) else {
                return true;
            };
            let (rs, rd) = (uf.find(s), uf.find(di));
            if rs != rd {
                added.push((rs, rd));
                if cycle {
                    order.link(rs, rd);
                } else {
                    cycle = order.insert(rs, rd);
                }
            }
            false
        });
        if !cycle {
            return Vec::new();
        }
        #[cfg(test)]
        {
            self.full_passes += 1;
        }
        self.fold_added();
        // Only edge sources can lie on a cycle, and they come sorted and
        // grouped: number them densely in ascending order, so the CSR
        // rows of `canon` are the adjacency lists. Edges into non-sources
        // are skipped; such a sink would be a singleton component that
        // changes neither the DFS order nor any other component.
        let canon = &self.canon;
        let mark = &mut self.mark;
        mark.resize(self.uf.len(), NOT_SOURCE);
        let mut sources: Vec<u32> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        for (i, &(a, _)) in canon.iter().enumerate() {
            if sources.last() != Some(&a) {
                mark[a as usize] = sources.len() as u32;
                sources.push(a);
                offsets.push(i as u32);
            }
        }
        offsets.push(canon.len() as u32);
        let r = scc::tarjan(sources.len(), |v, out| {
            let row = &canon[offsets[v as usize] as usize..offsets[v as usize + 1] as usize];
            out.extend(
                row.iter()
                    .map(|&(_, b)| mark[b as usize])
                    .filter(|&c| c != NOT_SOURCE),
            );
        });
        for &a in &sources {
            mark[a as usize] = NOT_SOURCE;
        }
        self.order.reseed(&sources, &r);
        // Allocate only for non-trivial components, in component order.
        let mut slot = vec![NOT_SOURCE; r.count as usize];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for (c, &n) in r.component_sizes().iter().enumerate() {
            if n > 1 {
                slot[c] = comps.len() as u32;
                comps.push(Vec::with_capacity(n as usize));
            }
        }
        for (i, &c) in r.component.iter().enumerate() {
            let at = slot[c as usize];
            if at != NOT_SOURCE {
                comps[at as usize].push(sources[i]);
            }
        }
        comps
    }

    /// Re-maps `canon` and `added` through `find` after merges (unchanged
    /// edges stay in place, self-edges drop out), folds the re-mapped
    /// edges in, and relinks the order's adjacency from the result.
    fn remap_canon(&mut self) {
        self.remap = false;
        let uf = &mut self.uf;
        let added = &mut self.added;
        added.retain_mut(|(a, b)| {
            (*a, *b) = (uf.find(*a), uf.find(*b));
            a != b
        });
        self.canon.retain(|&(a, b)| {
            let (ra, rb) = (uf.find(a), uf.find(b));
            if (ra, rb) == (a, b) {
                return true;
            }
            if ra != rb {
                added.push((ra, rb));
            }
            false
        });
        self.fold_added();
        self.order.relink(&self.canon);
    }

    /// Sorts the edges resolved since the last fold and merges them into
    /// `canon`.
    fn fold_added(&mut self) {
        let added = &mut self.added;
        if added.is_empty() {
            return;
        }
        added.sort_unstable();
        added.dedup();
        let merged = &mut self.merged;
        merged.clear();
        merged.reserve(self.canon.len() + added.len());
        let (mut i, mut j) = (0, 0);
        let (old, new) = (&self.canon, &*added);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(new[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(old[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&new[j..]);
        std::mem::swap(&mut self.canon, merged);
        added.clear();
    }

    /// Unions every goal in `comp` into one set and returns the
    /// representative index (one of `comp`'s members). `comp` must be a
    /// component returned by the last [`CopyGraph::components`] call: its
    /// members share one position in the order, which the representative
    /// keeps.
    pub fn union_all(&mut self, comp: &[u32]) -> u32 {
        debug_assert!(!comp.is_empty());
        for w in comp.windows(2) {
            self.uf.union(w[0], w[1]);
        }
        self.remap = true;
        self.uf.find(comp[0])
    }
}

/// One edge of [`Order`]'s adjacency, threaded on its source's
/// out-list and its destination's in-list.
#[derive(Clone, Copy, Debug)]
struct Link {
    src: u32,
    dst: u32,
    next_out: u32,
    next_in: u32,
}

/// A dynamic topological order over the copy graph's representatives
/// (Pearce & Kelly), with the adjacency its searches walk. An edge
/// `a → b` has `ord[a] <= ord[b]`, with equality only inside an unmerged
/// component; positions need not be contiguous.
#[derive(Debug)]
struct Order {
    /// Per goal: its position.
    ord: Vec<u32>,
    /// The position the next goal added takes: before every other.
    /// Demand activates a copy's destination before its source, so a
    /// discovered edge usually runs from a newer goal to an older one.
    next: u32,
    /// Per goal: the first link of its out-list and of its in-list.
    out_head: Vec<u32>,
    in_head: Vec<u32>,
    links: Vec<Link>,
    /// Search state, cleared after every search: per-goal visit marks,
    /// the DFS stack, the forward and backward visited sets, and the
    /// positions they hand round.
    seen: Vec<bool>,
    stack: Vec<u32>,
    forward: Vec<u32>,
    backward: Vec<u32>,
    pool: Vec<u32>,
}

impl Default for Order {
    fn default() -> Self {
        Order {
            ord: Vec::new(),
            next: SEED - 1,
            out_head: Vec::new(),
            in_head: Vec::new(),
            links: Vec::new(),
            seen: Vec::new(),
            stack: Vec::new(),
            forward: Vec::new(),
            backward: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl Order {
    /// Adds the goals activated since the last pass, each before every
    /// other, in activation order.
    fn grow(&mut self, goals: usize) {
        for _ in self.ord.len()..goals {
            self.ord.push(self.next);
            self.next -= 1;
        }
        self.out_head.resize(goals, NIL);
        self.in_head.resize(goals, NIL);
        self.seen.resize(goals, false);
    }

    /// Adds `a → b` to the adjacency without touching the order.
    fn link(&mut self, a: u32, b: u32) {
        let at = self.links.len() as u32;
        self.links.push(Link {
            src: a,
            dst: b,
            next_out: self.out_head[a as usize],
            next_in: self.in_head[b as usize],
        });
        self.out_head[a as usize] = at;
        self.in_head[b as usize] = at;
    }

    /// Adds `a → b`, reordering when the edge breaks the order. Returns
    /// `true` when it closes a cycle, leaving the order as it was.
    fn insert(&mut self, a: u32, b: u32) -> bool {
        let (ub, lb) = (self.ord[a as usize], self.ord[b as usize]);
        let cycle = lb < ub && self.reorder(a, b, lb, ub);
        self.link(a, b);
        cycle
    }

    /// Pearce–Kelly's search-and-reorder for the edge `a → b` with
    /// `ord[b] = lb < ub = ord[a]`: the goals `b` reaches inside the
    /// window and the goals that reach `a` inside it take the window's
    /// positions, the latter first. Returns `true`, reordering nothing,
    /// when `b` reaches `a`'s block.
    fn reorder(&mut self, a: u32, b: u32, lb: u32, ub: u32) -> bool {
        if self.search_forward(b, ub) {
            self.clear_search();
            return true;
        }
        self.search_backward(a, lb);
        let ord = &mut self.ord;
        self.backward.sort_unstable_by_key(|&g| ord[g as usize]);
        self.forward.sort_unstable_by_key(|&g| ord[g as usize]);
        let pool = &mut self.pool;
        for &g in self.backward.iter().chain(&self.forward) {
            if pool.last() != Some(&ord[g as usize]) {
                pool.push(ord[g as usize]);
            }
        }
        pool.sort_unstable();
        // Blocks (goals sharing a position) stay together: the next
        // position is drawn only when the old one changes.
        let mut at = 0;
        for side in [&self.backward, &self.forward] {
            let mut prev = ord[side[0] as usize];
            for &g in side {
                if ord[g as usize] != prev {
                    prev = ord[g as usize];
                    at += 1;
                }
                ord[g as usize] = pool[at];
            }
            at += 1;
        }
        self.clear_search();
        false
    }

    /// Visits the goals `b` reaches through goals positioned before `ub`
    /// into `forward`; returns `true` as soon as it reaches a goal at
    /// `ub`. Every edge respects the order, so the search never leaves
    /// the window.
    fn search_forward(&mut self, b: u32, ub: u32) -> bool {
        self.seen[b as usize] = true;
        self.forward.push(b);
        self.stack.push(b);
        while let Some(g) = self.stack.pop() {
            let mut e = self.out_head[g as usize];
            while e != NIL {
                let link = self.links[e as usize];
                e = link.next_out;
                let (d, o) = (link.dst as usize, self.ord[link.dst as usize]);
                if o == ub {
                    self.stack.clear();
                    return true;
                }
                if o < ub && !self.seen[d] {
                    self.seen[d] = true;
                    self.forward.push(link.dst);
                    self.stack.push(link.dst);
                }
            }
        }
        false
    }

    /// Visits the goals that reach `a` through goals positioned after
    /// `lb` into `backward`. None sits at `lb`: that goal would share
    /// `b`'s block, and `b` does not reach `a`.
    fn search_backward(&mut self, a: u32, lb: u32) {
        self.seen[a as usize] = true;
        self.backward.push(a);
        self.stack.push(a);
        while let Some(g) = self.stack.pop() {
            let mut e = self.in_head[g as usize];
            while e != NIL {
                let link = self.links[e as usize];
                e = link.next_in;
                let s = link.src as usize;
                if self.ord[s] > lb && !self.seen[s] {
                    self.seen[s] = true;
                    self.backward.push(link.src);
                    self.stack.push(link.src);
                }
            }
        }
    }

    fn clear_search(&mut self) {
        for &g in self.forward.iter().chain(&self.backward) {
            self.seen[g as usize] = false;
        }
        self.forward.clear();
        self.backward.clear();
        self.pool.clear();
    }

    /// Rebuilds the adjacency from `canon`, after merges renamed goals.
    fn relink(&mut self, canon: &[(u32, u32)]) {
        self.out_head.fill(NIL);
        self.in_head.fill(NIL);
        self.links.clear();
        for &(a, b) in canon {
            self.link(a, b);
        }
    }

    /// Re-seeds the order from a full pass's Tarjan numbering, a reverse
    /// topological order of `sources`: each component takes one
    /// position, and every other goal follows them all.
    fn reseed(&mut self, sources: &[u32], r: &SccResult) {
        let count = r.count;
        for (g, o) in self.ord.iter_mut().enumerate() {
            *o = SEED + count + g as u32;
        }
        for (&g, &c) in sources.iter().zip(&r.component) {
            self.ord[g as usize] = SEED + count - 1 - c;
        }
        self.next = SEED - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_support::Rng;

    fn nid(n: u32) -> NodeId {
        NodeId::from_u32(n)
    }

    #[test]
    fn disabled_graph_records_nothing() {
        let mut g = CopyGraph::new(false, 1);
        g.push();
        g.push();
        g.record_edge(0, nid(1));
        assert_eq!(g.edge_count(), 0);
        assert!(!g.due());
        assert_eq!(g.find(1), 1);
    }

    #[test]
    fn due_after_threshold_edges() {
        let mut g = CopyGraph::new(true, 2);
        for _ in 0..3 {
            g.push();
        }
        g.record_edge(0, nid(1));
        assert!(!g.due());
        g.record_edge(1, nid(2));
        assert!(g.due());
        // Running the pass resets the pending counter.
        let comps = g.components(|d| Some(d.as_u32()));
        assert!(comps.is_empty(), "a path is not a cycle");
        assert!(!g.due());
    }

    #[test]
    fn detects_and_merges_a_ring() {
        let mut g = CopyGraph::new(true, 1);
        for _ in 0..4 {
            g.push();
        }
        // 0 -> 1 -> 2 -> 0, plus a tail 2 -> 3.
        g.record_edge(0, nid(1));
        g.record_edge(1, nid(2));
        g.record_edge(2, nid(0));
        g.record_edge(2, nid(3));
        let comps = g.components(|d| Some(d.as_u32()));
        assert_eq!(comps, vec![vec![0, 1, 2]]);
        let rep = g.union_all(&comps[0]);
        assert_eq!(g.find(0), rep);
        assert_eq!(g.find(1), rep);
        assert_eq!(g.find(2), rep);
        assert_ne!(g.find(3), rep);
        // A later pass sees only canonical self-edges: no components.
        assert!(g.components(|d| Some(d.as_u32())).is_empty());
    }

    #[test]
    fn unresolved_destinations_cannot_close_cycles() {
        let mut g = CopyGraph::new(true, 1);
        g.push();
        g.push();
        g.record_edge(0, nid(1));
        g.record_edge(1, nid(0));
        // Node 1's goal "does not exist": the back edge is ignored.
        let comps = g.components(|d| if d.as_u32() == 0 { Some(0) } else { None });
        assert!(comps.is_empty());
    }

    #[test]
    fn merges_nested_components_across_passes() {
        let mut g = CopyGraph::new(true, 1);
        for _ in 0..4 {
            g.push();
        }
        g.record_edge(0, nid(1));
        g.record_edge(1, nid(0));
        let first = g.components(|d| Some(d.as_u32()));
        assert_eq!(first.len(), 1);
        let rep01 = g.union_all(&first[0]);
        // A second ring through the merged pair: 2 -> 3 -> 0, 1 -> 2.
        g.record_edge(2, nid(3));
        g.record_edge(3, nid(0));
        g.record_edge(1, nid(2));
        let second = g.components(|d| Some(d.as_u32()));
        assert_eq!(second.len(), 1);
        let mut members = second[0].clone();
        members.sort_unstable();
        assert_eq!(members, vec![rep01, 2, 3]);
        let rep = g.union_all(&second[0]);
        for i in 0..4 {
            assert_eq!(g.find(i), rep);
        }
    }

    /// The from-scratch pass the incremental one replaced: canonicalize
    /// every recorded edge, sort, compact the endpoints with
    /// `binary_search`, and run Tarjan over `Vec<Vec<u32>>` adjacency.
    fn reference_components(
        edges: &[(u32, NodeId)],
        uf: &mut UnionFind,
        resolve: impl Fn(NodeId) -> Option<u32>,
    ) -> Vec<Vec<u32>> {
        let mut canon: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(s, d) in edges {
            let Some(di) = resolve(d) else { continue };
            let rs = uf.find(s);
            let rd = uf.find(di);
            if rs != rd {
                canon.push((rs, rd));
            }
        }
        canon.sort_unstable();
        canon.dedup();
        if canon.is_empty() {
            return Vec::new();
        }
        let mut nodes: Vec<u32> = canon.iter().flat_map(|&(a, b)| [a, b]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for &(a, b) in &canon {
            let ca = nodes.binary_search(&a).expect("source was collected") as u32;
            let cb = nodes.binary_search(&b).expect("dest was collected") as u32;
            adj[ca as usize].push(cb);
        }
        let r = scc::tarjan(nodes.len(), |v, out| out.extend(&adj[v as usize]));
        let mut comps: Vec<Vec<u32>> = vec![Vec::new(); r.count as usize];
        for (i, &c) in r.component.iter().enumerate() {
            comps[c as usize].push(nodes[i]);
        }
        comps.retain(|c| c.len() > 1);
        comps
    }

    /// Seeded sequences of goal activations, edge records (some into
    /// nodes activated only later), freezes, clears and passes, checked
    /// against the from-scratch reference. Returned components are merged
    /// as the engine merges them: unless they hold a frozen goal, which
    /// stands in for a completed one and, like it, stays frozen until the
    /// table is cleared. Every pass must merge exactly what the
    /// reference's pass would, in its order, and may leave out only
    /// components returned earlier and never merged.
    #[test]
    fn incremental_pass_matches_from_scratch_reference() {
        let mut rng = Rng::seed_from_u64(0x5cc_d1ff);
        let (mut passes, mut full, mut merges, mut clears) = (0usize, 0usize, 0usize, 0usize);
        for seq in 0..1200 {
            let nodes = rng.gen_range(2..28u32);
            let steps = rng.gen_range(8..160usize);
            let mut g = CopyGraph::new(true, 1);
            let mut goal_of: Vec<Option<u32>> = vec![None; nodes as usize];
            let mut all: Vec<(u32, NodeId)> = Vec::new();
            let mut frozen: Vec<bool> = Vec::new();
            let mut left: Vec<Vec<u32>> = Vec::new();
            for _ in 0..steps {
                let roll = rng.gen_range(0..128u32);
                let activated = g.uf.len() as u32;
                if roll < 26 || activated == 0 {
                    let n = rng.gen_range(0..nodes) as usize;
                    if goal_of[n].is_none() {
                        goal_of[n] = Some(g.push());
                        frozen.push(false);
                    }
                } else if roll < 102 {
                    let src = rng.gen_range(0..activated);
                    let dst = nid(rng.gen_range(0..nodes));
                    g.record_edge(src, dst);
                    all.push((src, dst));
                } else if roll < 123 {
                    let resolve = |d: NodeId| goal_of[d.as_u32() as usize];
                    let want = reference_components(&all, &mut g.uf, resolve);
                    let got = g.components(resolve);
                    let mut rest = got.iter().peekable();
                    for comp in &want {
                        if rest.peek() == Some(&comp) {
                            rest.next();
                        } else {
                            assert!(
                                left.contains(comp),
                                "sequence {seq}, pass {passes}: left out {comp:?}, got {got:?}"
                            );
                        }
                    }
                    assert!(
                        rest.next().is_none(),
                        "sequence {seq}, pass {passes}: got {got:?}, want {want:?}"
                    );
                    let thawed = |cs: &[Vec<u32>]| -> Vec<Vec<u32>> {
                        cs.iter()
                            .filter(|c| c.iter().all(|&m| !frozen[m as usize]))
                            .cloned()
                            .collect()
                    };
                    assert_eq!(thawed(&got), thawed(&want), "sequence {seq}, pass {passes}");
                    passes += 1;
                    for comp in got {
                        if comp.iter().any(|&m| frozen[m as usize]) {
                            if !left.contains(&comp) {
                                left.push(comp);
                            }
                        } else {
                            g.union_all(&comp);
                            merges += 1;
                        }
                    }
                } else if roll < 126 {
                    let gi = g.find(rng.gen_range(0..activated));
                    frozen[gi as usize] = true;
                } else {
                    full += g.full_passes;
                    clears += 1;
                    g = CopyGraph::new(true, 1);
                    goal_of.fill(None);
                    all.clear();
                    frozen.clear();
                    left.clear();
                }
            }
            full += g.full_passes;
        }
        assert!(
            passes > 10_000 && merges > 1_000 && clears > 1_000,
            "{passes} passes, {merges} merges, {clears} clears"
        );
        // Both paths run: most passes skip Tarjan, and every merge
        // needs a full pass.
        assert!(
            full >= merges / 4 && full < passes / 2,
            "{full} of {passes} passes ran Tarjan"
        );
    }

    #[test]
    fn order_respecting_edges_skip_tarjan() {
        let mut g = CopyGraph::new(true, 1);
        for _ in 0..4 {
            g.push();
        }
        // Goals are ordered newest first, as demand discovers copies: a
        // chain from newer goals into older ones needs no search.
        for (s, d) in [(1, 0), (2, 1), (3, 0), (3, 2)] {
            g.record_edge(s, nid(d));
            assert!(g.components(|d| Some(d.as_u32())).is_empty());
        }
        assert_eq!(g.full_passes, 0);
        g.record_edge(0, nid(3));
        assert_eq!(g.components(|d| Some(d.as_u32())), vec![vec![0, 1, 2, 3]]);
        assert_eq!(g.full_passes, 1);
    }

    #[test]
    fn order_breaking_edge_without_cycle_reorders() {
        let mut g = CopyGraph::new(true, 1);
        for _ in 0..5 {
            g.push();
        }
        // 1 → 3 breaks the order and closes nothing: the window is
        // reordered so 1 and its predecessor 2 precede 3.
        g.record_edge(2, nid(1));
        g.record_edge(1, nid(3));
        assert!(g.components(|d| Some(d.as_u32())).is_empty());
        assert_eq!(g.full_passes, 0);
        let ord = |g: &CopyGraph, n: usize| g.order.ord[n];
        assert!(ord(&g, 2) < ord(&g, 1) && ord(&g, 1) < ord(&g, 3));
        g.record_edge(4, nid(2));
        assert!(g.components(|d| Some(d.as_u32())).is_empty());
        assert_eq!(g.full_passes, 0);
        // 3 → 4 closes 4 → 2 → 1 → 3 → 4.
        g.record_edge(3, nid(4));
        assert_eq!(g.components(|d| Some(d.as_u32())), vec![vec![1, 2, 3, 4]]);
        assert_eq!(g.full_passes, 1);
    }

    #[test]
    fn unmerged_component_is_one_block() {
        let mut g = CopyGraph::new(true, 1);
        for _ in 0..4 {
            g.push();
        }
        g.record_edge(1, nid(2));
        g.record_edge(2, nid(1));
        assert_eq!(g.components(|d| Some(d.as_u32())), vec![vec![1, 2]]);
        // Left unmerged, as the engine leaves a completed family. Edges
        // into and out of the block close nothing new: no Tarjan pass,
        // and the block is not returned again.
        g.record_edge(3, nid(1));
        g.record_edge(2, nid(0));
        assert!(g.components(|d| Some(d.as_u32())).is_empty());
        assert_eq!(g.full_passes, 1);
        // 0 → 3 closes a larger cycle through the block.
        g.record_edge(0, nid(3));
        assert_eq!(g.components(|d| Some(d.as_u32())), vec![vec![0, 1, 2, 3]]);
        assert_eq!(g.full_passes, 2);
    }
}
