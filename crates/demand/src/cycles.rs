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
//! that triggers a periodic SCC pass ([`CopyGraph::components`],
//! iterative Tarjan from `ddpa_support::scc`) once enough new edges and
//! work have accumulated. The engine routes every goal-index lookup
//! through [`CopyGraph::find`], so merged-away goals transparently
//! resolve to their representative.
//!
//! # What persists between passes, and what a pass costs
//!
//! Passes run often (every `collapse_threshold` events), so the graph is
//! kept canonical between them instead of being rebuilt:
//!
//! - `canon`, the resolved edges as `(representative, representative)`
//!   pairs, sorted and deduplicated, with no self-edges;
//! - `raw`, the recorded edges not in `canon` yet: those recorded since
//!   the last pass, plus older ones whose destination goal was not
//!   activated when a pass last looked;
//! - reusable buffers, and a per-goal mark array that is reset after
//!   every pass.
//!
//! A pass re-maps `canon` through `find`: an edge whose endpoints are
//! still representatives stays in place, and an edge that became a
//! self-edge drops out. It resolves only `raw`, sorts only the new and
//! re-mapped edges, and merges them into `canon`. Tarjan then runs over
//! the edge *sources* (the only nodes that can lie on a cycle), numbered
//! densely in ascending order through the mark array, with `canon`'s
//! sorted rows as CSR adjacency; output vectors are allocated only for
//! non-trivial components. So a pass costs `O(E)` for the re-map and the
//! DFS plus `O(k log k)` for the `k` changed edges, where `E` is the
//! number of distinct canonical edges, with no hashing at all. It
//! returns exactly what a from-scratch pass over every recorded edge
//! would, in the same order (the tests keep that pass as an oracle).
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
use ddpa_support::{scc, UnionFind};

/// Marks a goal that is not a source of the current pass's graph.
const NOT_SOURCE: u32 = u32::MAX;

/// The copy-subscription graph and goal-merging union-find.
#[derive(Debug)]
pub struct CopyGraph {
    enabled: bool,
    threshold: u32,
    uf: UnionFind,
    /// Recorded `pts(src_goal) ⊆ pts(dst_node)` subscriptions not yet in
    /// `canon`: those recorded since the last pass, plus older ones whose
    /// destination goal was not activated yet. Sources are goal indices
    /// (the goal carrying the watcher necessarily exists); destinations
    /// stay symbolic until a pass resolves them.
    raw: Vec<(u32, NodeId)>,
    /// Every resolved edge as `(representative, representative)` pairs
    /// as of the last pass: sorted, deduplicated, no self-edges.
    canon: Vec<(u32, u32)>,
    /// Reused buffers: the pass's new and re-mapped edges, and the merge
    /// target that becomes the next `canon`.
    fresh: Vec<(u32, u32)>,
    merged: Vec<(u32, u32)>,
    /// Per goal: its dense number among the pass's sources, or
    /// [`NOT_SOURCE`]. Reset after every pass.
    mark: Vec<u32>,
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
    /// An empty graph. `threshold` is the number of newly discovered copy
    /// edges that triggers an SCC pass (clamped to at least 1); `enabled`
    /// gates edge recording entirely, so a disabled graph costs one
    /// identity `find` per lookup and nothing else.
    pub fn new(enabled: bool, threshold: u32) -> Self {
        CopyGraph {
            enabled,
            threshold: threshold.max(1),
            uf: UnionFind::new(0),
            raw: Vec::new(),
            canon: Vec::new(),
            fresh: Vec::new(),
            merged: Vec::new(),
            mark: Vec::new(),
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
    /// Resets the pending counter, so the next pass only runs after
    /// another `threshold` edges. Deterministic: the graph is the sorted,
    /// deduplicated set of canonical edges, so component contents and
    /// ordering do not depend on hash-map iteration order or on which
    /// pass an edge was first seen in.
    pub fn components(&mut self, resolve: impl Fn(NodeId) -> Option<u32>) -> Vec<Vec<u32>> {
        self.pending = 0;
        self.ticks = 0;
        self.canonicalize(resolve);
        if self.canon.is_empty() {
            return Vec::new();
        }
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
        // Allocate only for non-trivial components, in component order.
        let mut slot = vec![NOT_SOURCE; r.count as usize];
        let mut comps: Vec<Vec<u32>> = Vec::new();
        for (c, &n) in r.component_sizes().iter().enumerate() {
            if n > 1 {
                slot[c] = comps.len() as u32;
                comps.push(Vec::with_capacity(n as usize));
            }
        }
        if comps.is_empty() {
            return comps;
        }
        for (i, &c) in r.component.iter().enumerate() {
            let at = slot[c as usize];
            if at != NOT_SOURCE {
                comps[at as usize].push(sources[i]);
            }
        }
        comps
    }

    /// Brings `canon` up to date: re-maps the kept edges through `find`
    /// (unchanged ones stay in place, self-edges drop out), resolves the
    /// pending raw edges, then sorts only the new and re-mapped edges
    /// and merges them in.
    fn canonicalize(&mut self, resolve: impl Fn(NodeId) -> Option<u32>) {
        let uf = &mut self.uf;
        let fresh = &mut self.fresh;
        fresh.clear();
        self.canon.retain(|&(a, b)| {
            let (ra, rb) = (uf.find(a), uf.find(b));
            if (ra, rb) == (a, b) {
                return true;
            }
            if ra != rb {
                fresh.push((ra, rb));
            }
            false
        });
        self.raw.retain(|&(s, d)| {
            let Some(di) = resolve(d) else {
                return true;
            };
            let (rs, rd) = (uf.find(s), uf.find(di));
            if rs != rd {
                fresh.push((rs, rd));
            }
            false
        });
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable();
        fresh.dedup();
        let merged = &mut self.merged;
        merged.clear();
        merged.reserve(self.canon.len() + fresh.len());
        let (mut i, mut j) = (0, 0);
        let (old, new) = (&self.canon, &*fresh);
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
    }

    /// Unions every goal in `comp` into one set and returns the
    /// representative index (one of `comp`'s members).
    pub fn union_all(&mut self, comp: &[u32]) -> u32 {
        debug_assert!(!comp.is_empty());
        for w in comp.windows(2) {
            self.uf.union(w[0], w[1]);
        }
        self.uf.find(comp[0])
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
    /// nodes activated only later) and passes: every incremental pass
    /// must return exactly the reference's components, in its order.
    /// Returned components are merged as the engine merges them — most
    /// of the time; the engine skips components holding completed goals.
    #[test]
    fn incremental_pass_matches_from_scratch_reference() {
        let mut rng = Rng::seed_from_u64(0x5cc_d1ff);
        let mut passes = 0usize;
        let mut merges = 0usize;
        for seq in 0..1200 {
            let nodes = rng.gen_range(2..28u32);
            let steps = rng.gen_range(8..160usize);
            let mut g = CopyGraph::new(true, 1);
            let mut goal_of: Vec<Option<u32>> = vec![None; nodes as usize];
            let mut all: Vec<(u32, NodeId)> = Vec::new();
            for _ in 0..steps {
                let roll = rng.gen_range(0..10u32);
                let activated = g.uf.len() as u32;
                if roll < 2 || activated == 0 {
                    let n = rng.gen_range(0..nodes) as usize;
                    if goal_of[n].is_none() {
                        goal_of[n] = Some(g.push());
                    }
                } else if roll < 8 {
                    let src = rng.gen_range(0..activated);
                    let dst = nid(rng.gen_range(0..nodes));
                    g.record_edge(src, dst);
                    all.push((src, dst));
                } else {
                    let resolve = |d: NodeId| goal_of[d.as_u32() as usize];
                    let want = reference_components(&all, &mut g.uf, resolve);
                    let got = g.components(resolve);
                    assert_eq!(got, want, "sequence {seq}, pass {passes}");
                    passes += 1;
                    for comp in &got {
                        if rng.gen_range(0..4u32) != 0 {
                            g.union_all(comp);
                            merges += 1;
                        }
                    }
                }
            }
        }
        assert!(
            passes > 10_000 && merges > 1_000,
            "{passes} passes, {merges} merges"
        );
    }
}
