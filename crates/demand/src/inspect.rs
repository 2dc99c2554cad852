//! Goal-graph introspection and critical-path analysis.
//!
//! The engine attributes work and rule firings to the goal being
//! processed ([`crate::engine::GoalCost`]); this module turns that
//! attribution plus the live watcher lists into three post-hoc views:
//!
//! * **Goal profiles** ([`DemandEngine::goal_profiles`] /
//!   [`DemandEngine::hottest_goals`]) — per-goal work/fires, the "top"
//!   view of where a query's budget went;
//! * **The goal dependency graph** ([`DemandEngine::goal_graph`]) —
//!   one node per live (non-merged) goal, one edge per watcher from the
//!   *producer* goal it is installed on to the *consumer* goal it
//!   delivers into ([`Watcher::consumer`]), exportable as Graphviz DOT
//!   or JSON;
//! * **The critical path** ([`DemandEngine::critical_path`]) — total
//!   work `W`, span `S` (the heaviest dependency chain, computed over
//!   the SCC condensation of the goal graph since `pts`/`ptb` recursion
//!   makes it cyclic), and the parallelism-headroom bound `W/S`: no
//!   scheduler can beat `W/S`-fold speedup on this workload, which is
//!   exactly the number ROADMAP item 1 needs before building one.
//!
//! Everything here reads engine state without mutating it, so
//! introspection never perturbs deduction.

use std::collections::HashMap;
use std::fmt::Write as _;

use ddpa_constraints::ConstraintProgram;
use ddpa_obs::JsonValue;
use ddpa_support::scc::tarjan;

use crate::engine::DemandEngine;
use crate::goal::{Goal, Watcher};

/// `pts(name)` / `ptb(name)` for human-facing output.
pub fn display_goal(cp: &ConstraintProgram, goal: Goal) -> String {
    match goal {
        Goal::Pts(n) => format!("pts({})", cp.display_node(n)),
        Goal::Ptb(n) => format!("ptb({})", cp.display_node(n)),
    }
}

/// Escapes a label for the dot format.
fn esc(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Work/fires attribution for one live goal.
#[derive(Clone, Copy, Debug)]
pub struct GoalProfile {
    /// The goal's canonical key.
    pub goal: Goal,
    /// Work ticks charged while processing this goal (cycle members fold
    /// into their representative).
    pub work: u64,
    /// Rule firings delivered while processing this goal.
    pub fires: u64,
    /// Whether the goal reached its final fixpoint.
    pub complete: bool,
    /// Elements in the goal's member set.
    pub elems: usize,
    /// Installed watchers (outgoing dependency edges).
    pub watchers: usize,
}

/// One node of the exported goal graph.
#[derive(Clone, Copy, Debug)]
pub struct GoalGraphNode {
    /// The goal's canonical key.
    pub goal: Goal,
    /// Attributed work ticks.
    pub work: u64,
    /// Attributed rule firings.
    pub fires: u64,
    /// Whether the goal is at its final fixpoint.
    pub complete: bool,
}

/// One dependency edge: `nodes[from]` produces elements that
/// `nodes[to]`'s watcher consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GoalEdge {
    /// Producer index into [`GoalGraph::nodes`].
    pub from: usize,
    /// Consumer index into [`GoalGraph::nodes`].
    pub to: usize,
    /// The watcher kind realizing the edge ([`Watcher::kind_name`]).
    pub kind: &'static str,
}

/// The goal dependency graph: who feeds whom, weighted by attribution.
///
/// Self-loops (a goal subscribed to itself, e.g. the `FwdProp`
/// self-subscription every `ptb` goal carries) are omitted — they are
/// vacuous for scheduling and clutter the render.
#[derive(Clone, Debug, Default)]
pub struct GoalGraph {
    /// Live (non-merged) goals.
    pub nodes: Vec<GoalGraphNode>,
    /// Deduplicated dependency edges between distinct nodes.
    pub edges: Vec<GoalEdge>,
}

impl GoalGraph {
    /// Renders the graph as a Graphviz digraph (same idioms as
    /// `ddpa_constraints::to_dot`): ellipses for `pts` goals, boxes for
    /// `ptb` goals, completed goals filled, labels carrying the work
    /// attribution.
    pub fn to_dot(&self, cp: &ConstraintProgram) -> String {
        let mut out = String::from("digraph goals {\n  rankdir=LR;\n  node [fontsize=10];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = match n.goal {
                Goal::Pts(_) => "shape=ellipse",
                Goal::Ptb(_) => "shape=box",
            };
            let fill = if n.complete {
                ", style=filled, fillcolor=honeydew"
            } else {
                ", style=dashed"
            };
            let _ = writeln!(
                out,
                "  g{} [label=\"{}\\nw={} f={}\", {}{}];",
                i,
                esc(&display_goal(cp, n.goal)),
                n.work,
                n.fires,
                shape,
                fill
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  g{} -> g{} [label=\"{}\", fontsize=8];",
                e.from, e.to, e.kind
            );
        }
        out.push_str("}\n");
        out
    }

    /// The graph as a JSON object: `{"nodes":[...],"edges":[...]}` with
    /// goal names resolved against `cp`.
    pub fn to_json(&self, cp: &ConstraintProgram) -> JsonValue {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                JsonValue::Object(vec![
                    ("goal".to_owned(), JsonValue::str(display_goal(cp, n.goal))),
                    ("work".to_owned(), JsonValue::U64(n.work)),
                    ("fires".to_owned(), JsonValue::U64(n.fires)),
                    ("complete".to_owned(), JsonValue::Bool(n.complete)),
                ])
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                JsonValue::Object(vec![
                    ("from".to_owned(), JsonValue::U64(e.from as u64)),
                    ("to".to_owned(), JsonValue::U64(e.to as u64)),
                    ("kind".to_owned(), JsonValue::str(e.kind)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("nodes".to_owned(), JsonValue::Array(nodes)),
            ("edges".to_owned(), JsonValue::Array(edges)),
        ])
    }
}

/// The work/span profile of the tabled goal graph.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Total attributed work `W` across all live goals.
    pub work: u64,
    /// Span `S`: the heaviest chain of dependent work (computed over the
    /// SCC condensation, each component weighing the sum of its members).
    pub span: u64,
    /// The parallelism-headroom bound `W/S` (1.0 when there is no work).
    /// An ideal scheduler with unlimited workers finishes in `S`, so no
    /// intra-query parallelization can beat `W/S`-fold speedup.
    pub headroom: f64,
    /// Live goals considered.
    pub goals: usize,
    /// Dependency edges between distinct condensation components.
    pub edges: usize,
    /// The chain achieving `S`, source to sink: the heaviest goal of each
    /// component along the critical path.
    pub path: Vec<Goal>,
}

impl CriticalPath {
    /// The profile as a JSON object (stable schema, see
    /// `docs/OBSERVABILITY.md`).
    pub fn to_json(&self, cp: &ConstraintProgram) -> JsonValue {
        JsonValue::Object(vec![
            ("work".to_owned(), JsonValue::U64(self.work)),
            ("span".to_owned(), JsonValue::U64(self.span)),
            ("headroom".to_owned(), JsonValue::F64(self.headroom)),
            ("goals".to_owned(), JsonValue::U64(self.goals as u64)),
            ("edges".to_owned(), JsonValue::U64(self.edges as u64)),
            (
                "path".to_owned(),
                JsonValue::Array(
                    self.path
                        .iter()
                        .map(|&g| JsonValue::str(display_goal(cp, g)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl<'p> DemandEngine<'p> {
    /// Live (non-merged) goal indices, in table order.
    fn live_goals(&self) -> Vec<u32> {
        (0..self.memo.goals.len() as u32)
            .filter(|&gi| !self.memo.goals[gi as usize].merged)
            .collect()
    }

    /// Per-goal work/fires attribution for every live goal, in table
    /// order. Merged cycle members are folded into their representative.
    pub fn goal_profiles(&self) -> Vec<GoalProfile> {
        self.live_goals()
            .into_iter()
            .map(|gi| {
                let state = &self.memo.goals[gi as usize];
                let cost = self.memo.costs[gi as usize];
                GoalProfile {
                    goal: self.memo.keys[gi as usize],
                    work: cost.work,
                    fires: cost.fires,
                    complete: state.complete,
                    elems: state.elems.len(),
                    watchers: state.watchers.len(),
                }
            })
            .collect()
    }

    /// The `k` goals that consumed the most work, hottest first (ties
    /// broken by fires, then table order for determinism).
    pub fn hottest_goals(&self, k: usize) -> Vec<GoalProfile> {
        let mut profiles = self.goal_profiles();
        profiles.sort_by_key(|p| std::cmp::Reverse((p.work, p.fires)));
        profiles.truncate(k);
        profiles
    }

    /// The goal dependency graph over the live goals: an edge per watcher
    /// from its producer goal to its consumer ([`Watcher::consumer`]),
    /// deduplicated, self-loops omitted.
    pub fn goal_graph(&self) -> GoalGraph {
        let live = self.live_goals();
        let node_of: HashMap<u32, usize> =
            live.iter().enumerate().map(|(i, &gi)| (gi, i)).collect();
        let nodes = live
            .iter()
            .map(|&gi| {
                let state = &self.memo.goals[gi as usize];
                let cost = self.memo.costs[gi as usize];
                GoalGraphNode {
                    goal: self.memo.keys[gi as usize],
                    work: cost.work,
                    fires: cost.fires,
                    complete: state.complete,
                }
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::new();
        for (from, &gi) in live.iter().enumerate() {
            for watcher in self.memo.goals[gi as usize].watchers.iter() {
                let Some(to) = self.consumer_node(watcher, &node_of) else {
                    continue;
                };
                if to == from {
                    continue;
                }
                let edge = GoalEdge {
                    from,
                    to,
                    kind: watcher.kind_name(),
                };
                if seen.insert(edge) {
                    edges.push(edge);
                }
            }
        }
        GoalGraph { nodes, edges }
    }

    /// Resolves a watcher's consumer goal to a live-node index: tabled
    /// goals route through the cycle union-find to their representative;
    /// untabled consumers (the watcher was installed speculatively) have
    /// no node. Tolerant by construction — a half-built table just yields
    /// fewer edges.
    fn consumer_node(&self, watcher: &Watcher, node_of: &HashMap<u32, usize>) -> Option<usize> {
        let ci = self.memo.index.get(watcher.consumer())?;
        node_of.get(&self.memo.cycles.find_readonly(ci)).copied()
    }

    /// Computes the work/span profile of the current goal table: total
    /// work `W`, span `S` (heaviest dependency chain over the SCC
    /// condensation of [`DemandEngine::goal_graph`]), and the `W/S`
    /// parallelism-headroom bound.
    pub fn critical_path(&self) -> CriticalPath {
        let graph = self.goal_graph();
        let n = graph.nodes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in &graph.edges {
            adj[e.from].push(e.to as u32);
        }
        let scc = tarjan(n, |v, out| out.extend(&adj[v as usize]));
        let comp: Vec<usize> = scc.component.iter().map(|&c| c as usize).collect();
        let ncomps = scc.count as usize;

        let mut weight = vec![0u64; ncomps];
        // The heaviest member represents its component in the reported path.
        let mut rep = vec![usize::MAX; ncomps];
        for (v, node) in graph.nodes.iter().enumerate() {
            let c = comp[v];
            weight[c] += node.work;
            if rep[c] == usize::MAX || graph.nodes[rep[c]].work < node.work {
                rep[c] = v;
            }
        }
        let work: u64 = weight.iter().sum();

        // Tarjan emits components in reverse topological order: an edge
        // u → v with comp[u] ≠ comp[v] always has comp[v] < comp[u]. So a
        // single sweep from high ids to low relaxes every inter-component
        // edge after its source's distance is final.
        let mut comp_edges = std::collections::HashSet::new();
        for e in &graph.edges {
            let (cu, cv) = (comp[e.from], comp[e.to]);
            if cu != cv {
                debug_assert!(cv < cu, "condensation order violated");
                comp_edges.insert((cu, cv));
            }
        }
        let mut dist = weight.clone();
        let mut prev: Vec<Option<usize>> = vec![None; ncomps];
        let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); ncomps];
        for &(cu, cv) in &comp_edges {
            by_source[cu].push(cv);
        }
        for cu in (0..ncomps).rev() {
            for &cv in &by_source[cu] {
                let through = dist[cu] + weight[cv];
                if through > dist[cv] {
                    dist[cv] = through;
                    prev[cv] = Some(cu);
                }
            }
        }
        let (span, sink) = dist
            .iter()
            .enumerate()
            .map(|(c, &d)| (d, c))
            .max()
            .unwrap_or((0, 0));

        let mut path = Vec::new();
        if n > 0 && span > 0 {
            let mut at = Some(sink);
            while let Some(c) = at {
                path.push(graph.nodes[rep[c]].goal);
                at = prev[c];
            }
            path.reverse();
        }
        let headroom = if span == 0 {
            1.0
        } else {
            work as f64 / span as f64
        };
        CriticalPath {
            work,
            span,
            headroom,
            goals: n,
            edges: comp_edges.len(),
            path,
        }
    }

    /// The flight recorder's current contents rendered as JSONL-ready
    /// objects (`"kind":"flight"` lines), newest last, with goal indices
    /// resolved to names. Indices outside the current table (recorded
    /// before a `clear`/`reload`) render as `goal#N` — reconstruction
    /// tolerates gaps and generation skew. Returns an empty vec when the
    /// recorder is off.
    pub fn flight_events_json(&self, limit: usize) -> Vec<JsonValue> {
        let Some(flight) = self.flight_recorder() else {
            return Vec::new();
        };
        let snap = flight.snapshot();
        let cp = self.program();
        let name_of = |gi: u32| -> String {
            self.memo
                .keys
                .get(gi as usize)
                .map(|&g| display_goal(cp, g))
                .unwrap_or_else(|| format!("goal#{gi}"))
        };
        let skip = snap.events.len().saturating_sub(limit);
        snap.events
            .iter()
            .skip(skip)
            .map(|e| {
                use ddpa_obs::FlightEventKind as K;
                let mut fields = vec![
                    ("kind".to_owned(), JsonValue::str("flight")),
                    ("seq".to_owned(), JsonValue::U64(e.seq)),
                    ("event".to_owned(), JsonValue::str(e.kind.as_str())),
                ];
                // Scheduler events address frame *slots* (a stable
                // program-node encoding), not this table's goal indices —
                // report them raw instead of resolving to a wrong name.
                match e.kind {
                    K::Parked | K::Stolen | K::Woken => {
                        fields.push(("slot".to_owned(), JsonValue::U64(e.a as u64)));
                    }
                    _ => fields.push(("goal".to_owned(), JsonValue::str(name_of(e.a)))),
                }
                match e.kind {
                    K::Blocked => {
                        let consumer = if e.b == u32::MAX {
                            "?".to_owned()
                        } else {
                            name_of(e.b)
                        };
                        fields.push(("consumer".to_owned(), JsonValue::str(consumer)));
                    }
                    K::Fire => {
                        let kind = Watcher::KIND_NAMES
                            .get(e.b as usize)
                            .copied()
                            .unwrap_or("?");
                        fields.push(("watcher".to_owned(), JsonValue::str(kind)));
                        fields.push(("stride".to_owned(), JsonValue::U64(e.work as u64)));
                    }
                    K::MemoHit => {
                        fields.push(("shared".to_owned(), JsonValue::Bool(e.b == 1)));
                    }
                    K::Completed => {
                        fields.push(("elems".to_owned(), JsonValue::U64(e.b as u64)));
                        fields.push(("work".to_owned(), JsonValue::U64(e.work as u64)));
                    }
                    K::CycleMerged => {
                        fields.push(("members".to_owned(), JsonValue::U64(e.b as u64)));
                    }
                    K::Parked | K::Woken => {
                        fields.push(("worker".to_owned(), JsonValue::U64(e.b as u64)));
                    }
                    K::Stolen => {
                        fields.push(("thief".to_owned(), JsonValue::U64(e.b as u64)));
                    }
                    K::Activated | K::Resumed => {}
                }
                JsonValue::Object(fields)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DemandConfig;
    use ddpa_constraints::NodeId;

    fn node(cp: &ConstraintProgram, name: &str) -> NodeId {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .unwrap_or_else(|| panic!("no node named {name}"))
    }

    #[test]
    fn condense_finds_sccs_in_reverse_topo_order() {
        // 0 → 1 ⇄ 2 → 3; SCCs: {0}, {1,2}, {3}.
        let adj: Vec<Vec<u32>> = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let scc = tarjan(4, |v, out| out.extend(&adj[v as usize]));
        let comp = scc.component;
        assert_eq!(scc.count, 3);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[3]);
        // Reverse topological: every inter-component edge decreases id.
        assert!(comp[0] > comp[1], "0→1 edge points to a smaller comp id");
        assert!(comp[2] > comp[3], "2→3 edge points to a smaller comp id");
    }

    #[test]
    fn chain_has_headroom_one() {
        // Pure copy chain: every goal depends on the previous one, so the
        // span is the whole work — nothing to parallelize.
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\nr = q\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let r = engine.points_to(node(&cp, "r"));
        assert!(r.complete);
        let profile = engine.critical_path();
        assert!(profile.work > 0);
        assert_eq!(profile.span, profile.work, "chain is fully sequential");
        assert!((profile.headroom - 1.0).abs() < 1e-9);
        assert!(!profile.path.is_empty());
        // The per-goal attribution sums to the engine's work counter.
        assert_eq!(profile.work, engine.stats().work);
    }

    #[test]
    fn independent_chains_have_headroom_near_two() {
        let cp = ddpa_constraints::parse_constraints(
            "a1 = &o1\na2 = a1\na3 = a2\nb1 = &o2\nb2 = b1\nb3 = b2\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        assert!(engine.points_to(node(&cp, "a3")).complete);
        assert!(engine.points_to(node(&cp, "b3")).complete);
        let profile = engine.critical_path();
        assert!(
            profile.span < profile.work,
            "independent chains overlap: span {} < work {}",
            profile.span,
            profile.work
        );
        assert!(profile.headroom > 1.5, "headroom {}", profile.headroom);
    }

    #[test]
    fn hottest_goals_sorted_by_work() {
        let cp =
            ddpa_constraints::parse_constraints("p = &a\np = &b\nq = p\nr = q\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        assert!(engine.points_to(node(&cp, "r")).complete);
        let hot = engine.hottest_goals(2);
        assert_eq!(hot.len(), 2);
        assert!(hot[0].work >= hot[1].work);
        let all = engine.goal_profiles();
        assert!(all.len() >= hot.len());
        let max_work = all.iter().map(|p| p.work).max().expect("goals exist");
        assert_eq!(hot[0].work, max_work);
    }

    #[test]
    fn goal_graph_exports_dot_and_json() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        assert!(engine.points_to(node(&cp, "q")).complete);
        let graph = engine.goal_graph();
        assert!(!graph.nodes.is_empty());
        assert!(
            graph.edges.iter().any(|e| e.kind == "copy_to"),
            "q = p materializes a copy_to edge"
        );
        let dot = graph.to_dot(&cp);
        assert!(dot.starts_with("digraph goals {"));
        assert!(dot.ends_with("}\n"));
        assert!(dot.contains("pts(q)"));
        let json = graph.to_json(&cp).to_string();
        ddpa_obs::validate_jsonl_line(&json).expect("graph json is one valid object");
        let parsed = ddpa_obs::parse_json(&json).expect("parses");
        assert_eq!(
            parsed
                .get("nodes")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(graph.nodes.len())
        );
    }

    #[test]
    fn collapsed_cycles_condense_into_one_node() {
        let cp =
            ddpa_constraints::parse_constraints("x = y\ny = x\nx = &a\ny = &b\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_collapse_threshold(1));
        assert!(engine.points_to(node(&cp, "x")).complete);
        let graph = engine.goal_graph();
        let pts_nodes = graph
            .nodes
            .iter()
            .filter(|n| matches!(n.goal, Goal::Pts(_)))
            .count();
        assert_eq!(pts_nodes, 1, "x/y merged into one representative node");
        let profile = engine.critical_path();
        assert_eq!(profile.work, engine.stats().work, "merged costs preserved");
    }

    #[test]
    fn flight_events_render_with_names_and_tolerate_unknown_indices() {
        let cp = ddpa_constraints::parse_constraints("p = &o\nq = p\n").expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        assert!(engine.points_to(node(&cp, "q")).complete);
        let lines = engine.flight_events_json(1000);
        assert!(!lines.is_empty());
        for line in &lines {
            let text = line.to_string();
            ddpa_obs::validate_metrics_line(&text).expect("flight line validates");
            assert_eq!(line.get("kind").and_then(JsonValue::as_str), Some("flight"));
        }
        assert!(
            lines
                .iter()
                .any(|l| l.get("goal").and_then(JsonValue::as_str) == Some("pts(q)")),
            "goal indices resolve to names"
        );
        // An index past the table renders as goal#N instead of panicking.
        engine.flight_recorder().expect("recorder on").record(
            ddpa_obs::FlightEventKind::Activated,
            9999,
            0,
            0,
        );
        let lines = engine.flight_events_json(1000);
        assert!(lines
            .iter()
            .any(|l| l.get("goal").and_then(JsonValue::as_str) == Some("goal#9999")));
        // A limit keeps only the newest events.
        let limited = engine.flight_events_json(3);
        assert_eq!(limited.len(), 3);
        let all = engine.flight_events_json(usize::MAX);
        assert_eq!(
            limited.last().and_then(|l| l.get("seq").cloned()),
            all.last().and_then(|l| l.get("seq").cloned()),
        );
    }

    #[test]
    fn engine_wraps_tiny_ring_dropping_oldest_first() {
        // A copy chain long enough to overflow a capacity-8 ring many
        // times over, with every rule firing recorded (stride 1).
        let mut src = String::from("p0 = &o\n");
        for i in 1..40 {
            src.push_str(&format!("p{i} = p{}\n", i - 1));
        }
        let cp = ddpa_constraints::parse_constraints(&src).expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_flight(8, 1));
        let answer = engine.points_to(node(&cp, "p39"));
        assert!(answer.complete);
        let flight = engine.flight_recorder().expect("recorder on").clone();
        assert!(flight.recorded() > 8, "ring overflowed");
        assert_eq!(
            flight.dropped(),
            flight.recorded() - 8,
            "drop counter is exact"
        );
        let snap = flight.snapshot();
        assert_eq!(snap.events.len(), 8, "only the newest window survives");
        let oldest = flight.recorded() - 8;
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.seq, oldest + i as u64, "oldest dropped first, order kept");
        }
        // Same query under a huge sampling stride: structural events
        // remain but only the first rule firing makes it into the ring.
        let mut sparse =
            DemandEngine::new(&cp, DemandConfig::default().with_flight(1 << 12, u32::MAX));
        let sparse_answer = sparse.points_to(node(&cp, "p39"));
        assert_eq!(
            answer.pts, sparse_answer.pts,
            "sampling never changes answers"
        );
        let sparse_snap = sparse.flight_recorder().expect("recorder on").snapshot();
        assert!(!sparse_snap.events.is_empty());
        let fires = sparse_snap
            .events
            .iter()
            .filter(|e| e.kind == ddpa_obs::FlightEventKind::Fire)
            .count();
        assert_eq!(fires, 1, "stride u32::MAX keeps only the first firing");
        assert!(flight.fires_seen() > 1, "the chain fired many rules");
        assert_eq!(
            flight.fires_seen(),
            sparse.flight_recorder().expect("recorder on").fires_seen(),
            "both engines saw the same firings; only the kept fraction differs"
        );
    }

    #[test]
    fn recorder_off_yields_no_events_and_identical_answers() {
        let cp = ddpa_constraints::parse_constraints("p = &a\np = &b\nq = p\nr = *q\n*q = p\n")
            .expect("parses");
        let mut on = DemandEngine::new(&cp, DemandConfig::default());
        let mut off = DemandEngine::new(&cp, DemandConfig::default().without_flight_recorder());
        let r_on = on.points_to(node(&cp, "r"));
        let r_off = off.points_to(node(&cp, "r"));
        assert_eq!(r_on.pts, r_off.pts, "answers bit-identical on/off");
        assert_eq!(r_on.work, r_off.work, "work identical on/off");
        assert!(on.flight_recorder().is_some());
        assert!(off.flight_recorder().is_none());
        assert!(off.flight_events_json(100).is_empty());
        assert!(on.stats().flight_events > 0);
        assert_eq!(off.stats().flight_events, 0);
    }
}
