//! Wave propagation: a topological-order exhaustive solver.
//!
//! An alternative to the worklist scheme: each *round* collapses the
//! current copy-edge graph's cycles, orders the condensation
//! topologically, and sweeps points-to sets down the order in one pass
//! (the "wave"), then evaluates load/store/call constraints to grow the
//! graph; rounds repeat until nothing changes. Compared to the worklist
//! solver, propagation order is globally optimal per round instead of
//! discovery-driven, at the cost of whole-graph passes.
//!
//! The implementation favours clarity over micro-optimization — it exists
//! as an independently-derived solver for differential testing.

use std::collections::HashSet;

use ddpa_obs::Obs;
use ddpa_support::scc::tarjan;
use ddpa_support::{HybridSet, IndexVec, UnionFind};

use ddpa_constraints::{CallSiteId, CalleeRef, ConstraintProgram, FuncId, NodeId};

use crate::solution::Solution;

/// Work counters reported by [`solve`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Full sweep rounds executed.
    pub rounds: u64,
    /// Copy edges in the final graph.
    pub edges: u64,
    /// Nodes merged by cycle collapsing.
    pub collapsed: u64,
}

/// Solves `cp` exhaustively by wave propagation.
pub fn solve(cp: &ConstraintProgram) -> (Solution, WaveStats) {
    solve_with_obs(cp, &Obs::new())
}

/// Like [`solve`], but publishes the work counters into `obs` (under
/// `anders.wave.*`) and times each round's phases when profiling is on.
pub fn solve_with_obs(cp: &ConstraintProgram, obs: &Obs) -> (Solution, WaveStats) {
    let _span = obs.span("anders.wave");
    let n = cp.num_nodes();
    let mut uf = UnionFind::new(n);
    let mut pts: IndexVec<NodeId, HybridSet> = IndexVec::from_elem(HybridSet::new(), n);
    // Copy successors, valid at representatives (targets resolved lazily).
    let mut succs: IndexVec<NodeId, Vec<NodeId>> = IndexVec::from_elem(Vec::new(), n);
    let mut edge_set: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut call_targets: IndexVec<CallSiteId, Vec<FuncId>> =
        IndexVec::from_elem(Vec::new(), cp.callsites().len());
    let mut wired: HashSet<(CallSiteId, FuncId)> = HashSet::new();
    let mut stats = WaveStats::default();

    let add_edge = |uf: &mut UnionFind,
                    succs: &mut IndexVec<NodeId, Vec<NodeId>>,
                    edge_set: &mut HashSet<(NodeId, NodeId)>,
                    src: NodeId,
                    dst: NodeId|
     -> bool {
        let (rs, rd) = (
            NodeId::from_u32(uf.find(src.as_u32())),
            NodeId::from_u32(uf.find(dst.as_u32())),
        );
        if rs == rd {
            return false;
        }
        if edge_set.insert((rs, rd)) {
            succs[rs].push(rd);
            true
        } else {
            false
        }
    };

    for c in cp.copies() {
        add_edge(&mut uf, &mut succs, &mut edge_set, c.src, c.dst);
    }
    for a in cp.addr_ofs() {
        let rep = NodeId::from_u32(uf.find(a.dst.as_u32()));
        pts[rep].insert(a.obj.as_u32());
    }

    loop {
        stats.rounds += 1;

        // 1. Collapse cycles of the representative copy graph.
        let collapse_span = obs.span("anders.wave.collapse");
        let rep_of: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
        let scc = tarjan(n, |v, out| {
            if rep_of[v as usize] == v {
                for d in &succs[NodeId::from_u32(v)] {
                    out.push(rep_of[d.as_u32() as usize]);
                }
            }
        });
        let mut comp_first: Vec<Option<u32>> = vec![None; scc.count as usize];
        for v in 0..n as u32 {
            if rep_of[v as usize] != v {
                continue;
            }
            let comp = scc.component[v as usize] as usize;
            match comp_first[comp] {
                None => comp_first[comp] = Some(v),
                Some(first) => {
                    let root = uf.union(first, v).expect("distinct reps");
                    let other = if root == first { v } else { first };
                    stats.collapsed += 1;
                    let moved = std::mem::take(&mut pts[NodeId::from_u32(other)]);
                    pts[NodeId::from_u32(root)].union_with(&moved);
                    let mut moved = std::mem::take(&mut succs[NodeId::from_u32(other)]);
                    succs[NodeId::from_u32(root)].append(&mut moved);
                    comp_first[comp] = Some(root);
                }
            }
        }

        drop(collapse_span);

        // 2. One wave: sweep sets down the condensation in reverse
        //    topological order of components (Tarjan numbers components in
        //    reverse topological order, so iterate components descending).
        let sweep_span = obs.span("anders.wave.sweep");
        let rep_of: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
        let scc = tarjan(n, |v, out| {
            if rep_of[v as usize] == v {
                for d in &succs[NodeId::from_u32(v)] {
                    out.push(rep_of[d.as_u32() as usize]);
                }
            }
        });
        let mut order: Vec<NodeId> = (0..n as u32)
            .filter(|&v| rep_of[v as usize] == v)
            .map(NodeId::from_u32)
            .collect();
        order.sort_by_key(|v| std::cmp::Reverse(scc.component[v.as_u32() as usize]));
        let mut set_changed = false;
        for &v in &order {
            if pts[v].is_empty() {
                continue;
            }
            let src_set = std::mem::take(&mut pts[v]);
            for i in 0..succs[v].len() {
                let d = NodeId::from_u32(uf.find(succs[v][i].as_u32()));
                if d != v {
                    set_changed |= pts[d].union_with(&src_set);
                }
            }
            pts[v] = src_set;
        }

        drop(sweep_span);

        // 3. Evaluate the complex constraints against the swept sets.
        let _complex_span = obs.span("anders.wave.complex");
        let mut graph_changed = false;
        let objs_of = |uf: &mut UnionFind, pts: &IndexVec<NodeId, HybridSet>, p: NodeId| {
            let rep = NodeId::from_u32(uf.find(p.as_u32()));
            pts[rep].iter().collect::<Vec<u32>>()
        };
        for l in cp.loads() {
            for o in objs_of(&mut uf, &pts, l.ptr) {
                graph_changed |= add_edge(
                    &mut uf,
                    &mut succs,
                    &mut edge_set,
                    NodeId::from_u32(o),
                    l.dst,
                );
            }
        }
        for s in cp.stores() {
            for o in objs_of(&mut uf, &pts, s.ptr) {
                graph_changed |= add_edge(
                    &mut uf,
                    &mut succs,
                    &mut edge_set,
                    s.src,
                    NodeId::from_u32(o),
                );
            }
        }
        for fa in cp.field_addrs() {
            for o in objs_of(&mut uf, &pts, fa.base) {
                if let Some(fld) = cp.field_of(NodeId::from_u32(o), fa.field) {
                    let rep = NodeId::from_u32(uf.find(fa.dst.as_u32()));
                    if pts[rep].insert(fld.as_u32()) {
                        set_changed = true;
                    }
                }
            }
        }
        for (cs_id, cs) in cp.callsites().iter_enumerated() {
            let callees: Vec<FuncId> = match cs.callee {
                CalleeRef::Direct(f) => vec![f],
                CalleeRef::Indirect(fp) => objs_of(&mut uf, &pts, fp)
                    .into_iter()
                    .filter_map(|o| cp.node(NodeId::from_u32(o)).as_func())
                    .collect(),
            };
            for f in callees {
                if wired.insert((cs_id, f)) {
                    graph_changed = true;
                    let targets = &mut call_targets[cs_id];
                    if let Err(pos) = targets.binary_search(&f) {
                        targets.insert(pos, f);
                    }
                    let info = cp.func(f);
                    for (arg, formal) in cs.args.iter().zip(&info.formals) {
                        if let Some(arg) = arg {
                            add_edge(&mut uf, &mut succs, &mut edge_set, *arg, *formal);
                        }
                    }
                    if let Some(dst) = cs.ret_dst {
                        add_edge(&mut uf, &mut succs, &mut edge_set, info.ret, dst);
                    }
                }
            }
        }

        if !set_changed && !graph_changed {
            break;
        }
    }

    stats.edges = edge_set.len() as u64;
    obs.counter("anders.wave.rounds").add(stats.rounds);
    obs.counter("anders.wave.edges").add(stats.edges);
    obs.counter("anders.wave.collapsed").add(stats.collapsed);
    let rep: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
    (Solution::new(rep, pts, call_targets), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use ddpa_constraints::ConstraintBuilder;

    fn check(cp: &ConstraintProgram) {
        let expected = naive::solve(cp);
        let (got, stats) = solve(cp);
        assert!(stats.rounds >= 1);
        for node in cp.node_ids() {
            assert_eq!(
                got.pts_nodes(node),
                expected.pts_nodes(node),
                "wave differs at {}",
                cp.display_node(node)
            );
        }
        for cs in cp.callsites().indices() {
            assert_eq!(got.call_targets(cs), expected.call_targets(cs));
        }
    }

    #[test]
    fn matches_naive_on_load_store_chains() {
        let mut b = ConstraintBuilder::new();
        let (p, o, x, y, t) = (b.var("p"), b.var("o"), b.var("x"), b.var("y"), b.var("t"));
        b.addr_of(p, o);
        b.addr_of(x, t);
        b.store(p, x);
        b.load(y, p);
        check(&b.build());
    }

    #[test]
    fn matches_naive_with_cycles_and_calls() {
        let mut b = ConstraintBuilder::new();
        let f = b.func("f", 1);
        let info = b.func_info(f).clone();
        b.copy(info.ret, info.formals[0]);
        let (x, y, z, o, fp, r) = (
            b.var("x"),
            b.var("y"),
            b.var("z"),
            b.var("o"),
            b.var("fp"),
            b.var("r"),
        );
        b.copy(x, y);
        b.copy(y, z);
        b.copy(z, x);
        b.addr_of(x, o);
        b.addr_of(fp, info.object);
        b.call_indirect(fp, vec![Some(x)], Some(r));
        let cp = b.build();
        check(&cp);
        let (_, stats) = solve(&cp);
        assert!(stats.collapsed >= 2, "the 3-cycle collapses: {stats:?}");
    }

    #[test]
    fn matches_naive_with_fields() {
        let cp = ddpa_constraints::parse_constraints(
            "field s.0\n\
             p = &s\n\
             f = &p->0\n\
             x = &val\n\
             *f = x\n\
             r = *f\n",
        )
        .expect("parses");
        check(&cp);
    }

    #[test]
    fn matches_naive_on_generated_program() {
        // A deterministic mid-size program touching every constraint kind.
        let mut b = ConstraintBuilder::new();
        let objs: Vec<_> = (0..8).map(|i| b.var(&format!("o{i}"))).collect();
        let vars: Vec<_> = (0..40).map(|i| b.var(&format!("v{i}"))).collect();
        for i in 0..40usize {
            b.addr_of(vars[i], objs[i % 8]);
            b.copy(vars[(i + 7) % 40], vars[i]);
            if i % 3 == 0 {
                b.load(vars[(i + 11) % 40], vars[i]);
            }
            if i % 5 == 0 {
                b.store(vars[i], vars[(i + 13) % 40]);
            }
        }
        check(&b.build());
    }
}
