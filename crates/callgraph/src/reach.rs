//! Function reachability over a resolved call graph.
//!
//! A linker-style client: starting from the roots (typically `main`),
//! which functions can ever run? Functions outside the reachable set are
//! dead code. Precision of the underlying pointer analysis translates
//! directly into smaller reachable sets (fewer spurious indirect-call
//! edges).

use std::collections::VecDeque;

use ddpa_support::IndexVec;

use ddpa_constraints::{ConstraintProgram, FuncId};

use crate::callgraph::CallGraph;

/// The reachable-function analysis result.
#[derive(Clone, Debug)]
pub struct Reachability {
    reachable: IndexVec<FuncId, bool>,
}

impl Reachability {
    /// Computes the functions reachable from `roots` via `cg`.
    ///
    /// Call sites with an unknown caller (global initializers) are treated
    /// as always executed: their callees are roots too.
    pub fn compute(cp: &ConstraintProgram, cg: &CallGraph, roots: &[FuncId]) -> Self {
        let mut reachable = IndexVec::from_elem(false, cp.funcs().len());
        let mut queue: VecDeque<FuncId> = VecDeque::new();

        let visit =
            |f: FuncId, reachable: &mut IndexVec<FuncId, bool>, queue: &mut VecDeque<FuncId>| {
                if !reachable[f] {
                    reachable[f] = true;
                    queue.push_back(f);
                }
            };

        for &root in roots {
            visit(root, &mut reachable, &mut queue);
        }
        for cs in cp.callsites().indices() {
            if cp.callsite(cs).caller.is_none() {
                for &f in cg.targets(cs) {
                    visit(f, &mut reachable, &mut queue);
                }
            }
        }

        while let Some(f) = queue.pop_front() {
            for cs in cp.callsites().indices() {
                if cp.callsite(cs).caller == Some(f) {
                    for &callee in cg.targets(cs) {
                        visit(callee, &mut reachable, &mut queue);
                    }
                }
            }
        }

        Reachability { reachable }
    }

    /// Number of reachable functions.
    pub fn count(&self) -> usize {
        self.reachable.iter().filter(|&&r| r).count()
    }

    /// Functions never reached (dead code candidates), sorted.
    pub fn dead(&self) -> Vec<FuncId> {
        self.reachable
            .iter_enumerated()
            .filter(|(_, &r)| !r)
            .map(|(f, _)| f)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use ddpa_demand::{DemandConfig, DemandEngine};

    #[test]
    fn dead_function_detection() {
        let cp = ddpa_constraints::parse_constraints(
            "fun main/0\n\
             fun live_direct/0\n\
             fun live_indirect/0\n\
             fun dead/0\n\
             fp = &live_indirect\n\
             call live_direct() in main\n\
             icall fp() in main\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (cg, _) = CallGraph::from_demand(&mut engine);
        let main = cp
            .funcs()
            .iter_enumerated()
            .find(|(_, i)| cp.interner().resolve(i.name) == "main")
            .map(|(id, _)| id)
            .expect("main exists");
        let reach = Reachability::compute(&cp, &cg, &[main]);
        assert_eq!(reach.count(), 3);
        let dead: Vec<String> = reach
            .dead()
            .iter()
            .map(|&f| cp.interner().resolve(cp.func(f).name).to_owned())
            .collect();
        assert_eq!(dead, vec!["dead"]);
    }

    #[test]
    fn global_initializer_calls_are_roots() {
        let cp = ddpa_constraints::parse_constraints(
            "fun init/0\n\
             fun main/0\n\
             call init()\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (cg, _) = CallGraph::from_demand(&mut engine);
        let reach = Reachability::compute(&cp, &cg, &[]);
        assert_eq!(reach.count(), 1); // init, not main (no roots given)
    }

    #[test]
    fn transitive_reachability() {
        let cp = ddpa_constraints::parse_constraints(
            "fun a/0\nfun b/0\nfun c/0\n\
             call b() in a\n\
             call c() in b\n",
        )
        .expect("parses");
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (cg, _) = CallGraph::from_demand(&mut engine);
        let a = cp.funcs().indices().next().expect("a exists");
        let reach = Reachability::compute(&cp, &cg, &[a]);
        assert_eq!(reach.count(), 3);
        assert!(reach.dead().is_empty());
    }
}
