//! Call-graph construction — the paper's motivating client.
//!
//! A compiler needs the targets of every call site. Direct calls are free;
//! indirect calls need the points-to set of the function-pointer
//! expression. The exhaustive route solves the whole program first; the
//! demand route issues one query per indirect call site, which is exactly
//! the query load the paper's evaluation measures.

use ddpa_support::IndexVec;

use ddpa_anders::Solution;
use ddpa_constraints::{CallSiteId, CalleeRef, ConstraintProgram, FuncId};
use ddpa_demand::DemandEngine;

/// A resolved call graph: the callee set of every call site.
#[derive(Clone, Debug)]
pub struct CallGraph {
    targets: IndexVec<CallSiteId, Vec<FuncId>>,
}

/// Work statistics from demand-driven call-graph construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CallGraphStats {
    /// Indirect call sites fully resolved within budget.
    pub indirect_resolved: usize,
    /// Indirect call sites that fell back to all address-taken functions.
    pub indirect_fallback: usize,
    /// Work (rule firings) per indirect call-site query, in site order.
    pub work_per_query: Vec<u64>,
}

impl CallGraphStats {
    /// Fraction of indirect sites resolved precisely, or `None` when the
    /// program has no indirect sites — callers must not mistake "no data"
    /// for "all resolved".
    pub fn resolution_rate(&self) -> Option<f64> {
        let total = self.indirect_resolved + self.indirect_fallback;
        if total == 0 {
            None
        } else {
            Some(self.indirect_resolved as f64 / total as f64)
        }
    }
}

impl CallGraph {
    /// Builds the call graph from an exhaustive solution.
    pub fn from_exhaustive(cp: &ConstraintProgram, solution: &Solution) -> Self {
        let mut targets = IndexVec::with_capacity(cp.callsites().len());
        for cs in cp.callsites().indices() {
            targets.push(solution.call_targets(cs).to_vec());
        }
        CallGraph { targets }
    }

    /// Builds the call graph on demand: one query per indirect call site.
    ///
    /// Unresolved sites (budget exhausted) conservatively target every
    /// address-taken function and are counted in
    /// [`CallGraphStats::indirect_fallback`].
    pub fn from_demand(engine: &mut DemandEngine<'_>) -> (Self, CallGraphStats) {
        let mut targets = IndexVec::with_capacity(engine.program().callsites().len());
        let mut stats = CallGraphStats::default();
        for cs in engine.program().callsites().indices() {
            let result = engine.call_targets(cs);
            if engine.program().callsite(cs).is_indirect() {
                stats.work_per_query.push(result.work);
                if result.resolved {
                    stats.indirect_resolved += 1;
                } else {
                    stats.indirect_fallback += 1;
                }
            }
            targets.push(result.targets);
        }
        (CallGraph { targets }, stats)
    }

    /// The callee set of `cs` (sorted).
    pub fn targets(&self, cs: CallSiteId) -> &[FuncId] {
        &self.targets[cs]
    }

    /// Total (call site → callee) edges.
    pub fn num_edges(&self) -> usize {
        self.targets.iter().map(Vec::len).sum()
    }

    /// Function-level edges `(caller, callee)` for call sites whose caller
    /// is known, sorted and deduplicated.
    pub fn func_edges(&self, cp: &ConstraintProgram) -> Vec<(FuncId, FuncId)> {
        let mut edges = Vec::new();
        for (cs, callees) in self.targets.iter_enumerated() {
            if let Some(caller) = cp.callsite(cs).caller {
                for &callee in callees {
                    edges.push((caller, callee));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Returns `true` if both graphs resolve every call site identically.
    pub fn same_as(&self, other: &CallGraph) -> bool {
        self.targets == other.targets
    }

    /// Average number of targets per indirect call site (the precision
    /// metric the paper reports for the client).
    pub fn avg_indirect_targets(&self, cp: &ConstraintProgram) -> f64 {
        let mut count = 0usize;
        let mut sum = 0usize;
        for (cs, callees) in self.targets.iter_enumerated() {
            if matches!(cp.callsite(cs).callee, CalleeRef::Indirect(_)) {
                count += 1;
                sum += callees.len();
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddpa_demand::DemandConfig;

    fn program() -> ConstraintProgram {
        ddpa_constraints::parse_constraints(
            "fun main/0\n\
             fun a/0\n\
             fun b/0\n\
             fun unused/0\n\
             fp = &a\n\
             fp = &b\n\
             taken = &unused\n\
             icall fp() in main\n\
             call a() in main\n",
        )
        .expect("parses")
    }

    #[test]
    fn demand_matches_exhaustive() {
        let cp = program();
        let exhaustive = CallGraph::from_exhaustive(&cp, &ddpa_anders::solve(&cp));
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (demand, stats) = CallGraph::from_demand(&mut engine);
        assert!(demand.same_as(&exhaustive));
        assert_eq!(stats.indirect_resolved, 1);
        assert_eq!(stats.indirect_fallback, 0);
        assert_eq!(stats.resolution_rate(), Some(1.0));
    }

    #[test]
    fn indirect_targets_and_edges() {
        let cp = program();
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (cg, _) = CallGraph::from_demand(&mut engine);
        let icall = cp.indirect_callsites()[0];
        assert_eq!(cg.targets(icall).len(), 2);
        assert_eq!(cg.avg_indirect_targets(&cp), 2.0);
        // Deduplicated function edges: main → a and main → b.
        assert_eq!(cg.func_edges(&cp).len(), 2);
        assert_eq!(cg.num_edges(), 3);
    }

    #[test]
    fn no_indirect_sites_is_no_data() {
        let cp = ddpa_constraints::parse_constraints("p = &o\ncall f() in f\nfun f/0\n")
            .unwrap_or_else(|_| ddpa_constraints::parse_constraints("p = &o\n").expect("parses"));
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let (_, stats) = CallGraph::from_demand(&mut engine);
        assert_eq!(stats.indirect_resolved + stats.indirect_fallback, 0);
        assert_eq!(stats.resolution_rate(), None, "no sites is not a 100% rate");
    }

    #[test]
    fn zero_budget_falls_back() {
        let cp = program();
        let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_budget(0));
        let (cg, stats) = CallGraph::from_demand(&mut engine);
        assert_eq!(stats.indirect_fallback, 1);
        let icall = cp.indirect_callsites()[0];
        // Fallback = all address-taken functions (a, b, unused).
        assert_eq!(cg.targets(icall).len(), 3);
        assert!(stats.resolution_rate().expect("has an indirect site") < 1.0);
    }
}
