//! Per-query cost of the paper's client shape (its F1/F3 question: what
//! one query costs, and whether it resolves within a budget).
//!
//! On a servebench-sized MiniC program, a fresh engine answers `pts` of
//! each dereferenced pointer. Each indirect call site is watched once per
//! engine, by the call-edge table, so a query pays for the call edges it
//! reaches and not for every formal of every function it meets times
//! every indirect site. Every such query stays under 1,000 work and
//! resolves at a budget of 1,000; with per-goal watchers on every site,
//! the costliest took 22,548–24,722 and 650/784, 711/852 and 714/860 of
//! them resolved.

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::{generate_minic, MiniCConfig};

const BUDGET: u64 = 1_000;

fn minic(seed: u64) -> ConstraintProgram {
    ddpa_constraints::lower(&generate_minic(&MiniCConfig::sized(seed, 240)))
        .expect("generated MiniC lowers")
}

#[test]
fn every_deref_query_resolves_within_a_small_budget() {
    for seed in 1..=3 {
        let cp = minic(seed);
        let ptrs = cp.deref_pointers();
        let mut max = 0;
        for &ptr in &ptrs {
            let full = DemandEngine::new(&cp, DemandConfig::default()).points_to(ptr);
            assert!(full.complete);
            max = max.max(full.work);
            let budgeted =
                DemandEngine::new(&cp, DemandConfig::default().with_budget(BUDGET)).points_to(ptr);
            assert!(
                budgeted.complete,
                "seed {seed}: pts({}) unresolved at budget {BUDGET}",
                cp.display_node(ptr)
            );
            assert_eq!(budgeted.pts, full.pts, "seed {seed}");
        }
        assert!(max <= BUDGET, "seed {seed}: a query cost {max}");
    }
}

/// `ptb` is the expensive direction. Pins the 90th-percentile work of
/// `ptb(o)` on a fresh engine, over every object `o` some `x = &o`
/// takes the address of: 3,591 / 3,797 / 3,803 here, against 36,858 /
/// 39,877 / 37,920 with per-goal watchers on every indirect site. Any
/// drift means a `ptb` goal reads call edges it did not read before.
#[test]
fn ptb_p90_of_address_taken_objects() {
    let mut p90s = Vec::new();
    for seed in 1..=3 {
        let cp = minic(seed);
        let mut objs: Vec<NodeId> = cp
            .node_ids()
            .flat_map(|n| cp.addr_objs_of(n).iter().copied())
            .collect();
        objs.sort_unstable();
        objs.dedup();
        let mut work: Vec<u64> = objs
            .into_iter()
            .map(|obj| {
                let r = DemandEngine::new(&cp, DemandConfig::default()).pointed_to_by(obj);
                assert!(r.complete);
                r.work
            })
            .collect();
        work.sort_unstable();
        p90s.push(work[work.len() * 9 / 10]);
    }
    assert_eq!(p90s, [3591, 3797, 3803]);
}
