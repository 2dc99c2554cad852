//! Work-counter pins: fixed query lists on fixed generated programs must
//! charge exactly the recorded work, fires, activations, SCC passes,
//! collapses, merges and cache hits.
//!
//! The literals were recorded at commit b607bb7, before the engine's
//! bookkeeping (the SCC pass, the goal index, the watcher dedup set and
//! the per-fire counters) was rewritten for speed. Bookkeeping must never
//! change a deduction step, so any drift here means a watcher fired in a
//! different order or a different number of times.

use ddpa_constraints::{ConstraintProgram, NodeId};
use ddpa_demand::{DemandConfig, DemandEngine};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, CyclicConfig, MiniCConfig, RandomConfig,
};

/// `(work, fires, goals_activated, cycle_runs, cycles_collapsed,
/// merged_goals, cache_hits)` after the run.
type Pins = [u64; 7];

fn pins(engine: &DemandEngine<'_>) -> Pins {
    let s = engine.stats();
    [
        s.work,
        s.fires,
        s.goals_activated,
        s.cycle_runs,
        s.cycles_collapsed,
        s.merged_goals,
        s.cache_hits,
    ]
}

/// Every `stride`-th node, `pts` then `ptb`, each list asked twice so the
/// second pass is all cache hits.
fn run_list(cp: &ConstraintProgram, config: DemandConfig, stride: usize) -> Pins {
    let mut engine = DemandEngine::new(cp, config);
    let nodes: Vec<NodeId> = cp.node_ids().step_by(stride).collect();
    for _ in 0..2 {
        for &n in &nodes {
            assert!(engine.points_to(n).complete);
        }
        for &n in &nodes {
            assert!(engine.pointed_to_by(n).complete);
        }
    }
    pins(&engine)
}

fn minic() -> ConstraintProgram {
    ddpa_constraints::lower(&generate_minic(&MiniCConfig::sized(2001, 24))).expect("lowers")
}

fn cyclic() -> ConstraintProgram {
    generate_cyclic(&CyclicConfig::sized(5, 6))
}

fn random() -> ConstraintProgram {
    generate_random(&RandomConfig::sized(17, 900).with_copy_cycles(4, 12))
}

#[test]
fn minic_pins() {
    let got = run_list(&minic(), DemandConfig::default(), 3);
    assert_eq!(got, [7037, 6255, 782, 107, 19, 37, 615]);
}

#[test]
fn cyclic_pins() {
    let got = run_list(&cyclic(), DemandConfig::default(), 2);
    assert_eq!(got, [4817, 4541, 276, 37, 6, 138, 288]);
}

#[test]
fn cyclic_threshold_one_pins() {
    let config = DemandConfig::default().with_collapse_threshold(1);
    let got = run_list(&cyclic(), config, 2);
    assert_eq!(got, [4716, 4440, 276, 156, 6, 138, 288]);
}

#[test]
fn random_pins() {
    let got = run_list(&random(), DemandConfig::default(), 2);
    assert_eq!(got, [3415, 2110, 1305, 60, 7, 35, 1233]);
}

#[test]
fn collapse_off_pins() {
    let config = DemandConfig::default().without_cycle_collapsing();
    let got = run_list(&cyclic(), config, 2);
    assert_eq!(got, [7170, 6894, 276, 0, 0, 0, 288]);
}

/// A small budget suspends each query many times; re-asking resumes the
/// suspended drain until the goal completes.
#[test]
fn budgeted_resume_pins() {
    let cp = random();
    let mut engine = DemandEngine::new(&cp, DemandConfig::default().with_budget(40));
    let mut suspended = 0u64;
    for n in cp.node_ids().step_by(5) {
        while !engine.points_to(n).complete {
            suspended += 1;
        }
    }
    let got = pins(&engine);
    assert_eq!((got, suspended), ([2477, 1879, 598, 55, 7, 40, 44], 42));
}
