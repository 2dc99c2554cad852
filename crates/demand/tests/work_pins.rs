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
use ddpa_demand::goal::Goal;
use ddpa_demand::{DemandConfig, DemandEngine, SchedPolicy, Scheduler};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
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

// ---------------------------------------------------------------------
// Servebench-sized MiniC pins
//
// These literals were recorded at commit 8dee23e, before a goal visit
// learned to resume after its settled watcher prefix and before
// dependency records were deduplicated through an index. The program is
// the size a servebench `cold` MiniC round opens, so goals grow long
// watcher and dependency lists and both fast paths run often; any drift
// means a watcher fired in a different order or a different number of
// times.
// ---------------------------------------------------------------------

fn minic_large() -> ConstraintProgram {
    ddpa_constraints::lower(&generate_minic(&MiniCConfig::sized(7, 240))).expect("lowers")
}

/// Like [`run_list`], but each query is re-asked until it completes;
/// also returns how many times a query was suspended.
fn run_list_resumed(cp: &ConstraintProgram, config: DemandConfig, stride: usize) -> (Pins, u64) {
    let mut engine = DemandEngine::new(cp, config);
    let nodes: Vec<NodeId> = cp.node_ids().step_by(stride).collect();
    let mut suspended = 0u64;
    for _ in 0..2 {
        for &n in &nodes {
            while !engine.points_to(n).complete {
                suspended += 1;
            }
        }
        for &n in &nodes {
            while !engine.pointed_to_by(n).complete {
                suspended += 1;
            }
        }
    }
    (pins(&engine), suspended)
}

#[test]
fn minic_large_pins() {
    let got = run_list(&minic_large(), DemandConfig::default(), 7);
    assert_eq!(got, [468162, 463021, 5141, 905, 142, 362, 2263]);
}

#[test]
fn minic_large_budgeted_resume_pins() {
    let config = DemandConfig::default().with_budget(64);
    let got = run_list_resumed(&minic_large(), config, 7);
    assert_eq!(got, ([464839, 459698, 5141, 991, 142, 362, 2263], 7136));
}

#[test]
fn minic_large_collapse_off_pins() {
    let config = DemandConfig::default().without_cycle_collapsing();
    let got = run_list(&minic_large(), config, 7);
    assert_eq!(got, [509615, 504474, 5141, 0, 0, 0, 2263]);
}

// ---------------------------------------------------------------------
// Frame-scheduler pins
//
// These literals were recorded at commit 5d6ad35, before the scheduler's
// bookkeeping (wakeups, step buffers, frame locking, finalize and the
// copies into the memo) was rewritten for speed. At one worker a solve is
// single-threaded and every counter repeats exactly; at two workers only
// the fire multiset is fixed, so only `work`, `fires` and `activated` are
// pinned there, next to the answers.
// ---------------------------------------------------------------------

/// `(work, fires, activated, parked, resumed, wakeups)` summed over a
/// goal list, plus the answers' `(total length, digest)`.
type SchedPins = ([u64; 6], (usize, u64));

/// Solves each goal with a fresh [`Scheduler`] and sums its counters.
fn sched_list(cp: &ConstraintProgram, config: DemandConfig, goals: &[Goal]) -> SchedPins {
    let sched = Scheduler::new(cp, config);
    let mut counts = [0u64; 6];
    let (mut len, mut digest) = (0usize, 0u64);
    for &goal in goals {
        let out = sched.solve(goal);
        let s = out.stats;
        for (c, v) in
            counts
                .iter_mut()
                .zip([s.work, s.fires, s.activated, s.parked, s.resumed, s.wakeups])
        {
            *c += v;
        }
        len += out.pts.len();
        for n in out.pts {
            digest = digest.wrapping_mul(0x100_0000_01b3) ^ u64::from(n.as_u32());
        }
    }
    (counts, (len, digest))
}

fn wide() -> (ConstraintProgram, Vec<Goal>) {
    let cp = generate_wide(&WideConfig::sized(1, 4000));
    let hub = cp
        .node_ids()
        .find(|&n| cp.display_node(n) == "hub")
        .expect("wide programs have a hub");
    (cp, vec![Goal::Pts(hub)])
}

/// Every 5th node of the MiniC program, `pts` then `ptb`.
fn minic_goals(cp: &ConstraintProgram) -> Vec<Goal> {
    let nodes: Vec<NodeId> = cp.node_ids().step_by(5).collect();
    let pts = nodes.iter().map(|&n| Goal::Pts(n));
    pts.chain(nodes.iter().map(|&n| Goal::Ptb(n))).collect()
}

fn one_worker(policy: SchedPolicy) -> DemandConfig {
    DemandConfig::default().with_sched_policy(policy)
}

fn two_workers(policy: SchedPolicy) -> DemandConfig {
    DemandConfig::default()
        .with_workers(2)
        .with_sched_policy(policy)
}

#[test]
fn sched_wide_one_worker_pins() {
    let (cp, goals) = wide();
    let dfs = sched_list(&cp, one_worker(SchedPolicy::Dfs), &goals);
    let bfs = sched_list(&cp, one_worker(SchedPolicy::Bfs), &goals);
    assert_eq!(
        dfs,
        (
            [10705, 7136, 3569, 7137, 3721, 3568],
            (306, 15752293990120923685)
        )
    );
    assert_eq!(
        bfs,
        (
            [10705, 7136, 3569, 6996, 3580, 3427],
            (306, 15752293990120923685)
        )
    );
}

#[test]
fn sched_minic_one_worker_pins() {
    let cp = minic();
    let goals = minic_goals(&cp);
    let dfs = sched_list(&cp, one_worker(SchedPolicy::Dfs), &goals);
    let bfs = sched_list(&cp, one_worker(SchedPolicy::Bfs), &goals);
    assert_eq!(
        dfs,
        (
            [24059, 20676, 3383, 11239, 9779, 7958],
            (902, 7191550452860465799)
        )
    );
    assert_eq!(
        bfs,
        (
            [24059, 20676, 3383, 6555, 5095, 3274],
            (902, 7191550452860465799)
        )
    );
}

#[test]
fn sched_two_worker_pins() {
    let (wide, hub) = wide();
    let minic = minic();
    let goals = minic_goals(&minic);
    for policy in [SchedPolicy::Dfs, SchedPolicy::Bfs] {
        let (w, (wlen, wdigest)) = sched_list(&wide, two_workers(policy), &hub);
        let (m, (mlen, mdigest)) = sched_list(&minic, two_workers(policy), &goals);
        assert_eq!([w[0], w[1], w[2]], [10705, 7136, 3569], "wide {policy:?}");
        assert_eq!(
            (wlen, wdigest),
            (306, 15752293990120923685),
            "wide {policy:?}"
        );
        assert_eq!([m[0], m[1], m[2]], [24059, 20676, 3383], "minic {policy:?}");
        assert_eq!(
            (mlen, mdigest),
            (902, 7191550452860465799),
            "minic {policy:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Large copy-cycle pins
//
// These literals were recorded at commit 5a2bb74, before a goal state
// stopped keeping a second, hashed copy of its watchers. On this program
// 3,136 of the 3,875 watcher registrations are ring copies that a cycle
// merge drops as the identity, and only that hashed copy remembered
// them; a later subscription of one must still be suppressed. Any drift
// means a dropped copy was installed again, or a watcher fired in a
// different order or a different number of times.
// ---------------------------------------------------------------------

#[test]
fn cyclic_large_pins() {
    let cp = generate_cyclic(&CyclicConfig::sized(1, 28));
    let got = run_list(&cp, DemandConfig::default(), 7);
    assert_eq!(got, [688907, 685059, 3848, 1331, 28, 3108, 1684]);
}
