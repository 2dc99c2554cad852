//! Wakeup stress for the frame scheduler: idle workers wait with no
//! timeout, so a lost wakeup is a hang rather than a 1 ms stall. Thousands
//! of small solves at 2–4 workers make workers sleep and wake constantly;
//! a watchdog fails the test if they do not all finish before a fixed
//! deadline, and every answer must equal the sequential engine's.

use std::sync::mpsc;
use std::time::Duration;

use ddpa_constraints::{ConstraintBuilder, ConstraintProgram, NodeId};
use ddpa_demand::goal::Goal;
use ddpa_demand::{DemandConfig, DemandEngine, SchedPolicy, Scheduler};
use ddpa_gen::{generate_cyclic, generate_wide, CyclicConfig, WideConfig};
use ddpa_support::rng::Rng;

/// Minimum number of `Scheduler::solve` calls.
const SOLVES: usize = 2_000;

/// Far above the suite's normal run time; only a hang reaches it.
const DEADLINE: Duration = Duration::from_secs(30);

/// A small random program over `v0..vK`, as in the differential suite.
fn random_program(rng: &mut Rng) -> ConstraintProgram {
    let num_vars = rng.gen_range(3..12usize);
    let mut b = ConstraintBuilder::new();
    let vars: Vec<NodeId> = (0..num_vars).map(|i| b.var(&format!("v{i}"))).collect();
    for _ in 0..rng.gen_range(2..20usize) {
        let x = vars[rng.gen_range(0..num_vars)];
        let y = vars[rng.gen_range(0..num_vars)];
        match rng.gen_range(0..4u8) {
            0 => b.addr_of(x, y),
            1 => b.copy(x, y),
            2 => b.load(x, y),
            _ => b.store(x, y),
        };
    }
    b.build()
}

/// The `i`-th program: random, cyclic or wide in turn.
fn program(i: u64, rng: &mut Rng) -> ConstraintProgram {
    match i % 3 {
        0 => random_program(rng),
        1 => generate_cyclic(&CyclicConfig::sized(i, 2)),
        _ => generate_wide(&WideConfig::sized(i, 60 + (i % 5) as usize * 26)),
    }
}

/// Solves up to eight goals of each program with a fresh scheduler per
/// goal and checks each answer against a sequential engine. Returns the
/// number of solves.
fn stress() -> usize {
    let mut rng = Rng::seed_from_u64(0x51ee_9e25);
    let mut solves = 0;
    let mut i = 0u64;
    while solves < SOLVES {
        let cp = program(i, &mut rng);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        let workers = 2 + (i % 3) as usize;
        let policy = if i.is_multiple_of(2) {
            SchedPolicy::Dfs
        } else {
            SchedPolicy::Bfs
        };
        let config = DemandConfig::default()
            .with_workers(workers)
            .with_sched_policy(policy);
        let sched = Scheduler::new(&cp, config);
        let nodes: Vec<NodeId> = cp.node_ids().collect();
        for _ in 0..8 {
            let n = nodes[rng.gen_range(0..nodes.len())];
            let (goal, want) = if rng.gen_range(0..2u8) == 0 {
                (Goal::Pts(n), engine.points_to(n).pts)
            } else {
                (Goal::Ptb(n), engine.pointed_to_by(n).pts)
            };
            let got = sched.solve(goal);
            assert_eq!(
                got.pts, want,
                "program {i}: {goal:?} under {policy:?}x{workers}"
            );
            solves += 1;
        }
        i += 1;
    }
    solves
}

#[test]
fn no_lost_wakeups_under_a_watchdog() {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let solves = stress();
        let _ = tx.send(solves);
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(solves) => assert!(solves >= SOLVES),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("scheduler solves still running after {DEADLINE:?}: a lost wakeup")
        }
        // The runner panicked (a wrong answer); re-raise its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(e) = runner.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}
