//! Differential testing for the parallel scheduler: every worker count
//! and scheduling policy must produce answers bit-identical to the
//! sequential engine and to the exhaustive wave solver. Parallelism is
//! an execution strategy, never a semantics change — the deduction
//! rules are monotone, so the least fixpoint is unique no matter the
//! interleaving.
//!
//! Set `DDPA_SCHED_WORKERS` to raise (or lower) the maximum worker
//! count exercised; the default sweeps 1..=4.

use ddpa_constraints::{ConstraintBuilder, ConstraintProgram, NodeId};
use ddpa_demand::{DemandConfig, DemandEngine, SchedPolicy};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_wide, CyclicConfig, MiniCConfig, WideConfig,
};
use ddpa_support::rng::Rng;

const CASES: usize = 128;

/// Maximum worker count to sweep, from `DDPA_SCHED_WORKERS` (default 4).
fn max_workers() -> usize {
    std::env::var("DDPA_SCHED_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

/// Every (policy, workers) configuration the suite exercises, including
/// the plain sequential engine (`workers = 1` short-circuits to it).
fn configurations() -> Vec<(SchedPolicy, usize)> {
    let mut cfgs = vec![(SchedPolicy::Dfs, 1)];
    for w in 2..=max_workers() {
        cfgs.push((SchedPolicy::Dfs, w));
        cfgs.push((SchedPolicy::Bfs, w));
    }
    cfgs
}

/// A compact random program: raw pointer constraints over a small
/// variable pool, dense enough that load/store deduction and value
/// cycles appear regularly.
fn random_program(rng: &mut Rng) -> ConstraintProgram {
    let num_vars = rng.gen_range(3..16usize);
    let mut b = ConstraintBuilder::new();
    let vars: Vec<NodeId> = (0..num_vars).map(|i| b.var(&format!("v{i}"))).collect();
    for _ in 0..rng.gen_range(2..28usize) {
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

/// The exhaustive ptb relation: every node whose pts contains `obj`.
fn oracle_ptb(cp: &ConstraintProgram, oracle: &ddpa_anders::Solution, obj: NodeId) -> Vec<NodeId> {
    cp.node_ids()
        .filter(|&w| oracle.points_to(w, obj))
        .collect()
}

/// Asserts that `cp` answers identically under every configuration.
fn assert_all_configs_agree(cp: &ConstraintProgram, tag: &str) {
    let (oracle, _) = ddpa_anders::wave::solve(cp);
    for (policy, workers) in configurations() {
        let config = DemandConfig::default()
            .with_workers(workers)
            .with_sched_policy(policy);
        let mut engine = DemandEngine::new(cp, config);
        for node in cp.node_ids() {
            let got = engine.points_to(node);
            assert!(got.complete, "{tag}: {policy:?}x{workers} incomplete");
            assert_eq!(
                got.pts,
                oracle.pts_nodes(node),
                "{tag}: pts({}) diverges under {policy:?}x{workers}",
                cp.display_node(node)
            );
        }
    }
}

/// pts over random programs: sequential, DFS×1..N and BFS×2..N all
/// reproduce the wave solver's fixpoint exactly.
#[test]
fn parallel_pts_matches_wave_on_random_programs() {
    let mut rng = Rng::seed_from_u64(0x5ced_0001);
    for case in 0..CASES {
        let cp = random_program(&mut rng);
        assert_all_configs_agree(&cp, &format!("case {case}"));
    }
}

/// ptb and may-alias answers are likewise policy- and worker-invariant.
#[test]
fn parallel_ptb_and_alias_match_sequential() {
    let mut rng = Rng::seed_from_u64(0x5ced_0002);
    for case in 0..CASES / 2 {
        let cp = random_program(&mut rng);
        let (oracle, _) = ddpa_anders::wave::solve(&cp);
        let nodes: Vec<NodeId> = cp.node_ids().collect();
        for (policy, workers) in configurations() {
            let config = DemandConfig::default()
                .with_workers(workers)
                .with_sched_policy(policy);
            let mut engine = DemandEngine::new(&cp, config);
            for &obj in &nodes {
                let got = engine.pointed_to_by(obj);
                assert!(got.complete, "case {case}: {policy:?}x{workers}");
                assert_eq!(
                    got.pts,
                    oracle_ptb(&cp, &oracle, obj),
                    "case {case}: ptb({}) diverges under {policy:?}x{workers}",
                    cp.display_node(obj)
                );
            }
            for pair in nodes.windows(2) {
                let want = oracle
                    .pts_nodes(pair[0])
                    .iter()
                    .any(|o| oracle.points_to(pair[1], *o));
                let got = engine.may_alias(pair[0], pair[1]);
                assert!(got.resolved, "case {case}");
                assert_eq!(
                    got.may_alias, want,
                    "case {case}: alias diverges under {policy:?}x{workers}"
                );
            }
        }
    }
}

/// Cycle-dominated programs: online cycle collapsing runs inside worker
/// frames too, and the collapsed answers stay exact for every policy.
#[test]
fn parallel_matches_wave_on_cyclic_programs() {
    for (i, seed) in [3u64, 17, 41].into_iter().enumerate() {
        // `sized(seed, s)` builds `s` rings of `4·s` variables each.
        let cp = generate_cyclic(&CyclicConfig::sized(seed, 3 + 2 * i));
        assert_all_configs_agree(&cp, &format!("cyclic seed {seed}"));
    }
}

/// Wide programs (the T10 workload): maximal fan-out is where stealing
/// is busiest, and the merged hub answer must still be byte-for-byte
/// the sequential one.
#[test]
fn parallel_matches_wave_on_wide_programs() {
    for seed in [1u64, 9] {
        let cp = generate_wide(&WideConfig::sized(seed, 700));
        let (oracle, _) = ddpa_anders::wave::solve(&cp);
        let hub = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "hub")
            .expect("hub exists");
        for (policy, workers) in configurations() {
            let config = DemandConfig::default()
                .with_workers(workers)
                .with_sched_policy(policy);
            let mut engine = DemandEngine::new(&cp, config);
            let got = engine.points_to(hub);
            assert!(got.complete);
            assert_eq!(
                got.pts,
                oracle.pts_nodes(hub),
                "pts(hub) diverges under {policy:?}x{workers} (seed {seed})"
            );
        }
    }
}

/// Across add-constraints generations: after `reload` onto a grown
/// program, a parallel engine derives fresh fixpoints — never a stale
/// generation's — and still matches the wave solver on the new program,
/// as does a second parallel engine restored from its export.
#[test]
fn parallel_stays_exact_across_generations() {
    let mut rng = Rng::seed_from_u64(0x5ced_0003);
    let workers = max_workers();
    for case in 0..32 {
        // Generation 0: a base program, solved and published.
        let base = random_program(&mut rng);
        let config = DemandConfig::default()
            .with_workers(workers)
            .with_sched_policy(if case % 2 == 0 {
                SchedPolicy::Dfs
            } else {
                SchedPolicy::Bfs
            });
        let mut engine = DemandEngine::new(&base, config.clone());
        for node in base.node_ids() {
            let _ = engine.points_to(node);
        }

        // Generation 1: the same program plus extra constraints — the
        // serve `add` path reparses the grown text and reloads.
        let mut text = ddpa_constraints::print_constraints(&base);
        let n = base.node_ids().count();
        for _ in 0..rng.gen_range(1..6usize) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            match rng.gen_range(0..3u8) {
                0 => text.push_str(&format!("v{a} = &v{b}\n")),
                1 => text.push_str(&format!("v{a} = v{b}\n")),
                _ => text.push_str(&format!("v{a} = *v{b}\n")),
            }
        }
        let grown = ddpa_constraints::parse_constraints(&text).expect("grown program parses");
        let (oracle, _) = ddpa_anders::wave::solve(&grown);
        engine.reload(&grown);
        for node in grown.node_ids() {
            let got = engine.points_to(node);
            assert!(got.complete, "case {case}");
            assert_eq!(
                got.pts,
                oracle.pts_nodes(node),
                "case {case}: stale answer for pts({}) after reload",
                grown.display_node(node)
            );
        }
        // A second parallel engine restored from half of the first one's
        // export holds only current-generation entries; the scheduler
        // seeds its frames from them.
        let mut second = DemandEngine::new(&grown, config);
        second.warm_start(engine.export_completed().iter().step_by(2));
        for node in grown.node_ids() {
            assert_eq!(
                second.points_to(node).pts,
                oracle.pts_nodes(node),
                "case {case}: second engine after reload"
            );
        }
    }
}

/// On acyclic programs a fresh parallel run performs exactly the same
/// deduction steps as a fresh sequential run — each (goal, fact) pair
/// fires once no matter who fires it — so total work is identical, not
/// merely close.
#[test]
fn parallel_work_equals_sequential_on_fresh_tables() {
    for seed in [2u64, 13] {
        let cp = generate_wide(&WideConfig::sized(seed, 520));
        let hub = cp
            .node_ids()
            .find(|&n| cp.display_node(n) == "hub")
            .expect("hub exists");
        let mut seq = DemandEngine::new(&cp, DemandConfig::default());
        let want = seq.points_to(hub);
        for workers in 2..=max_workers() {
            let mut par = DemandEngine::new(&cp, DemandConfig::default().with_workers(workers));
            let got = par.points_to(hub);
            assert_eq!(
                got.pts, want.pts,
                "seed {seed}: answers at {workers} workers"
            );
            assert_eq!(
                got.work, want.work,
                "seed {seed}: duplicated or skipped deduction at {workers} workers"
            );
        }
    }
    // Servebench-sized MiniC: both evaluators discover indirect call
    // edges through their own call-edge table, in whatever order their
    // firings reach it, and every edge is wired once either way. `pts`
    // of dereferenced pointers exercises `[PARAM]`'s formal waiters,
    // `ptb` of address-taken objects rule (e)'s return waiters. The
    // sequential engine runs without cycle collapsing, which the frame
    // scheduler does not do.
    for seed in 1..=3u64 {
        let cp = ddpa_constraints::lower(&generate_minic(&MiniCConfig::sized(seed, 240)))
            .expect("generated MiniC lowers");
        let mut goals: Vec<(bool, NodeId)> = cp
            .loads()
            .iter()
            .map(|l| l.ptr)
            .chain(cp.stores().iter().map(|s| s.ptr))
            .step_by(40)
            .map(|n| (true, n))
            .collect();
        goals.extend(
            cp.node_ids()
                .filter(|&n| cp.is_address_taken(n))
                .step_by(40)
                .map(|n| (false, n)),
        );
        let (mut work, mut calls) = (0, 0);
        for (pts, n) in goals {
            let ask = |config: DemandConfig| {
                let mut engine = DemandEngine::new(&cp, config);
                let result = if pts {
                    engine.points_to(n)
                } else {
                    engine.pointed_to_by(n)
                };
                (result, engine.obs().counter("demand.fires.dispatch").get())
            };
            let (want, _) = ask(DemandConfig::default().without_cycle_collapsing());
            let (got, dispatched) = ask(DemandConfig::default().with_workers(2));
            let what = format!("seed {seed}: {} of {}", ["ptb", "pts"][pts as usize], n);
            assert_eq!(got.pts, want.pts, "{what}: answers at 2 workers");
            assert_eq!(got.work, want.work, "{what}: work at 2 workers");
            work += got.work;
            calls += dispatched;
        }
        assert!(
            work > 0 && calls > 0,
            "seed {seed}: the queries reach calls"
        );
    }
}
