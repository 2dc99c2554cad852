//! Differential testing: the demand engine must agree exactly with the
//! exhaustive analysis on every query it resolves, for arbitrary constraint
//! programs (the paper's precision claim). Specs are drawn from a seeded
//! RNG so every run replays the same corpus.

use ddpa_support::rng::Rng;

use ddpa_anders::naive;
use ddpa_constraints::{ConstraintBuilder, ConstraintProgram, NodeId};
use ddpa_demand::goal::Goal;
use ddpa_demand::{DemandConfig, DemandEngine};

const CASES: usize = 256;

/// A generatable constraint-program description.
#[derive(Clone, Debug)]
struct Spec {
    num_vars: usize,
    /// (kind, a, b): kind 0 → a=&b, 1 → a=b, 2 → a=*b, 3 → *a=b.
    constraints: Vec<(u8, usize, usize)>,
    /// Function arities (each function gets `ret = arg0` wiring when unary).
    funcs: Vec<usize>,
    /// (func_index, take_address): seed `fpK = &func` facts.
    fp_seeds: Vec<usize>,
    /// (callee_fp_var, arg_var, want_ret): indirect call sites.
    icalls: Vec<(usize, usize, bool)>,
    /// (func_index, arg_var, want_ret): direct call sites.
    dcalls: Vec<(usize, usize, bool)>,
    /// (parent_var, field): field-node declarations.
    field_decls: Vec<(usize, u32)>,
    /// (dst_var, base_var, field): `dst = &base->field` constraints.
    field_addrs: Vec<(usize, usize, u32)>,
}

fn random_spec(rng: &mut Rng) -> Spec {
    let num_vars = rng.gen_range(2..14usize);
    let num_funcs = rng.gen_range(0..3usize);
    let constraints = (0..rng.gen_range(0..24usize))
        .map(|_| {
            (
                rng.gen_range(0..4u8),
                rng.gen_range(0..num_vars),
                rng.gen_range(0..num_vars),
            )
        })
        .collect();
    let funcs = (0..num_funcs).map(|_| rng.gen_range(0..3usize)).collect();
    let fp_seeds = (0..rng.gen_range(0..3usize))
        .map(|_| rng.gen_range(0..num_funcs.max(1)))
        .collect();
    let icalls = (0..rng.gen_range(0..3usize))
        .map(|_| {
            (
                rng.gen_range(0..num_vars),
                rng.gen_range(0..num_vars),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    let dcalls = (0..rng.gen_range(0..3usize))
        .map(|_| {
            (
                rng.gen_range(0..num_funcs.max(1)),
                rng.gen_range(0..num_vars),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    let field_decls = (0..rng.gen_range(0..4usize))
        .map(|_| (rng.gen_range(0..num_vars), rng.gen_range(0u32..3)))
        .collect();
    let field_addrs = (0..rng.gen_range(0..4usize))
        .map(|_| {
            (
                rng.gen_range(0..num_vars),
                rng.gen_range(0..num_vars),
                rng.gen_range(0u32..3),
            )
        })
        .collect();
    Spec {
        num_vars,
        constraints,
        funcs,
        fp_seeds,
        icalls,
        dcalls,
        field_decls,
        field_addrs,
    }
}

fn build(spec: &Spec) -> ConstraintProgram {
    let mut b = ConstraintBuilder::new();
    let vars: Vec<NodeId> = (0..spec.num_vars)
        .map(|i| b.var(&format!("v{i}")))
        .collect();
    let funcs: Vec<_> = spec
        .funcs
        .iter()
        .enumerate()
        .map(|(i, &arity)| b.func(&format!("f{i}"), arity))
        .collect();
    // Give each function some internal flow: ret ⊇ each formal.
    for &f in &funcs {
        let info = b.func_info(f).clone();
        for formal in info.formals {
            b.copy(info.ret, formal);
        }
    }
    for (kind, x, y) in &spec.constraints {
        let (x, y) = (vars[*x], vars[*y]);
        match kind {
            0 => b.addr_of(x, y),
            1 => b.copy(x, y),
            2 => b.load(x, y),
            _ => b.store(x, y),
        };
    }
    if !funcs.is_empty() {
        for (i, &fi) in spec.fp_seeds.iter().enumerate() {
            let obj = b.func_info(funcs[fi % funcs.len()]).object;
            let fp = vars[i % vars.len()];
            b.addr_of(fp, obj);
        }
        for &(fi, arg, want_ret) in &spec.dcalls {
            let f = funcs[fi % funcs.len()];
            let arity = b.func_info(f).formals.len();
            let args = (0..arity).map(|_| Some(vars[arg])).collect();
            let ret = want_ret.then(|| vars[(arg + 1) % vars.len()]);
            b.call_direct(f, args, ret);
        }
    }
    for &(fp, arg, want_ret) in &spec.icalls {
        let args = vec![Some(vars[arg])];
        let ret = want_ret.then(|| vars[(arg + 1) % vars.len()]);
        b.call_indirect(vars[fp], args, ret);
    }
    for &(parent, field) in &spec.field_decls {
        b.field_node(vars[parent], field);
    }
    for &(dst, base, field) in &spec.field_addrs {
        b.field_addr(vars[dst], vars[base], field);
    }
    b.build()
}

/// pts(v) computed on demand equals the exhaustive answer, ∀v — and
/// all three exhaustive solvers agree with each other.
#[test]
fn demand_pts_equals_exhaustive() {
    let mut rng = Rng::seed_from_u64(0xd1f_0001);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let cp = build(&spec);
        let oracle = naive::solve(&cp);
        let (wave, _) = ddpa_anders::wave::solve(&cp);
        let (worklist, _) =
            ddpa_anders::worklist::solve(&cp, &ddpa_anders::SolverConfig::default());
        for node in cp.node_ids() {
            assert_eq!(wave.pts_nodes(node), oracle.pts_nodes(node), "case {case}");
            assert_eq!(
                worklist.pts_nodes(node),
                oracle.pts_nodes(node),
                "case {case}"
            );
        }
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        for node in cp.node_ids() {
            let got = engine.points_to(node);
            assert!(got.complete, "case {case}");
            let want = oracle.pts_nodes(node);
            assert_eq!(
                &got.pts,
                &want,
                "case {case}: pts({}) mismatch",
                cp.display_node(node)
            );
        }
    }
}

/// ptb(o) computed on demand equals the exhaustive inverse relation.
#[test]
fn demand_ptb_matches_inverse() {
    let mut rng = Rng::seed_from_u64(0xd1f_0002);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let cp = build(&spec);
        let oracle = naive::solve(&cp);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        for obj in cp.node_ids() {
            let got = engine.pointed_to_by(obj);
            assert!(got.complete, "case {case}");
            let want: Vec<NodeId> = cp
                .node_ids()
                .filter(|&w| oracle.points_to(w, obj))
                .collect();
            assert_eq!(
                &got.pts,
                &want,
                "case {case}: ptb({}) mismatch",
                cp.display_node(obj)
            );
        }
    }
}

/// Partial (budgeted) answers never exceed the full answer, and caching
/// off gives the same answers as caching on.
#[test]
fn budget_partial_is_subset_and_caching_is_transparent() {
    let mut rng = Rng::seed_from_u64(0xd1f_0003);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let budget = rng.gen_range(1u64..60);
        let cp = build(&spec);
        let oracle = naive::solve(&cp);
        let mut cached = DemandEngine::new(&cp, DemandConfig::default());
        let mut uncached = DemandEngine::new(&cp, DemandConfig::default().without_caching());
        for node in cp.node_ids() {
            let full: Vec<NodeId> = oracle.pts_nodes(node);
            let mut partial_engine =
                DemandEngine::new(&cp, DemandConfig::default().with_budget(budget));
            let partial = partial_engine.points_to(node);
            for n in &partial.pts {
                assert!(full.contains(n), "case {case}: partial exceeds full");
            }
            if partial.complete {
                assert_eq!(&partial.pts, &full, "case {case}");
            }
            assert_eq!(cached.points_to(node).pts, full.clone(), "case {case}");
            assert_eq!(uncached.points_to(node).pts, full, "case {case}");
        }
    }
}

/// Call targets resolved on demand match the exhaustive call graph.
#[test]
fn call_targets_match_exhaustive() {
    let mut rng = Rng::seed_from_u64(0xd1f_0004);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let cp = build(&spec);
        let oracle = naive::solve(&cp);
        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        for cs in cp.callsites().indices() {
            let got = engine.call_targets(cs);
            assert!(got.resolved, "case {case}");
            assert_eq!(
                got.targets.as_slice(),
                oracle.call_targets(cs),
                "case {case}: targets of callsite {cs:?} mismatch"
            );
        }
    }
}

/// Snapshot restore is transparent and lazy: an engine warm-started
/// from another's export (round-tripped through the snapshot bytes)
/// gives bit-identical answers to the naive oracle, with zero work for
/// every exported goal. Before its first query the restored engine
/// exports exactly what the donor did, and `reload` drops the staged
/// entries.
#[test]
fn snapshot_restore_is_transparent_and_lazy() {
    let mut rng = Rng::seed_from_u64(0xd1f_0005);
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let (cp, text) = ddpa_constraints::canonicalize(build(&spec), None).expect("reparses");
        let oracle = naive::solve(&cp);
        // The donor answers a random half of the pts and ptb queries.
        let mut donor = DemandEngine::new(&cp, DemandConfig::default());
        for node in cp.node_ids() {
            if rng.gen_bool(0.5) {
                let _ = donor.points_to(node);
            }
            if rng.gen_bool(0.5) {
                let _ = donor.pointed_to_by(node);
            }
        }
        let exported = donor.export_completed();
        let snapshot = ddpa_snap::Snapshot::capture(&donor, text);
        let restored = ddpa_snap::Snapshot::from_bytes(&snapshot.to_bytes()).expect("decodes");
        assert_eq!(restored.entries, exported, "case {case}: bytes round-trip");

        let mut engine = DemandEngine::new(&cp, DemandConfig::default());
        assert_eq!(engine.warm_start(&restored.entries), exported.len());
        assert_eq!(engine.tabled_goals(), 0, "case {case}: restore is lazy");
        assert_eq!(
            engine.export_completed(),
            exported,
            "case {case}: a restored engine exports what its donor did"
        );
        let exported_goal = |goal: Goal| exported.iter().any(|(g, _)| *g == goal);
        for node in cp.node_ids() {
            let got = engine.points_to(node);
            assert!(got.complete, "case {case}");
            assert_eq!(got.pts, oracle.pts_nodes(node), "case {case}: pts");
            if exported_goal(Goal::Pts(node)) {
                assert_eq!(got.work, 0, "case {case}: restored pts costs no work");
            }
            let got = engine.pointed_to_by(node);
            let want: Vec<NodeId> = cp
                .node_ids()
                .filter(|&w| oracle.points_to(w, node))
                .collect();
            assert_eq!(got.pts, want, "case {case}: ptb");
            if exported_goal(Goal::Ptb(node)) {
                assert_eq!(got.work, 0, "case {case}: restored ptb costs no work");
            }
        }
        let stats = engine.stats();
        assert!(
            stats.share_hits <= exported.len() as u64,
            "case {case}: each staged entry answers at most once"
        );

        // `reload` drops whatever is still staged.
        let mut fresh = DemandEngine::new(&cp, DemandConfig::default());
        fresh.warm_start(&restored.entries);
        fresh.reload(&cp);
        assert!(
            fresh.export_completed().is_empty(),
            "case {case}: reload drops staged entries"
        );
        for node in cp.node_ids() {
            assert_eq!(fresh.points_to(node).pts, oracle.pts_nodes(node));
        }
    }
}
