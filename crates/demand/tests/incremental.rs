//! Differential testing for the incremental edit path: an engine stepped
//! through `reload_incremental` across a script of constraint edits must
//! give bit-identical answers — pts, ptb, and may-alias — to a fresh
//! full-invalidation engine and to the exhaustive oracle, at *every*
//! generation. The corpus mixes random, cyclic, and wide program shapes
//! so support sets are exercised over SCCs, long chains, and fan-out.

use ddpa_support::rng::Rng;

use ddpa_anders::naive;
use ddpa_constraints::{diff_programs, ConstraintBuilder, ConstraintProgram, NodeId};
use ddpa_demand::goal::Goal;
use ddpa_demand::{DemandConfig, DemandEngine};

/// One appended constraint: `(kind, a, b)` over var indices, where kind
/// 0 → a=&b, 1 → a=b, 2 → a=*b, 3 → *a=b, 4 → introduce a fresh var `w`
/// with `w = a` and `a = &w` (touches the id frontier), 5 → seed an
/// extra function pointer `a = &fK` (dirties indirect-call consumers),
/// 6 → append an indirect call `a(b)` with no result, 7 → append an
/// indirect call `a(b)` whose result flows into the var after `b` (both
/// change the indirect-callsite list).
type Edit = (u8, usize, usize);

/// A generatable base program plus an edit script. Every generation `g`
/// is the base with `edits[..g]` appended; the builder mints vars, then
/// funcs, then edit-born vars in script order, so node ids are stable
/// prefixes across generations (the property `diff_programs` keys on).
#[derive(Clone, Debug)]
struct Scripted {
    num_vars: usize,
    constraints: Vec<(u8, usize, usize)>,
    /// Function arities; each function also gets `ret ⊇ formal` wiring.
    funcs: Vec<usize>,
    /// Var indices seeded with `&fK` facts (round-robin over funcs).
    fp_seeds: Vec<usize>,
    /// (callee_fp_var, arg_var, want_ret) indirect call sites.
    icalls: Vec<(usize, usize, bool)>,
    edits: Vec<Edit>,
}

fn random_scripted(rng: &mut Rng) -> Scripted {
    let num_vars = rng.gen_range(3..12usize);
    let num_funcs = rng.gen_range(0..3usize);
    let constraints = (0..rng.gen_range(2..18usize))
        .map(|_| {
            (
                rng.gen_range(0..4u8),
                rng.gen_range(0..num_vars),
                rng.gen_range(0..num_vars),
            )
        })
        .collect();
    let funcs = (0..num_funcs).map(|_| rng.gen_range(0..2usize)).collect();
    let fp_seeds = (0..rng.gen_range(0..3usize))
        .map(|_| rng.gen_range(0..num_vars))
        .collect();
    let icalls = (0..rng.gen_range(0..2usize))
        .map(|_| {
            (
                rng.gen_range(0..num_vars),
                rng.gen_range(0..num_vars),
                rng.gen_bool(0.5),
            )
        })
        .collect();
    Scripted {
        num_vars,
        constraints,
        funcs,
        fp_seeds,
        icalls,
        edits: Vec::new(),
    }
}

/// Copy cycles with address-of facts hanging off them: edits inside one
/// SCC must dirty the merged representative's consumers and nothing in
/// disjoint cycles.
fn cyclic_scripted(rng: &mut Rng) -> Scripted {
    let cycles = rng.gen_range(2..4usize);
    let len = rng.gen_range(2..5usize);
    let num_vars = cycles * len;
    let mut constraints = Vec::new();
    for c in 0..cycles {
        let base = c * len;
        for i in 0..len {
            // v[base+i] = v[base + (i+1) % len]: one copy cycle per block.
            constraints.push((1u8, base + i, base + (i + 1) % len));
        }
        // Each cycle sources at least one object.
        constraints.push((0u8, base, (base + len / 2) % num_vars));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        constraints.push((
            rng.gen_range(0..4u8),
            rng.gen_range(0..num_vars),
            rng.gen_range(0..num_vars),
        ));
    }
    Scripted {
        num_vars,
        constraints,
        funcs: Vec::new(),
        fp_seeds: Vec::new(),
        icalls: Vec::new(),
        edits: Vec::new(),
    }
}

/// A hub with many spokes: `hub` collects objects, every spoke copies
/// from it. A single-constraint edit on one spoke must leave the other
/// spokes' fixpoints warm; an edit on the hub dirties all of them.
fn wide_scripted(rng: &mut Rng) -> Scripted {
    let spokes = rng.gen_range(6..12usize);
    let num_vars = spokes + 2; // hub = 0, objects parked at 1
    let mut constraints = vec![(0u8, 0, 1)];
    for s in 0..spokes {
        constraints.push((1u8, s + 2, 0)); // spoke = hub
    }
    for _ in 0..rng.gen_range(0..3usize) {
        constraints.push((0u8, rng.gen_range(0..num_vars), rng.gen_range(0..num_vars)));
    }
    Scripted {
        num_vars,
        constraints,
        funcs: Vec::new(),
        fp_seeds: Vec::new(),
        icalls: Vec::new(),
        edits: Vec::new(),
    }
}

fn random_edits(rng: &mut Rng, spec: &Scripted, count: usize) -> Vec<Edit> {
    (0..count)
        .map(|_| {
            let kind = if spec.funcs.is_empty() {
                rng.gen_range(0..5u8)
            } else {
                rng.gen_range(0..6u8)
            };
            (
                kind,
                rng.gen_range(0..spec.num_vars),
                rng.gen_range(0..spec.num_vars.max(spec.funcs.len())),
            )
        })
        .collect()
}

/// Builds generation `upto` of the script: base program plus
/// `edits[..upto]`, with a deterministic var/func/edit-var mint order.
fn build_gen(spec: &Scripted, upto: usize) -> ConstraintProgram {
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
    for &f in &funcs {
        let info = b.func_info(f).clone();
        for formal in info.formals {
            b.copy(info.ret, formal);
        }
    }
    for &(kind, x, y) in &spec.constraints {
        let (x, y) = (vars[x], vars[y]);
        match kind {
            0 => b.addr_of(x, y),
            1 => b.copy(x, y),
            2 => b.load(x, y),
            _ => b.store(x, y),
        };
    }
    if !funcs.is_empty() {
        for (i, &v) in spec.fp_seeds.iter().enumerate() {
            let obj = b.func_info(funcs[i % funcs.len()]).object;
            b.addr_of(vars[v], obj);
        }
    }
    for &(fp, arg, want_ret) in &spec.icalls {
        let args = vec![Some(vars[arg])];
        let ret = want_ret.then(|| vars[(arg + 1) % vars.len()]);
        b.call_indirect(vars[fp], args, ret);
    }
    for (e, &(kind, a, bi)) in spec.edits[..upto].iter().enumerate() {
        let (x, y) = (vars[a], vars[bi % spec.num_vars]);
        match kind {
            0 => {
                b.addr_of(x, y);
            }
            1 => {
                b.copy(x, y);
            }
            2 => {
                b.load(x, y);
            }
            3 => {
                b.store(x, y);
            }
            4 => {
                // Fresh var at the id frontier, wired into existing flow.
                let w = b.var(&format!("w{e}"));
                b.copy(w, x);
                b.addr_of(x, w);
            }
            5 => {
                let obj = b.func_info(funcs[bi % funcs.len()]).object;
                b.addr_of(x, obj);
            }
            6 => {
                b.call_indirect(x, vec![Some(y)], None);
            }
            _ => {
                let dst = vars[(bi + 1) % spec.num_vars];
                b.call_indirect(x, vec![Some(y)], Some(dst));
            }
        }
    }
    b.build()
}

/// Steps one engine through the whole edit script and checks every
/// generation against a cold engine and the oracle. Returns, per
/// generation, whether the incremental path ran (vs full fallback) and
/// how many goals it retained.
fn check_script(spec: &Scripted, case: usize) -> Vec<(bool, usize)> {
    let gens: Vec<ConstraintProgram> = (0..=spec.edits.len()).map(|g| build_gen(spec, g)).collect();
    let mut warm = DemandEngine::new(&gens[0], DemandConfig::default());
    let mut outcomes = Vec::new();
    for (g, cp) in gens.iter().enumerate() {
        if g > 0 {
            let diff = diff_programs(&gens[g - 1], cp);
            let stats = warm.reload_incremental(cp, &diff);
            assert!(
                diff.compatible,
                "case {case}: append-only edits keep node ids stable"
            );
            outcomes.push((!stats.full, stats.retained));
        }
        let oracle = naive::solve(cp);
        let mut cold = DemandEngine::new(cp, DemandConfig::default());
        for node in cp.node_ids() {
            let want = oracle.pts_nodes(node);
            let got = warm.points_to(node);
            assert!(got.complete, "case {case} gen {g}");
            assert_eq!(
                got.pts,
                want,
                "case {case} gen {g}: pts({}) diverged from the oracle",
                cp.display_node(node)
            );
            assert_eq!(
                cold.points_to(node).pts,
                want,
                "case {case} gen {g}: cold engine disagrees (oracle bug?)"
            );
        }
        for obj in cp.node_ids() {
            let want: Vec<NodeId> = cp
                .node_ids()
                .filter(|&w| oracle.points_to(w, obj))
                .collect();
            assert_eq!(
                warm.pointed_to_by(obj).pts,
                want,
                "case {case} gen {g}: ptb({}) diverged",
                cp.display_node(obj)
            );
        }
        // may-alias over a deterministic sample of pairs.
        let nodes: Vec<NodeId> = cp.node_ids().collect();
        for (i, &a) in nodes.iter().enumerate() {
            let bnode = nodes[(i * 7 + 3) % nodes.len()];
            let w = warm.may_alias(a, bnode);
            let c = cold.may_alias(a, bnode);
            assert!(w.resolved && c.resolved, "case {case} gen {g}");
            assert_eq!(
                w.may_alias,
                c.may_alias,
                "case {case} gen {g}: may_alias({}, {}) diverged",
                cp.display_node(a),
                cp.display_node(bnode)
            );
        }
    }
    outcomes
}

/// 128+ scripted programs across three shapes, 2–4 edits each: the
/// incrementally-stepped engine is bit-identical to cold engines and the
/// exhaustive oracle at every generation, and the corpus as a whole
/// takes the incremental path (retaining goals) often enough to prove
/// the support-set machinery is actually being exercised.
#[test]
fn edit_scripts_are_bit_identical_across_generations() {
    let mut rng = Rng::seed_from_u64(0x1ec_0001);
    let mut incremental_gens = 0usize;
    let mut retained_total = 0usize;
    let mut total_gens = 0usize;
    for case in 0..132 {
        let mut spec = match case % 3 {
            0 => random_scripted(&mut rng),
            1 => cyclic_scripted(&mut rng),
            _ => wide_scripted(&mut rng),
        };
        let count = rng.gen_range(2..5usize);
        spec.edits = random_edits(&mut rng, &spec, count);
        for (incremental, retained) in check_script(&spec, case) {
            total_gens += 1;
            if incremental {
                incremental_gens += 1;
                retained_total += retained;
            }
        }
    }
    assert!(total_gens >= 128 * 2, "scripts cover enough generations");
    assert_eq!(
        incremental_gens, total_gens,
        "append-only edits never fall back to full invalidation"
    );
    assert!(
        retained_total > 0,
        "the corpus retains warm goals across edits"
    );
}

/// Staged entries survive edits per-entry: an engine warm-started from
/// a snapshot of the old program and then edited answers correctly for
/// the new program. Surviving staged entries answer with zero work, and
/// dirtied ones are dropped and re-derived.
#[test]
fn staged_survivors_answer_for_the_new_program() {
    let mut rng = Rng::seed_from_u64(0x1ec_0002);
    let (mut survivor_hits, mut rederived_work) = (0u64, 0u64);
    for case in 0..48 {
        let mut spec = match case % 3 {
            0 => random_scripted(&mut rng),
            1 => cyclic_scripted(&mut rng),
            _ => wide_scripted(&mut rng),
        };
        spec.edits = random_edits(&mut rng, &spec, 1);
        let before = build_gen(&spec, 0);
        let after = build_gen(&spec, 1);
        let mut donor = DemandEngine::new(&before, DemandConfig::default());
        for node in before.node_ids() {
            let _ = donor.points_to(node);
        }
        let exported = donor.export_completed();
        let mut engine = DemandEngine::new(&before, DemandConfig::default());
        engine.warm_start(&exported);
        let diff = diff_programs(&before, &after);
        let stats = engine.reload_incremental(&after, &diff);
        assert!(!stats.full, "case {case}");
        assert_eq!(stats.invalidated + stats.retained, exported.len());
        let survivors: Vec<Goal> = engine.export_completed().iter().map(|&(g, _)| g).collect();
        assert_eq!(survivors.len(), stats.retained, "case {case}");

        let oracle = naive::solve(&after);
        for node in after.node_ids() {
            let got = engine.points_to(node);
            assert!(got.complete, "case {case}");
            assert_eq!(
                got.pts,
                oracle.pts_nodes(node),
                "case {case}: stale or missing staged entry for pts({})",
                after.display_node(node)
            );
            let goal = Goal::Pts(node);
            if survivors.contains(&goal) {
                assert_eq!(got.work, 0, "case {case}: a survivor answers for free");
            } else if exported.iter().any(|&(g, _)| g == goal) {
                rederived_work += got.work;
            }
        }
        survivor_hits += engine.stats().share_hits;
    }
    assert!(
        survivor_hits > 0,
        "some pre-edit fixpoints were served from the staged entries"
    );
    assert!(rederived_work > 0, "dirtied entries were re-derived");
}

/// Edits that append an indirect call site, with and without a result
/// destination, to a warmed engine: each changes the indirect-callsite
/// list, so every goal that waited on indirect callers is dirtied and the
/// engine's call-edge table is rebuilt with its memo table. Answers stay
/// equal to the oracle at every generation, and survivors stay warm.
#[test]
fn edits_appending_indirect_calls_stay_exact() {
    let mut rng = Rng::seed_from_u64(0x1ec_0003);
    let (mut appended, mut retained_total) = (0usize, 0usize);
    for case in 0..48 {
        let mut spec = random_scripted(&mut rng);
        // At least one unary function and one pointer to it, so call
        // sites have a callee to discover.
        spec.funcs.push(1);
        spec.fp_seeds.push(rng.gen_range(0..spec.num_vars));
        spec.edits = (0..rng.gen_range(2..5usize))
            .map(|i| {
                // Every other edit appends a call site; the rest move
                // points-to sets the existing sites read.
                let kind = if i % 2 == 0 {
                    rng.gen_range(6..8u8)
                } else {
                    rng.gen_range(0..6u8)
                };
                (
                    kind,
                    rng.gen_range(0..spec.num_vars),
                    rng.gen_range(0..spec.num_vars.max(spec.funcs.len())),
                )
            })
            .collect();
        appended += spec.edits.iter().filter(|e| e.0 >= 6).count();
        for (incremental, retained) in check_script(&spec, case) {
            assert!(incremental, "case {case}: appends stay incremental");
            retained_total += retained;
        }
    }
    assert!(appended >= 48, "every script appends a call site");
    assert!(retained_total > 0, "goals that read no call survive");
}
