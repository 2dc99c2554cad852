//! Explanations are real derivations. For every dereferenced pointer `v`
//! and every `o` in the exhaustive solver's `pts(v)`,
//! [`explain_points_to`] returns a chain in which each rule step is
//! produced by its watcher into that step's goal, reads the next step as
//! its premise, states a true fact, and the last step is a base fact
//! backed by an address-of row of the program. A false fact has no
//! explanation.

use ddpa_anders::Solution;
use ddpa_constraints::{ConstraintProgram, NodeId, NodeKind};
use ddpa_demand::goal::Goal;
use ddpa_demand::{explain_points_to, Explanation, Origin};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};
use ddpa_support::rng::Rng;

/// Whether the exhaustive solution holds the fact `elem ∈ goal`.
fn holds(wave: &Solution, goal: Goal, elem: u32) -> bool {
    let elem = NodeId::from_u32(elem);
    match goal {
        Goal::Pts(x) => wave.points_to(x, elem),
        Goal::Ptb(o) => wave.points_to(elem, o),
    }
}

/// Checks that `e` derives `o ∈ pts(v)` step by step.
fn check_chain(cp: &ConstraintProgram, wave: &Solution, e: &Explanation, v: NodeId, o: NodeId) {
    let name = |n: NodeId| cp.display_node(n);
    let fact = format!("{} ∈ pts({})", name(o), name(v));
    let first = e.steps.first().expect("a chain has a step");
    assert_eq!(
        (first.goal, first.elem),
        (Goal::Pts(v), o.as_u32()),
        "{fact}"
    );
    for step in &e.steps {
        assert!(
            holds(wave, step.goal, step.elem),
            "{fact}: false step {step:?}"
        );
    }
    for pair in e.steps.windows(2) {
        let Origin::Rule { watcher, src, elem } = pair[0].origin else {
            panic!("{fact}: a base fact before the end: {:?}", pair[0]);
        };
        assert_eq!(watcher.consumer(), pair[0].goal, "{fact}: {:?}", pair[0]);
        assert_eq!((src, elem), (pair[1].goal, pair[1].elem), "{fact}");
    }
    let last = e.steps.last().expect("nonempty");
    assert_eq!(last.origin, Origin::Base, "{fact}");
    let backed = match last.goal {
        // x = &o
        Goal::Pts(x) => cp.addr_objs_of(x).contains(&NodeId::from_u32(last.elem)),
        // elem = &o
        Goal::Ptb(obj) => cp.addr_dsts_of(obj).contains(&NodeId::from_u32(last.elem)),
    };
    assert!(backed, "{fact}: base step {last:?} has no address-of row");
}

/// Explains every fact of every pointer in `pointers`, and one false fact
/// per pointer. Returns how many facts were explained.
fn assert_explains(cp: &ConstraintProgram, pointers: &[NodeId], tag: &str) -> usize {
    let (wave, _) = ddpa_anders::wave::solve(cp);
    let mut explained = 0;
    for &v in pointers {
        let pts = wave.pts_nodes(v);
        for &o in &pts {
            let e = explain_points_to(cp, v, o).unwrap_or_else(|| {
                panic!(
                    "{tag}: no explanation for {} ∈ pts({})",
                    cp.display_node(o),
                    cp.display_node(v)
                )
            });
            check_chain(cp, &wave, &e, v, o);
            explained += 1;
        }
        if let Some(absent) = cp.node_ids().find(|n| !pts.contains(n)) {
            assert!(
                explain_points_to(cp, v, absent).is_none(),
                "{tag}: {} ∉ pts({}) was explained",
                cp.display_node(absent),
                cp.display_node(v)
            );
        }
    }
    explained
}

/// [`assert_explains`] over the dereferenced pointers of `cp`, or over
/// every node when nothing is dereferenced (the cyclic and wide shapes).
fn assert_explains_fully(cp: &ConstraintProgram, tag: &str) -> usize {
    let mut pointers = cp.deref_pointers();
    if pointers.is_empty() {
        pointers = cp.node_ids().collect();
    }
    assert_explains(cp, &pointers, tag)
}

#[test]
fn random_programs_explain_fully() {
    let mut total = 0;
    for seed in 0..4 {
        let cp = generate_random(&RandomConfig::sized(0xe1a0 + seed, 120));
        total += assert_explains_fully(&cp, &format!("random {seed}"));
    }
    assert!(total > 0, "the corpus has facts to explain");
}

#[test]
fn cyclic_programs_explain_fully() {
    let mut total = 0;
    for seed in 0..3 {
        let cp = generate_cyclic(&CyclicConfig::sized(0xe1a1 + seed, 3));
        total += assert_explains_fully(&cp, &format!("cyclic {seed}"));
    }
    // Random programs with forced copy rings: the shape a default engine
    // collapses.
    let mut rng = Rng::seed_from_u64(0xe1a2);
    for case in 0..3 {
        let seed = rng.gen_range(0..u32::MAX as u64);
        let config = RandomConfig::sized(seed, 100).with_copy_cycles(3, 8);
        total += assert_explains_fully(&generate_random(&config), &format!("rings {case}"));
    }
    assert!(total > 0, "the corpus has facts to explain");
}

#[test]
fn minic_programs_explain_fully() {
    let mut total = 0;
    for seed in 0..3 {
        let program = generate_minic(&MiniCConfig::sized(0xe1a3 + seed, 12));
        let cp = ddpa_constraints::lower(&program).expect("generated MiniC lowers");
        total += assert_explains_fully(&cp, &format!("minic {seed}"));
    }
    assert!(total > 0, "the corpus has facts to explain");
}

#[test]
fn wide_programs_explain_fully() {
    let mut total = 0;
    for seed in 0..2 {
        let cp = generate_wide(&WideConfig::sized(0xe1a4 + seed, 130));
        total += assert_explains_fully(&cp, &format!("wide {seed}"));
    }
    assert!(total > 0, "the corpus has facts to explain");
}

#[test]
fn cycles_sample_explains_fully() {
    let text = include_str!("../../../samples/cycles.cons");
    let cp = ddpa_constraints::parse_constraints(text).expect("sample parses");
    assert!(assert_explains_fully(&cp, "cycles.cons") > 0);
    let every: Vec<NodeId> = cp.node_ids().collect();
    assert!(assert_explains(&cp, &every, "cycles.cons") > 0);
    // Every link of the ring is its own step: r39 ← r38 ← … ← r0 = &obj.
    let find = |name: &str| {
        cp.node_ids()
            .find(|&n| cp.display_node(n) == name)
            .expect("node")
    };
    let e = explain_points_to(&cp, find("r39"), find("obj")).expect("obj ∈ pts(r39)");
    assert_eq!(e.steps.len(), 40);
}

#[test]
fn grown_programs_explain_fully() {
    let mut rng = Rng::seed_from_u64(0xe1a5);
    let bases = [
        generate_random(&RandomConfig::sized(0xe1a6, 100).with_copy_cycles(2, 8)),
        generate_cyclic(&CyclicConfig::sized(0xe1a7, 2)),
    ];
    for (case, base) in bases.iter().enumerate() {
        let text = ddpa_constraints::print_constraints(base);
        let mut cp = ddpa_constraints::parse_constraints(&text).expect("printout parses");
        let nodes: Vec<String> = cp
            .node_ids()
            .filter(|&n| matches!(cp.node(n).kind, NodeKind::Var { .. }))
            .map(|n| cp.display_node(n))
            .collect();
        let mut edit = String::new();
        for _ in 0..8 {
            let a = &nodes[rng.gen_range(0..nodes.len())];
            let b = &nodes[rng.gen_range(0..nodes.len())];
            match rng.gen_range(0..4u8) {
                0 => edit.push_str(&format!("{a} = &{b}\n")),
                1 => edit.push_str(&format!("{a} = {b}\n")),
                2 => edit.push_str(&format!("{a} = *{b}\n")),
                _ => edit.push_str(&format!("*{a} = {b}\n")),
            }
        }
        ddpa_constraints::append_constraints(&mut cp, &edit, text.lines().count())
            .expect("the edit appends");
        assert!(assert_explains_fully(&cp, &format!("grown {case}")) > 0);
    }
}
