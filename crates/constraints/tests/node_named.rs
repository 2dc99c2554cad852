//! The name resolver against the name index it replaced.
//!
//! `ConstraintProgram::node_named` must find, for every display name,
//! the node a display-name → node map filled in id order finds: the last
//! node with that name. The oracle is that map, built here the way the
//! server's session built it, over canonical and lowered MiniC, cyclic,
//! wide and random programs, programs grown by appended edits, a program
//! after a failed edit was rolled back, and hand-built programs whose
//! nodes share display names.

use std::collections::HashMap;

use ddpa_constraints::{
    append_constraints, canonicalize, lower, parse_constraints, print_constraints,
    ConstraintBuilder, ConstraintProgram, NodeId,
};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};

/// The old session index: display name → node, later nodes winning.
fn old_index(cp: &ConstraintProgram) -> HashMap<String, NodeId> {
    let mut names = HashMap::new();
    for n in cp.node_ids() {
        names.insert(cp.display_node(n), n);
    }
    names
}

/// Checks every display name of `cp`, and a few near misses, against the
/// old index. Returns how many names several nodes share.
fn check(cp: &ConstraintProgram, label: &str) -> usize {
    let index = old_index(cp);
    for n in cp.node_ids() {
        let name = cp.display_node(n);
        assert_eq!(
            cp.node_named(&name),
            Some(index[&name]),
            "{label}: {name:?}"
        );
        for miss in [
            format!("{name}x"),
            format!("{name}.f99999"),
            format!("{name}0"),
        ] {
            assert_eq!(
                cp.node_named(&miss),
                index.get(&miss).copied(),
                "{label}: {miss:?}"
            );
        }
    }
    for miss in [
        "", "%t", "%t01", "@heap", "@fn_", "::ret", "::arg0", ".f0", "x.f",
    ] {
        assert_eq!(
            cp.node_named(miss),
            index.get(miss).copied(),
            "{label}: {miss:?}"
        );
    }
    cp.num_nodes() - index.len()
}

fn canonical(cp: ConstraintProgram) -> ConstraintProgram {
    canonicalize(cp, None).expect("the printout parses").0
}

#[test]
fn minic_programs_resolve_as_the_old_index() {
    for (seed, funcs) in [(1, 6), (15, 8), (7, 30)] {
        let lowered = lower(&generate_minic(&MiniCConfig::sized(seed, funcs))).expect("lowers");
        check(&lowered, &format!("lowered minic {seed}"));
        check(&canonical(lowered), &format!("canonical minic {seed}"));
    }
}

#[test]
fn generated_programs_resolve_as_the_old_index() {
    for seed in 1..4 {
        let cyclic = generate_cyclic(&CyclicConfig::sized(seed, 12));
        check(&cyclic, &format!("cyclic {seed}"));
        check(&canonical(cyclic), &format!("canonical cyclic {seed}"));
        let wide = generate_wide(&WideConfig::sized(seed, 300));
        check(&wide, &format!("wide {seed}"));
        check(&canonical(wide), &format!("canonical wide {seed}"));
        let random = generate_random(&RandomConfig::sized(seed, 400));
        check(&random, &format!("random {seed}"));
        check(&canonical(random), &format!("canonical random {seed}"));
    }
}

#[test]
fn appends_and_a_rolled_back_append_resolve_as_the_old_index() {
    let text =
        print_constraints(&lower(&generate_minic(&MiniCConfig::sized(3, 6))).expect("lowers"));
    let mut cp = parse_constraints(&text).expect("parses");
    let mut lines = text.lines().count();
    let funcs: Vec<String> = cp
        .funcs()
        .iter()
        .map(|f| cp.interner().resolve(f.name).to_owned())
        .collect();
    // Variables named like function objects, slots and fields, and plain
    // new ones.
    let edit = format!(
        "fresh = &@fn_{f}\n@fn_{f} = fresh\nq.f0 = &fresh\nv%t0 = {f}::ret\n",
        f = funcs[0]
    );
    append_constraints(&mut cp, &edit, lines).expect("appends");
    lines += edit.lines().count();
    assert!(check(&cp, "after an append") > 0, "the edit shadows `@fn_`");
    let shadowed = cp.node_named(&format!("@fn_{}", funcs[0])).expect("named");
    assert!(
        cp.node(shadowed).as_func().is_none(),
        "the later variable wins"
    );

    let before = (cp.num_nodes(), cp.interner().len());
    let err = append_constraints(&mut cp, "ghost = &spirit\nbroken line\n", lines)
        .expect_err("malformed");
    assert_eq!(err.line, lines + 2);
    assert_eq!((cp.num_nodes(), cp.interner().len()), before);
    assert_eq!(cp.node_named("ghost"), None, "rolled back");
    assert_eq!(cp.node_named("spirit"), None, "rolled back");
    check(&cp, "after a rolled-back append");
    append_constraints(&mut cp, "ghost = &spirit\n", lines).expect("appends");
    check(&cp, "after the append that followed");
}

#[test]
fn shared_display_names_resolve_to_the_later_node() {
    let mut b = ConstraintBuilder::new();
    let early = b.var("@fn_f");
    let f = b.func("f", 2);
    let info = b.func_info(f).clone();
    let late_slot = b.var("f::arg1");
    // `@fn_f::ret` is `@fn_f`'s return slot and `f::ret`'s object.
    let g = b.func("@fn_f", 0);
    let (g_obj, g_ret) = (b.func_info(g).object, b.func_info(g).ret);
    let h = b.func("f::ret", 0);
    let (h_obj, h_ret) = (b.func_info(h).object, b.func_info(h).ret);
    let temp = b.temp();
    let temp_var = b.var("%t0");
    let heap_var = b.var("@heap0");
    let heap = b.heap();
    let x = b.var("x");
    let x0 = b.field_node(x, 0);
    let x00 = b.field_node(x0, 0);
    let x0_var = b.var("x.f0");
    let x0_var0 = b.field_node(x0_var, 0);
    let obj0 = b.field_node(info.object, 7);
    let early0 = b.field_node(early, 7);
    let cp = b.build();

    let expect = [
        ("@fn_f", info.object),
        ("f::arg0", info.formals[0]),
        ("f::arg1", late_slot),
        ("f::ret", info.ret),
        ("@fn_f::ret", h_obj),
        ("@fn_@fn_f", g_obj),
        ("f::ret::ret", h_ret),
        ("%t0", temp_var),
        ("@heap0", heap),
        ("x.f0", x0_var),
        ("x.f0.f0", x0_var0),
        ("@fn_f.f7", early0),
    ];
    for (name, node) in expect {
        assert_eq!(cp.node_named(name), Some(node), "{name}");
    }
    let shadowed = [
        (temp, "%t0"),
        (heap_var, "@heap0"),
        (x00, "x.f0.f0"),
        (obj0, "@fn_f.f7"),
        (g_ret, "@fn_f::ret"),
    ];
    for (node, name) in shadowed {
        assert_eq!(cp.display_node(node), name, "a shadowed node");
    }
    assert_eq!(check(&cp, "shared names"), 8);
}

#[test]
fn more_nodes_than_the_inline_buffer_share_a_name() {
    // Three nodes are named `@fn_a::ret`: a variable, `a::ret`'s object
    // and `@fn_a`'s return slot. Their fields, a variable and a
    // function's object make five named `@fn_a::ret.f0`.
    let mut b = ConstraintBuilder::new();
    let var = b.var("@fn_a::ret");
    let a = b.func("a::ret", 0);
    let obj = b.func_info(a).object;
    let fn_a = b.func("@fn_a", 0);
    let ret = b.func_info(fn_a).ret;
    let fields: Vec<NodeId> = [ret, var, obj].map(|p| b.field_node(p, 0)).into();
    b.var("@fn_a::ret.f0");
    let a_f0 = b.func("a::ret.f0", 0);
    let last = b.func_info(a_f0).object;
    let cp = b.build();
    assert!(fields.iter().all(|&f| f < last));
    assert_eq!(cp.node_named("@fn_a::ret.f0"), Some(last));
    assert_eq!(check(&cp, "five alike"), 6);
}

#[test]
fn deep_field_chains_resolve_without_recursion() {
    let mut b = ConstraintBuilder::new();
    let mut node = b.var("root");
    for depth in 0..2_000 {
        node = b.field_node(node, depth % 3);
    }
    let cp = b.build();
    let name = cp.display_node(node);
    let resolved = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let long = format!("{name}.f1");
            (cp.node_named(&name), cp.node_named(&long))
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");
    assert_eq!(resolved, (Some(node), None));
}
