//! Append equivalence: appending an edit to a parsed program must give
//! exactly the program parsed from the combined text, and the diff read
//! off the appended lines must equal the whole-program diff.
//!
//! Seeded edit scripts run over MiniC-lowered, random and cyclic
//! programs. Each edit mixes every constraint-line form with new names,
//! comments and blank lines; some edits end in a malformed line or
//! declare a function, and must fail exactly as the full parse does (or
//! be refused) while leaving the program untouched.

use ddpa_constraints::{
    append_constraints, diff_programs, has_declarations, lower, parse_constraints,
    print_constraints, ConstraintProgram, TextError,
};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, CyclicConfig, MiniCConfig, RandomConfig,
};
use ddpa_support::Rng;

/// Asserts that two programs are the same: node ids and names, every
/// index row, call sites and printed text.
fn assert_same(a: &ConstraintProgram, b: &ConstraintProgram, ctx: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: node count");
    assert_eq!(a.funcs().len(), b.funcs().len(), "{ctx}: function count");
    assert_eq!(a.addr_ofs(), b.addr_ofs(), "{ctx}: addr-of rows");
    assert_eq!(a.copies(), b.copies(), "{ctx}: copy rows");
    assert_eq!(a.loads(), b.loads(), "{ctx}: load rows");
    assert_eq!(a.stores(), b.stores(), "{ctx}: store rows");
    assert_eq!(
        a.field_addrs(),
        b.field_addrs(),
        "{ctx}: field-address rows"
    );
    assert_eq!(a.field_nodes(), b.field_nodes(), "{ctx}: field nodes");
    assert_eq!(
        a.callsites().as_slice(),
        b.callsites().as_slice(),
        "{ctx}: call sites"
    );
    assert_eq!(
        a.indirect_callsites(),
        b.indirect_callsites(),
        "{ctx}: indirect call sites"
    );
    for n in a.node_ids() {
        assert_eq!(a.node(n), b.node(n), "{ctx}: node {n:?}");
        assert_eq!(a.display_node(n), b.display_node(n), "{ctx}: name of {n:?}");
        assert_eq!(a.owner_of(n), b.owner_of(n), "{ctx}: owner of {n:?}");
        assert_eq!(
            a.is_address_taken(n),
            b.is_address_taken(n),
            "{ctx}: address-taken {n:?}"
        );
        let rows = |cp: &ConstraintProgram| {
            (
                [
                    cp.addr_objs_of(n).to_vec(),
                    cp.addr_dsts_of(n).to_vec(),
                    cp.copy_srcs_of(n).to_vec(),
                    cp.copy_dsts_of(n).to_vec(),
                    cp.load_ptrs_of(n).to_vec(),
                    cp.load_dsts_of(n).to_vec(),
                    cp.store_srcs_of(n).to_vec(),
                    cp.store_ptrs_of(n).to_vec(),
                ],
                cp.field_addrs_of(n).to_vec(),
                cp.field_addrs_from(n).to_vec(),
                cp.arg_uses_of(n).to_vec(),
                cp.ret_dst_uses_of(n).to_vec(),
                cp.fp_uses_of(n).to_vec(),
            )
        };
        assert_eq!(rows(a), rows(b), "{ctx}: rows of {n:?}");
    }
    for (f, _) in a.funcs().iter_enumerated() {
        assert_eq!(a.func(f), b.func(f), "{ctx}: function {f:?}");
        assert_eq!(
            a.direct_callsites_of(f),
            b.direct_callsites_of(f),
            "{ctx}: direct call sites of {f:?}"
        );
    }
    assert_eq!(a.address_taken_funcs(), b.address_taken_funcs(), "{ctx}");
    assert_eq!(print_constraints(a), print_constraints(b), "{ctx}: printed");
}

/// Names an edit may mention, drawn from the live program.
struct Names {
    nodes: Vec<String>,
    funcs: Vec<(String, usize)>,
}

impl Names {
    fn of(cp: &ConstraintProgram) -> Self {
        Names {
            nodes: cp.node_ids().map(|n| cp.display_node(n)).collect(),
            funcs: cp
                .funcs()
                .iter()
                .map(|f| (cp.interner().resolve(f.name).to_owned(), f.formals.len()))
                .collect(),
        }
    }
}

/// A name for one endpoint: usually an existing node, sometimes a fresh
/// variable, a formal or return slot, or a field reference.
fn name(rng: &mut Rng, names: &Names, fresh: &mut u32) -> String {
    match rng.gen_range(0..10u32) {
        0 | 1 => {
            *fresh += 1;
            format!("new{fresh}")
        }
        2 if !names.funcs.is_empty() => {
            let (f, arity) = &names.funcs[rng.gen_range(0..names.funcs.len())];
            if *arity > 0 && rng.gen_bool(0.5) {
                format!("{f}::arg{}", rng.gen_range(0..*arity))
            } else {
                format!("{f}::ret")
            }
        }
        3 => {
            // `x.f0` resolves to a declared field node, or else to a
            // plain variable of that name (creating `x` on the way).
            let base = &names.nodes[rng.gen_range(0..names.nodes.len())];
            format!("{base}.f{}", rng.gen_range(0..2u32))
        }
        _ => names.nodes[rng.gen_range(0..names.nodes.len())].clone(),
    }
}

/// One well-formed constraint or call line.
fn line(rng: &mut Rng, names: &Names, fresh: &mut u32) -> String {
    let mut n = |rng: &mut Rng| name(rng, names, fresh);
    let form = rng.gen_range(0..9u32);
    match form {
        0 => format!("{} = &{}", n(rng), n(rng)),
        1 => format!("{} = {}", n(rng), n(rng)),
        2 => format!("{} = *{}", n(rng), n(rng)),
        3 => format!("*{} = {}", n(rng), n(rng)),
        4 => format!("{} = &{}->{}", n(rng), n(rng), rng.gen_range(0..3u32)),
        5 | 6 if !names.funcs.is_empty() => {
            let (f, arity) = names.funcs[rng.gen_range(0..names.funcs.len())].clone();
            if form == 5 {
                return format!("{} = &{f}", n(rng));
            }
            let args: Vec<String> = (0..arity)
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        "_".into()
                    } else {
                        n(rng)
                    }
                })
                .collect();
            let mut call = format!("call {f}({})", args.join(", "));
            if rng.gen_bool(0.6) {
                call.push_str(&format!(" -> {}", n(rng)));
            }
            if rng.gen_bool(0.4) {
                let (g, _) = &names.funcs[rng.gen_range(0..names.funcs.len())];
                call.push_str(&format!(" in {g}"));
            }
            call
        }
        _ => {
            let args: Vec<String> = (0..rng.gen_range(0..3usize))
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        "_".into()
                    } else {
                        n(rng)
                    }
                })
                .collect();
            let mut call = format!("icall {}({})", n(rng), args.join(", "));
            if rng.gen_bool(0.5) {
                call.push_str(&format!(" -> {}", n(rng)));
            }
            call
        }
    }
}

/// A line the parser rejects.
fn malformed(rng: &mut Rng, names: &Names) -> String {
    let some = &names.nodes[rng.gen_range(0..names.nodes.len())];
    let f = names.funcs.first().map_or("nofunc", |(f, _)| f.as_str());
    match rng.gen_range(0..9u32) {
        0 => "just some words".into(),
        1 => format!("{some} = _"),
        2 => format!("call undeclared_fn({some})"),
        3 => format!("call {f}({some}"),
        4 => format!("{some} = &{some}->notanumber"),
        5 => format!("{some} = {f}::arg99"),
        6 => format!("call {f}() in no_such_caller"),
        7 => format!("icall {some}() trailing junk"),
        _ => format!(" = {some}"),
    }
}

/// A seeded edit: a few lines, comments and blank lines; sometimes a
/// malformed line or a declaration in the middle.
fn edit(rng: &mut Rng, names: &Names, fresh: &mut u32) -> String {
    let mut text = String::new();
    let lines = rng.gen_range(0..5usize);
    let bad_at = rng.gen_bool(0.15).then(|| rng.gen_range(0..=lines));
    let decl_at = rng.gen_bool(0.04).then(|| rng.gen_range(0..=lines));
    for i in 0..=lines {
        if bad_at == Some(i) {
            text.push_str(&malformed(rng, names));
            text.push('\n');
        }
        if decl_at == Some(i) {
            *fresh += 1;
            text.push_str(&format!("fun decl{fresh}/1\n"));
        }
        if i == lines {
            break;
        }
        match rng.gen_range(0..10u32) {
            0 => text.push('\n'),
            1 => text.push_str("# a comment line\n"),
            2 => text.push_str(&format!(
                "{}   # trailing comment\n",
                line(rng, names, fresh)
            )),
            3 => text.push_str(&format!("  {}\r\n", line(rng, names, fresh))),
            _ => {
                text.push_str(&line(rng, names, fresh));
                text.push('\n');
            }
        }
    }
    // Some edits end without a newline; the next one must still start
    // on a line of its own.
    if rng.gen_bool(0.2) && text.ends_with('\n') {
        text.pop();
    }
    text
}

/// `source` with `edit` appended as a session appends an edit.
fn combined(source: &str, edit: &str) -> String {
    let mut text = source.to_owned();
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(edit);
    text
}

/// Runs `edits` seeded edits over the canonical text of `base`.
fn run_script(base: &ConstraintProgram, seed: u64, edits: usize) -> (usize, usize, usize) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut source = print_constraints(base);
    let mut cp = parse_constraints(&source).expect("canonical text parses");
    let mut fresh = 0u32;
    let (mut applied, mut failed, mut refused) = (0, 0, 0);
    for step in 0..edits {
        let ctx = format!("seed {seed} edit {step}");
        let names = Names::of(&cp);
        let extra = edit(&mut rng, &names, &mut fresh);
        let old = parse_constraints(&source).expect("source parses");
        let full = combined(&source, &extra);
        let appended = append_constraints(&mut cp, &extra, source.lines().count());
        if has_declarations(&extra) {
            let err: TextError = appended.expect_err("declarations are refused");
            assert!(err.message.contains("cannot be appended"), "{ctx}: {err}");
            assert_same(&cp, &old, &ctx);
            refused += 1;
            continue;
        }
        match (appended, parse_constraints(&full)) {
            (Ok(diff), Ok(reparsed)) => {
                assert_same(&cp, &reparsed, &ctx);
                let oracle = diff_programs(&old, &reparsed);
                assert!(oracle.compatible, "{ctx}: appends keep ids");
                assert_eq!(diff.changed, oracle.changed, "{ctx}: changed nodes");
                assert_eq!(diff.indirect_changed, oracle.indirect_changed, "{ctx}");
                assert!(diff.compatible, "{ctx}");
                source = full;
                applied += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{ctx}: identical error");
                assert_same(&cp, &old, &ctx);
                failed += 1;
            }
            (got, want) => panic!(
                "{ctx}: append gave {:?}, full parse gave {:?}\nedit: {extra:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }
    (applied, failed, refused)
}

#[test]
fn appends_match_full_parse_on_minic_programs() {
    for seed in 1..=3 {
        let ast = generate_minic(&MiniCConfig::sized(seed, 10));
        let cp = lower(&ast).expect("generated MiniC lowers");
        let (applied, failed, _) = run_script(&cp, seed, 120);
        assert!(applied > 60 && failed > 5, "script exercised both paths");
    }
}

#[test]
fn appends_match_full_parse_on_random_programs() {
    for seed in 1..=3 {
        let cp = generate_random(&RandomConfig::sized(seed, 150));
        let (applied, failed, _) = run_script(&cp, 100 + seed, 120);
        assert!(applied > 60 && failed > 5, "script exercised both paths");
    }
}

#[test]
fn appends_match_full_parse_on_cyclic_programs() {
    let mut refused = 0;
    for seed in 1..=3 {
        let cp = generate_cyclic(&CyclicConfig::sized(seed, 3));
        let (applied, failed, r) = run_script(&cp, 200 + seed, 120);
        assert!(applied > 60 && failed > 5, "script exercised both paths");
        refused += r;
    }
    assert!(refused > 0, "some edits declared a function");
}

#[test]
fn error_lines_count_the_whole_source() {
    let source = "p = &o\nq = p\nr = q\ns = r\n";
    let mut cp = parse_constraints(source).expect("parses");
    let err = append_constraints(&mut cp, "t = s\nnot a constraint\n", 4).expect_err("bad");
    assert_eq!(err.line, 6);
    let full = parse_constraints(&combined(source, "t = s\nnot a constraint\n"));
    assert_eq!(Err(err), full.map(|_| ()));
    // `t` was minted before the bad line; the rollback forgets it.
    assert_same(
        &cp,
        &parse_constraints(source).expect("parses"),
        "after error",
    );
    assert!(cp.node_ids().all(|n| cp.display_node(n) != "t"));
}
