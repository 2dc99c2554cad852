//! Pass order: the parser reads `fun` declarations, then `field`
//! declarations, then constraint lines, wherever they sit in the text.
//!
//! Printed programs are rearranged — every declaration moved to the end,
//! comments and blank lines scattered through — and must parse to the
//! very program their printed text gives. Inputs whose errors fall in
//! different passes pin which error is reported.

use ddpa_constraints::{lower, parse_constraints, print_constraints, ConstraintProgram};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};
use ddpa_support::Rng;

mod common;
use common::assert_same;

/// `text` with every `fun` and `field` line moved after the constraint
/// lines (keeping their order), and comments, blank lines and padding
/// scattered through.
fn rearranged(text: &str, rng: &mut Rng) -> String {
    let (decls, body): (Vec<&str>, Vec<&str>) = text
        .lines()
        .partition(|l| l.starts_with("fun ") || l.starts_with("field "));
    let mut out = String::new();
    for line in body.into_iter().chain(decls) {
        match rng.gen_range(0..8u32) {
            0 => out.push('\n'),
            1 => out.push_str("# fun fake/1\n"),
            2 => out.push_str("   # field fake.0\n"),
            _ => {}
        }
        match rng.gen_range(0..4u32) {
            0 => out.push_str(&format!("  {line}  # trailing\n")),
            1 => out.push_str(&format!("\t{line}\r\n")),
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

fn programs() -> Vec<(String, ConstraintProgram)> {
    let mut out = Vec::new();
    for seed in 1..=3 {
        let ast = generate_minic(&MiniCConfig::sized(seed, 10));
        let minic = lower(&ast).expect("generated MiniC lowers");
        out.push((format!("minic {seed}"), minic));
        let random = generate_random(&RandomConfig::sized(seed, 150));
        out.push((format!("random {seed}"), random));
        let cyclic = generate_cyclic(&CyclicConfig::sized(seed, 3));
        out.push((format!("cyclic {seed}"), cyclic));
        let wide = generate_wide(&WideConfig::sized(seed, 300));
        out.push((format!("wide {seed}"), wide));
    }
    out
}

#[test]
fn declarations_anywhere_give_the_printed_program() {
    let mut rng = Rng::seed_from_u64(15);
    let mut funs = 0;
    for (name, cp) in programs() {
        let printed = print_constraints(&cp);
        let canonical = parse_constraints(&printed).expect("printed text parses");
        funs += canonical.funcs().len();
        for round in 0..3 {
            let text = rearranged(&printed, &mut rng);
            let parsed = parse_constraints(&text).expect("rearranged text parses");
            assert_same(&parsed, &canonical, &format!("{name} round {round}"));
        }
    }
    assert!(funs > 0, "some programs declare functions");
}

fn error(text: &str) -> (String, usize) {
    let err = parse_constraints(text).expect_err("malformed");
    (err.message, err.line)
}

#[test]
fn declaration_errors_come_before_body_errors() {
    // A bad `fun` line is reported even below a bad constraint line.
    assert_eq!(
        error("p = &o\njust words\nfun broken\n"),
        ("expected `fun name/arity`, found `fun broken`".into(), 3)
    );
    // A bad `field` line above a bad `fun` line loses to it.
    assert_eq!(
        error("field o\np = &o\nfun f/x\n"),
        ("invalid arity `x`".into(), 3)
    );
    // ... but beats every constraint line.
    assert_eq!(
        error("p = _\nfield o\n"),
        ("expected `parent.N`, found `o`".into(), 2)
    );
    assert_eq!(
        error("fun f/1\np = &g\nq = p\nfun f/2\n"),
        ("function `f` declared twice".into(), 4)
    );
}
