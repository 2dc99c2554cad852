//! Seeded fuzzing of the constraint-text boundary.
//!
//! Printed programs are mutated — truncated at a byte, bytes overwritten
//! with punctuation, digits or multi-byte characters, lines duplicated,
//! deleted or swapped — and fed to `parse_constraints` and
//! `append_constraints`. Neither may panic; an error names a line of the
//! input (or the line after it); a parsed program prints to a fixpoint;
//! and a failed append leaves the program as it was.
//!
//! Structured generators add the shapes a byte mutator reaches only by
//! luck: deep `.fN` and `->N` suffix chains, huge numerals in field
//! indices, arities and `argN`, and thousands of declarations. On those
//! the same properties hold, and a program never has more nodes than its
//! text has bytes.

use ddpa_constraints::{
    append_constraints, lower, parse_constraints, print_constraints, ConstraintProgram,
};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};
use ddpa_support::Rng;
use std::fmt::Write as _;

const PUNCTUATION: &[u8] = b":.->&*=#(),_/";
const MULTI_BYTE: [&str; 3] = ["\u{e9}", "\u{2192}", "\u{1d535}"];

/// `text` after one to four seeded mutations.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        match rng.gen_range(0..8u32) {
            0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            1..=3 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                let with = match rng.gen_range(0..3u32) {
                    0 => vec![PUNCTUATION[rng.gen_range(0..PUNCTUATION.len())]],
                    1 => vec![b'0' + rng.gen_range(0..10u8)],
                    _ => MULTI_BYTE[rng.gen_range(0..MULTI_BYTE.len())]
                        .as_bytes()
                        .to_vec(),
                };
                bytes.splice(at..=at, with);
            }
            _ => {
                let mut lines: Vec<Vec<u8>> =
                    bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
                let (i, j) = (rng.gen_range(0..lines.len()), rng.gen_range(0..lines.len()));
                match rng.gen_range(0..3u32) {
                    0 => lines.insert(j, lines[i].clone()),
                    1 => {
                        lines.remove(i);
                    }
                    _ => lines.swap(i, j),
                }
                bytes = lines.join(&b'\n');
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn programs() -> Vec<ConstraintProgram> {
    let mut out = Vec::new();
    for seed in 1..=2 {
        let ast = generate_minic(&MiniCConfig::sized(seed, 4));
        out.push(lower(&ast).expect("generated MiniC lowers"));
        out.push(generate_random(&RandomConfig::sized(seed, 60)));
        out.push(generate_cyclic(&CyclicConfig::sized(seed, 2)));
        out.push(generate_wide(&WideConfig::sized(seed, 80)));
    }
    out
}

/// `parse_constraints` on `text`: an error names a line in
/// `1..=lines + 1`, and a program prints to a fixpoint.
fn check_parse(text: &str, ctx: &str) -> bool {
    match parse_constraints(text) {
        Ok(cp) => {
            let printed = print_constraints(&cp);
            let again = parse_constraints(&printed).expect("printed text parses");
            assert_eq!(print_constraints(&again), printed, "{ctx}: fixpoint");
            true
        }
        Err(err) => {
            let lines = text.lines().count();
            assert!(
                (1..=lines + 1).contains(&err.line),
                "{ctx}: {err} of {lines}"
            );
            false
        }
    }
}

/// Field references nested `depth` deep below `p`, following the chain
/// `p.f0.f1…` that [`suffix_chains`] declares. Half the names take about
/// two detours on the way.
fn deep_name(rng: &mut Rng, depth: usize) -> String {
    let detours = if rng.gen_bool(0.5) { 0 } else { 2 };
    let mut name = String::from("p");
    for i in 0..depth {
        if rng.gen_range(0..depth) >= detours {
            let _ = write!(name, ".f{i}");
            continue;
        }
        match rng.gen_range(0..4u32) {
            0 => name.push('.'),
            1 => name.push_str(".f"),
            2 => name.push_str("->"),
            _ => {
                let _ = write!(name, ".{i}");
            }
        }
    }
    name
}

/// Nested field declarations under `p`, then constraints that reach far
/// past them through `.fN` and `->N` suffixes.
fn suffix_chains(rng: &mut Rng) -> String {
    let mut text = String::new();
    let mut parent = String::from("p");
    for i in 0..rng.gen_range(0..48usize) {
        let _ = writeln!(text, "field {parent}.{i}");
        let _ = write!(parent, ".f{i}");
    }
    for _ in 0..rng.gen_range(1..6usize) {
        let depth = rng.gen_range(0..3000usize);
        let name = deep_name(rng, depth);
        let _ = match rng.gen_range(0..6u32) {
            0 => writeln!(text, "x = &{name}"),
            1 => writeln!(text, "x = &{name}->{}", rng.gen_range(0..4u32)),
            2 => writeln!(text, "{name} = x"),
            3 => writeln!(text, "*x = {name}"),
            4 => writeln!(text, "field {name}.{}", rng.gen_range(0..4u32)),
            _ => writeln!(text, "icall {name}(x, {name}) -> {name}"),
        };
    }
    text
}

/// A seeded generator of structured constraint text.
type Generator = fn(&mut Rng) -> String;

/// Numerals at and past every integer width, and malformed ones.
fn numeral(rng: &mut Rng) -> String {
    const FIXED: [&str; 12] = [
        "0",
        "1",
        "007",
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "-1",
        "+2",
        "1e9",
        " 3 ",
    ];
    if rng.gen_bool(0.1) {
        // Thousands of digits.
        let digits = rng.gen_range(1..5000usize);
        return (0..digits)
            .map(|i| (b'1' + (i % 9) as u8) as char)
            .collect();
    }
    FIXED[rng.gen_range(0..FIXED.len())].to_owned()
}

/// Huge numerals as field indices, arities, `argN` and `->N`, beside
/// well-formed uses of the same declarations.
fn huge_numerals(rng: &mut Rng) -> String {
    let mut text = String::from("fun f/2\nfield p.0\nq = &p\n");
    for i in 0..rng.gen_range(1..4usize) {
        let n = numeral(rng);
        let _ = match rng.gen_range(0..8u32) {
            0 => writeln!(text, "fun g{i}/{n}"),
            1 => writeln!(text, "field p.{n}"),
            2 => writeln!(text, "x = &q->{n}"),
            3 => writeln!(text, "x = p.f{n}"),
            4 => writeln!(text, "x = f::arg{n}"),
            5 => writeln!(text, "call f(q, q) -> f::arg{n}"),
            6 => writeln!(text, "f::arg{n} = &p"),
            _ => writeln!(text, "icall x(q, f::arg{n}, _)"),
        };
    }
    text
}

/// Thousands of `fun` and `field` declarations and the constraints that
/// use them. A quarter of the texts repeat one function, and another
/// quarter name one formal past its function's arity.
fn many_declarations(rng: &mut Rng) -> String {
    let mut text = String::new();
    let arities: Vec<u32> = (0..rng.gen_range(1..1500usize))
        .map(|_| rng.gen_range(0..4u32))
        .collect();
    for (g, arity) in arities.iter().enumerate() {
        let _ = writeln!(text, "fun g{g}/{arity}");
    }
    for _ in 0..rng.gen_range(0..1500usize) {
        let parent = rng.gen_range(0..64u32);
        let _ = writeln!(text, "field v{parent}.{}", rng.gen_range(0..8u32));
    }
    for _ in 0..rng.gen_range(0..200usize) {
        let g = rng.gen_range(0..arities.len());
        let v = rng.gen_range(0..64u32);
        let _ = match rng.gen_range(0..5u32) {
            0 => writeln!(text, "x{v} = &g{g}"),
            1 if arities[g] > 0 => {
                writeln!(text, "g{g}::arg{} = &v{v}", rng.gen_range(0..arities[g]))
            }
            2 => writeln!(text, "call g{g}(x{v}) -> g{g}::ret"),
            3 => writeln!(text, "x{v} = &v{v}.f{}", rng.gen_range(0..8u32)),
            _ => writeln!(text, "y = &x{v}->{}", rng.gen_range(0..8u32)),
        };
    }
    let g = rng.gen_range(0..arities.len());
    let _ = match rng.gen_range(0..4u32) {
        0 => writeln!(text, "fun g{g}/1"),
        1 => writeln!(text, "y = g{g}::arg{}", arities[g]),
        _ => Ok(()),
    };
    text
}

/// [`check_parse`], and a parsed program has no more nodes than the
/// text has bytes: no numeral in the text sizes it.
fn check_structured(text: &str, ctx: &str) -> bool {
    if let Ok(cp) = parse_constraints(text) {
        assert!(
            cp.num_nodes() <= text.len(),
            "{ctx}: {} nodes from {} bytes",
            cp.num_nodes(),
            text.len()
        );
    }
    check_parse(text, ctx)
}

#[test]
fn structured_text_parses_or_names_a_line() {
    let mut rng = Rng::seed_from_u64(6);
    let generators: [(&str, Generator); 3] = [
        ("suffix chains", suffix_chains),
        ("huge numerals", huge_numerals),
        ("many declarations", many_declarations),
    ];
    for (name, generate) in generators {
        let (mut parsed, mut rejected) = (0, 0);
        for case in 0..24 {
            let text = generate(&mut rng);
            let ctx = format!("{name} case {case}");
            if check_structured(&text, &ctx) {
                parsed += 1;
            } else {
                rejected += 1;
            }
            // The constraint lines again, as an edit of a small program:
            // applied, or refused with the program unchanged.
            let base = "p = &o\nfield p.0\n";
            let mut cp = parse_constraints(base).expect("base parses");
            let before = print_constraints(&cp);
            match append_constraints(&mut cp, &text, base.lines().count()) {
                Ok(_) => {
                    check_parse(&print_constraints(&cp), &ctx);
                }
                Err(err) => {
                    let range = 1..=base.lines().count() + text.lines().count() + 1;
                    assert!(range.contains(&err.line), "{ctx}: {err}");
                    assert_eq!(print_constraints(&cp), before, "{ctx}: unchanged");
                }
            }
        }
        assert!(
            parsed > 0 && rejected > 0,
            "{name}: {parsed} parsed, {rejected} rejected"
        );
    }
}

#[test]
fn mutated_text_parses_or_names_a_line() {
    let mut rng = Rng::seed_from_u64(4);
    let (mut parsed, mut rejected) = (0, 0);
    for (p, cp) in programs().iter().enumerate() {
        let text = print_constraints(cp);
        for case in 0..40 {
            let mutated = mutate(&text, &mut rng);
            let ctx = format!("program {p} case {case}: {mutated:?}");
            if check_parse(&mutated, &ctx) {
                parsed += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        parsed > 20 && rejected > 20,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn mutated_appends_apply_or_change_nothing() {
    let mut rng = Rng::seed_from_u64(5);
    let (mut applied, mut failed) = (0, 0);
    for (p, base) in programs().iter().enumerate() {
        let text = print_constraints(base);
        let lines_before = text.lines().count();
        for case in 0..40 {
            // A few constraint lines, mutated, as an edit would send them.
            let body: Vec<&str> = text
                .lines()
                .filter(|l| !l.starts_with("fun ") && !l.starts_with("field "))
                .collect();
            let from = rng.gen_range(0..body.len());
            let to = (from + rng.gen_range(1..=6usize)).min(body.len());
            let edit = mutate(&body[from..to].join("\n"), &mut rng);
            let ctx = format!("program {p} case {case}: {edit:?}");
            let mut cp = parse_constraints(&text).expect("printed text parses");
            match append_constraints(&mut cp, &edit, lines_before) {
                Ok(_) => {
                    check_parse(&print_constraints(&cp), &ctx);
                    applied += 1;
                }
                Err(err) => {
                    let lines = edit.lines().count();
                    let range = lines_before + 1..=lines_before + lines + 1;
                    assert!(range.contains(&err.line), "{ctx}: {err}");
                    assert_eq!(print_constraints(&cp), text, "{ctx}: unchanged");
                    failed += 1;
                }
            }
        }
    }
    assert!(
        applied > 20 && failed > 20,
        "{applied} applied, {failed} failed"
    );
}
