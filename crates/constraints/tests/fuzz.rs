//! Seeded fuzzing of the constraint-text boundary.
//!
//! Printed programs are mutated — truncated at a byte, bytes overwritten
//! with punctuation, digits or multi-byte characters, lines duplicated,
//! deleted or swapped — and fed to `parse_constraints` and
//! `append_constraints`. Neither may panic; an error names a line of the
//! input (or the line after it); a parsed program prints to a fixpoint;
//! and a failed append leaves the program as it was.

use ddpa_constraints::{
    append_constraints, lower, parse_constraints, print_constraints, ConstraintProgram,
};
use ddpa_gen::{
    generate_cyclic, generate_minic, generate_random, generate_wide, CyclicConfig, MiniCConfig,
    RandomConfig, WideConfig,
};
use ddpa_support::Rng;

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
