//! Seeded fuzzing of the MiniC frontend: `parse`, then `check`, then
//! `lower`, as a session opens MiniC source.
//!
//! Generated programs and the `samples/*.mc` files are mutated — a token
//! inserted, a word replaced by another word of the program, a range
//! deleted, a segment duplicated, the text truncated or two bytes
//! swapped. No stage may panic: each returns a typed error,
//! with a span inside the input, or a result; a program `check` accepts
//! always lowers; and no input takes long.

use std::time::{Duration, Instant};

use ddpa_constraints::lower;
use ddpa_gen::{generate_minic, MiniCConfig};
use ddpa_support::Rng;

/// Mutation cases per corpus program.
const CASES: usize = 150;

/// How long one input may take through all three stages, in a debug
/// build.
const PER_INPUT: Duration = Duration::from_secs(2);

const TOKENS: [&str; 30] = [
    "{", "}", "(", ")", "[", "]", ";", ",", "*", "&", "=", "==", "!=", ".", "->", "int", "void",
    "struct", "return", "if", "else", "while", "malloc", "null", "main", "p", "s", "0", "7",
    "\u{e9}",
];

fn corpus() -> Vec<String> {
    let mut out: Vec<String> = (1..=3)
        .map(|seed| ddpa_ir::pretty(&generate_minic(&MiniCConfig::sized(seed, 12))))
        .collect();
    let samples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples");
    let mut files: Vec<_> = std::fs::read_dir(samples)
        .expect("samples directory")
        .map(|e| e.expect("sample entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    files.sort();
    for path in files {
        out.push(std::fs::read_to_string(&path).expect("sample reads"));
    }
    out
}

/// The byte ranges of `bytes`' identifier-like words.
fn words(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().chain(b" ").enumerate() {
        match (b.is_ascii_alphanumeric() || b == b'_', start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// `text` after one to three seeded mutations.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        let len = bytes.len();
        match rng.gen_range(0..6u32) {
            5 => {
                // Another name in the same place: usually still parses,
                // and often fails the checker.
                let words = words(&bytes);
                if words.len() > 1 {
                    let (s, e) = words[rng.gen_range(0..words.len())];
                    let (fs, fe) = words[rng.gen_range(0..words.len())];
                    let with = bytes[fs..fe].to_vec();
                    bytes.splice(s..e, with);
                }
            }
            0 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                let at = rng.gen_range(0..=len);
                bytes.splice(at..at, format!(" {token} ").into_bytes());
            }
            1 if len > 0 => {
                let from = rng.gen_range(0..len);
                let to = (from + rng.gen_range(1..=40usize)).min(len);
                bytes.drain(from..to);
            }
            2 if len > 0 => {
                let from = rng.gen_range(0..len);
                let to = (from + rng.gen_range(1..=80usize)).min(len);
                let segment = bytes[from..to].to_vec();
                let at = rng.gen_range(0..=len);
                bytes.splice(at..at, segment);
            }
            3 => bytes.truncate(rng.gen_range(0..=len)),
            _ if len > 1 => {
                let (i, j) = (rng.gen_range(0..len), rng.gen_range(0..len));
                bytes.swap(i, j);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The stage `source` stops at: 0 parse, 1 check, 2 lower, 3 lowered.
fn frontend(source: &str, ctx: &str) -> usize {
    let end = source.len();
    let program = match ddpa_ir::parse(source) {
        Ok(p) => p,
        Err(e) => {
            assert!(e.span.start as usize <= end, "{ctx}: parse span {e}");
            return 0;
        }
    };
    if let Err(errs) = ddpa_ir::check(&program) {
        assert!(!errs.0.is_empty(), "{ctx}: empty check errors");
        for e in &errs.0 {
            assert!(e.span.start as usize <= end, "{ctx}: check span {e}");
        }
        return 1;
    }
    match lower(&program) {
        Ok(_) => 3,
        Err(e) => panic!("{ctx}: a checked program must lower, got {e}"),
    }
}

#[test]
fn corpus_lowers() {
    for (p, source) in corpus().iter().enumerate() {
        assert_eq!(frontend(source, &format!("program {p}")), 3);
    }
}

#[test]
fn mutated_minic_fails_typed_or_lowers() {
    let mut rng = Rng::seed_from_u64(0x3c_f022);
    let mut reached = [0usize; 4];
    for (p, source) in corpus().iter().enumerate() {
        for case in 0..CASES {
            let mutated = mutate(source, &mut rng);
            let ctx = format!("program {p} case {case}: {mutated:?}");
            let start = Instant::now();
            reached[frontend(&mutated, &ctx)] += 1;
            assert!(
                start.elapsed() < PER_INPUT,
                "{ctx}: took {:?}",
                start.elapsed()
            );
        }
    }
    // Every stage both rejects inputs and passes some on.
    assert!(
        reached[0] > 20 && reached[1] > 20 && reached[3] > 20,
        "parse/check/lower outcomes: {reached:?}"
    );
}
