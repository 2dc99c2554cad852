//! Seeded fuzzing of the request boundary: `parse_json` and then
//! `proto::parse_request`, as the server reads every line.
//!
//! The corpus is every builder-rendered request, with session names,
//! node names and program text holding `"`, `\`, U+0001 and non-BMP
//! characters, plus arrays nested around the parser's depth cap. Lines
//! are truncated, have bytes overwritten with JSON punctuation or hex
//! digits, bytes inserted or deleted, or a segment duplicated. Neither
//! parser may panic: each returns a value or a typed error, and every
//! parsed value renders to text that re-parses to the same text.

use ddpa_obs::{parse_json, JsonValue};
use ddpa_serve::proto::{build, parse_request, ErrorCode, QuerySpec};
use ddpa_support::Rng;

/// Mutation cases per corpus line.
const CASES: usize = 120;

const PUNCTUATION: &[u8] = b"{}[]:,\"\\ -+.eE";
const HEX: &[u8] = b"0123456789abcdefABCDEFu";

/// Names that need every kind of escape, and a multi-byte one.
const NAMES: [&str; 4] = [
    "main::p",
    "q\"uo\\te",
    "ctl\u{1}\u{1f}",
    "f::\u{1d54f}\u{e9}",
];

fn specs(name: &str) -> Vec<QuerySpec> {
    vec![
        QuerySpec::PointsTo { name: name.into() },
        QuerySpec::PointedToBy { name: name.into() },
        QuerySpec::MayAlias {
            a: name.into(),
            b: "g".into(),
        },
        QuerySpec::CallTargets { site: 7 },
    ]
}

/// Every request kind the builders render, over every name.
fn corpus() -> Vec<String> {
    let mut out: Vec<JsonValue> = vec![build::ping(), build::stats(), build::shutdown()];
    for name in NAMES {
        let program = format!("{name} = &o\nx = {name}\n");
        out.extend([
            build::open(name, &program, false, Some(100)),
            build::with_parallel_query(build::open(name, "int g;", true, None)),
            build::close(name),
            build::add_constraints(name, &program),
            build::snapshot(name, Some("snaps/s\u{1}.snap")),
            build::snapshot(name, None),
            build::restore(name, name),
            build::inspect(name, Some(5), None, None),
        ]);
        let specs = specs(name);
        for spec in &specs {
            out.push(build::query(name, spec, Some(10), Some(250)));
            out.push(build::with_trace(build::query(name, spec, None, None)));
            out.push(build::with_parallel_query(build::query(
                name, spec, None, None,
            )));
        }
        out.push(build::batch(name, &specs, true, Some(9), None));
        out.push(build::with_trace(build::batch(
            name, &specs, false, None, None,
        )));
    }
    let mut lines: Vec<String> = out.iter().map(JsonValue::to_string).collect();
    // Arrays nested just under, at and past the depth cap, alone and in
    // a batch's query list.
    for depth in [100, 127, 128, 129, 200] {
        let nested = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        lines.push(format!(
            "{{\"op\":\"batch\",\"session\":\"s\",\"queries\":{nested}}}"
        ));
        lines.push(nested);
    }
    lines
}

/// A JSON punctuation byte or a hex digit.
fn noise(rng: &mut Rng) -> u8 {
    let table = if rng.gen_range(0..2u32) == 0 {
        PUNCTUATION
    } else {
        HEX
    };
    table[rng.gen_range(0..table.len())]
}

/// `line` after one to four seeded mutations.
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4usize) {
        let len = bytes.len();
        match rng.gen_range(0..6u32) {
            0 => bytes.truncate(rng.gen_range(0..=len)),
            1 | 2 if len > 0 => bytes[rng.gen_range(0..len)] = noise(rng),
            3 => bytes.insert(rng.gen_range(0..=len), noise(rng)),
            4 if len > 0 => {
                bytes.remove(rng.gen_range(0..len));
            }
            _ => {
                let from = rng.gen_range(0..=len);
                let to = (from + rng.gen_range(1..=24usize)).min(len);
                let segment = bytes[from..to].to_vec();
                let at = rng.gen_range(0..=len);
                bytes.splice(at..at, segment);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `line` as the server does. Returns whether it was JSON, and
/// whether it was a request.
fn check(line: &str, ctx: &str) -> (bool, bool) {
    let value = match parse_json(line) {
        Ok(v) => v,
        Err(msg) => {
            assert!(!msg.is_empty(), "{ctx}: empty error");
            return (false, false);
        }
    };
    let text = value.to_string();
    let again = parse_json(&text).unwrap_or_else(|e| panic!("{ctx}: {text:?} re-parses: {e}"));
    assert_eq!(again.to_string(), text, "{ctx}: render is a fixpoint");
    match parse_request(&value) {
        Ok(_) => (true, true),
        Err(e) => {
            assert!(
                matches!(e.code, ErrorCode::BadRequest | ErrorCode::UnknownOp),
                "{ctx}: {e:?}"
            );
            (true, false)
        }
    }
}

#[test]
fn builder_lines_are_requests() {
    for line in corpus() {
        if line.contains("\"queries\":[[") || line.starts_with('[') {
            continue;
        }
        assert_eq!(check(&line, &line), (true, true), "{line}");
    }
}

#[test]
fn mutated_lines_parse_or_fail_typed() {
    let mut rng = Rng::seed_from_u64(0x6a50_f022);
    let (mut json, mut requests, mut total) = (0, 0, 0);
    for (l, line) in corpus().iter().enumerate() {
        for case in 0..CASES {
            let mutated = mutate(line, &mut rng);
            let ctx = format!("line {l} case {case}: {mutated:?}");
            let (is_json, is_request) = check(&mutated, &ctx);
            json += usize::from(is_json);
            requests += usize::from(is_request);
            total += 1;
        }
    }
    // Both outcomes are common, so both paths are exercised.
    assert!(
        json > total / 20 && requests > total / 50 && json < total,
        "{json} JSON, {requests} requests of {total}"
    );
}
