//! The op list in `docs/SERVER.md` stays in step with the parser: the
//! grammar's `request :=` line names exactly the ops `parse_request`
//! has an arm for, and each of them parses.

use ddpa_obs::{parse_json, JsonValue};
use ddpa_serve::proto::{parse_request, ErrorCode};

const SERVER_MD: &str = include_str!("../../../docs/SERVER.md");
const PROTO_RS: &str = include_str!("../src/proto.rs");

/// The ops named by the grammar's `request := a | b | ...` production,
/// which may continue on lines that start with `|`.
fn grammar_ops() -> Vec<String> {
    let mut lines = SERVER_MD.lines().skip_while(|l| !l.starts_with("request "));
    let first = lines
        .next()
        .expect("docs/SERVER.md has a `request :=` line");
    let mut text = first
        .split_once(":=")
        .expect("the request line is a production")
        .1
        .to_owned();
    for line in lines.take_while(|l| l.trim_start().starts_with('|')) {
        text.push_str(line);
    }
    text.split('|').map(|op| op.trim().to_owned()).collect()
}

/// The ops `parse_request` has a match arm for: its lines of the form
/// `"op" => ...`.
fn parser_ops() -> Vec<String> {
    let body = PROTO_RS
        .split_once("pub fn parse_request(")
        .expect("proto.rs defines parse_request")
        .1;
    let body = &body[..body.find("\n}\n").expect("parse_request ends")];
    body.lines()
        .filter_map(|l| l.trim_start().strip_prefix('"'))
        .filter_map(|l| l.split_once("\" =>"))
        .map(|(op, _)| op.to_owned())
        .collect()
}

/// A request line for `op` carrying every field any op requires.
fn request(op: &str) -> JsonValue {
    let line = format!(
        "{{\"op\":{op:?},\"session\":\"s\",\"program\":\"p = &o\",\"path\":\"s.snap\",\
         \"kind\":\"points-to\",\"name\":\"p\",\"queries\":[]}}"
    );
    parse_json(&line).expect("valid JSON")
}

#[test]
fn grammar_names_every_op_the_parser_accepts() {
    let mut grammar = grammar_ops();
    let mut parser = parser_ops();
    assert_eq!(grammar.len(), 11, "{grammar:?}");
    for op in &grammar {
        let parsed = parse_request(&request(op)).unwrap_or_else(|e| panic!("{op}: {e:?}"));
        assert_eq!(parsed.op(), op);
    }
    grammar.sort();
    parser.sort();
    assert_eq!(grammar, parser);
}

#[test]
fn folded_views_are_unknown_ops() {
    for op in ["slow", "scrape", "flight", "graph"] {
        let err = parse_request(&request(op)).expect_err(op);
        assert_eq!(err.code, ErrorCode::UnknownOp, "{op}");
    }
}
