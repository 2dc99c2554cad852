//! Minimal hand-rolled JSON: escaping, a value tree, a reader, and a
//! validator.
//!
//! The workspace has no serde, so this module provides just enough JSON
//! for metrics export and the `ddpa-serve` wire protocol: string escaping
//! per RFC 8259, a [`JsonValue`] tree with a `Display` serializer, a
//! strict recursive-descent reader ([`parse_json`]) producing that tree,
//! and [`validate_jsonl_line`], which the CLI tests and CI smoke test use
//! to prove that every emitted line really is one standalone JSON object.

use std::fmt;

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters as `\u00XX`; non-ASCII passes through as UTF-8,
/// which RFC 8259 permits without escaping).
pub fn escape_into(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_escaped(out, s);
}

/// Appends `s` escaped and wrapped in quotes to `out`: [`escaped`]
/// without the allocation.
pub fn quote_into(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = write_quoted(out, s);
}

/// `s` escaped and wrapped in quotes.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

/// The escaping behind [`escape_into`], for any writer. Escape-free runs
/// are copied whole. Every byte that needs escaping is ASCII, so the run
/// boundaries always fall on `char` boundaries.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])
}

/// `s` escaped and wrapped in quotes, for any writer.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

/// A JSON value tree. Objects keep insertion order (metric names are
/// pre-sorted by the registry).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, counts).
    U64(u64),
    /// Floating point; non-finite values serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Looks up `key` in an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The unsigned-integer payload. Integral non-negative floats (the
    /// reader only produces `F64` for fractional or huge numbers) are not
    /// converted — wire fields that mean counts must arrive as integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::U64(n) => write!(f, "{n}"),
            JsonValue::F64(x) if x.is_finite() => write!(f, "{x}"),
            JsonValue::F64(_) => f.write_str("null"),
            JsonValue::Str(s) => write_quoted(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_quoted(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses `s` as exactly one JSON value (strict: nothing but whitespace
/// may follow). Errors carry the byte offset of the first violation.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src: s,
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    Ok(v)
}

/// Checks that `line` is exactly one JSON *object* (the JSONL contract):
/// a strict recursive-descent parse with nothing but whitespace after the
/// closing brace. Returns a description of the first violation.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let mut p = Parser {
        src: line,
        b: line.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    if p.b.get(p.i) != Some(&b'{') {
        return Err(format!(
            "line does not start with an object at byte {}",
            p.i
        ));
    }
    p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    Ok(())
}

/// Every `"kind"` value the metrics/log JSONL schema defines. The strict
/// validator ([`validate_metrics_line`]) rejects anything else, so schema
/// drift — a typo'd kind, a new emitter nobody documented — fails CI
/// instead of silently passing as "some JSON object".
pub const KNOWN_KINDS: &[&str] = &[
    "meta", "counter", "gauge", "hist", "span", "event", "access", "slow", "flight",
];

/// [`validate_jsonl_line`] plus the schema check: the object must carry a
/// string `"kind"` field whose value is one of [`KNOWN_KINDS`].
pub fn validate_metrics_line(line: &str) -> Result<(), String> {
    validate_jsonl_line(line)?;
    let v = parse_json(line)?;
    match v.get("kind").and_then(JsonValue::as_str) {
        None => Err("object has no string \"kind\" field".to_owned()),
        Some(kind) if KNOWN_KINDS.contains(&kind) => Ok(()),
        Some(kind) => Err(format!(
            "unknown kind {kind:?} (expected one of {})",
            KNOWN_KINDS.join(", ")
        )),
    }
}

/// Nesting depth cap: deeper input is rejected rather than risking a
/// stack overflow on adversarial wire data.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    src: &'s str,
    b: &'s [u8],
    i: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.expect("true", JsonValue::Bool(true)),
            Some(b'f') => self.expect("false", JsonValue::Bool(false)),
            Some(b'n') => self.expect("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {}", self.i)),
            None => Err(format!("unexpected end of input at {}", self.i)),
        }
    }

    fn expect(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("expected `{word}` at byte {}", self.i))
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.enter()?;
        self.i += 1; // past '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", self.i));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(format!("expected `:` at byte {}", self.i));
            }
            self.i += 1;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.enter()?;
        self.i += 1; // past '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // past opening quote
        let mut out = String::new();
        let mut run = self.i; // start of the current escape-free run
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    out.push_str(&self.src[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.i]);
                    match self.b.get(self.i + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4(self.i + 2)?;
                            self.i += 6;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a low surrogate must follow.
                                if self.b.get(self.i..self.i + 2) != Some(br"\u") {
                                    return Err(format!(
                                        "unpaired surrogate at byte {}",
                                        self.i - 6
                                    ));
                                }
                                let lo = self.hex4(self.i + 2)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "unpaired surrogate at byte {}",
                                        self.i - 6
                                    ));
                                }
                                self.i += 6;
                                let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(scalar).expect("valid surrogate pair")
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(format!("unpaired surrogate at byte {}", self.i - 6));
                            } else {
                                char::from_u32(hi).expect("BMP scalar")
                            };
                            out.push(c);
                            run = self.i;
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 2;
                    run = self.i;
                }
                Some(&c) if c < 0x20 => {
                    return Err(format!(
                        "raw control character {c:#04x} in string at byte {}",
                        self.i
                    ))
                }
                Some(_) => self.i += 1,
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .b
            .get(at..at + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("bad \\u escape at byte {}", at.saturating_sub(2)));
        }
        u32::from_str_radix(&self.src[at..at + 4], 16)
            .map_err(|_| format!("bad \\u escape at byte {at}"))
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        let mut integral = true;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        if !self.digits() {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.b.get(self.i) == Some(&b'.') {
            integral = false;
            self.i += 1;
            if !self.digits() {
                return Err(format!("malformed fraction at byte {}", self.i));
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.digits() {
                return Err(format!("malformed exponent at byte {}", self.i));
            }
        }
        let text = &self.src[start..self.i];
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| format!("malformed number at byte {start}"))
    }

    fn digits(&mut self) -> bool {
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        self.i > start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_pathological_names() {
        assert_eq!(escaped(r#"a"b"#), r#""a\"b""#);
        assert_eq!(escaped(r"back\slash"), r#""back\\slash""#);
        assert_eq!(escaped("line\nbreak"), r#""line\nbreak""#);
        assert_eq!(escaped("tab\there"), r#""tab\there""#);
        assert_eq!(escaped("\u{01}"), "\"\\u0001\"");
        // Non-ASCII (the analysis prints names like `x ∈ pts(y)`) passes
        // through unescaped, as RFC 8259 allows.
        assert_eq!(escaped("v ∈ pts"), "\"v ∈ pts\"");
        assert_eq!(escaped("∈\u{1f}∈\u{0c}\u{08}\r"), "\"∈\\u001f∈\\f\\b\\r\"");
    }

    #[test]
    fn display_escapes_keys_and_strings_like_escaped() {
        for name in [
            r#"a"b"#,
            r"c\d",
            "line\nbreak",
            "v ∈ pts",
            "\u{07}x\u{1f}",
            "",
        ] {
            let v = JsonValue::Object(vec![(name.to_owned(), JsonValue::str(name))]);
            assert_eq!(
                v.to_string(),
                format!("{{{}:{}}}", escaped(name), escaped(name))
            );
            let mut quoted = String::from("x");
            quote_into(&mut quoted, name);
            assert_eq!(quoted, format!("x{}", escaped(name)));
        }
    }

    #[test]
    fn escaped_strings_validate() {
        for name in [r#"a"b"#, r"c\d", "line\nbreak", "v ∈ pts", "\u{07}"] {
            let line = format!("{{{}:{}}}", escaped("k"), escaped(name));
            validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{name:?}: {e}"));
        }
    }

    #[test]
    fn value_tree_serializes_and_validates() {
        let v = JsonValue::Object(vec![
            ("kind".to_owned(), JsonValue::str("counters")),
            ("n".to_owned(), JsonValue::U64(3)),
            ("rate".to_owned(), JsonValue::F64(0.5)),
            ("nan".to_owned(), JsonValue::F64(f64::NAN)),
            (
                "items".to_owned(),
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
        ]);
        let line = v.to_string();
        assert_eq!(
            line,
            r#"{"kind":"counters","n":3,"rate":0.5,"nan":null,"items":[true,null]}"#
        );
        validate_jsonl_line(&line).expect("valid");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_jsonl_line("").is_err());
        assert!(
            validate_jsonl_line("[1,2]").is_err(),
            "top level must be an object"
        );
        assert!(validate_jsonl_line("{\"a\":1} trailing").is_err());
        assert!(validate_jsonl_line("{\"a\":}").is_err());
        assert!(validate_jsonl_line("{\"a\":1,}").is_err());
        assert!(validate_jsonl_line("{\"a\":01e}").is_err());
        assert!(validate_jsonl_line("{\"a\":\"unterminated}").is_err());
        assert!(validate_jsonl_line("{\"a\":\"bad\\q\"}").is_err());
    }

    #[test]
    fn validator_accepts_numbers_and_nesting() {
        for line in [
            "{}",
            "{ \"a\" : -1.5e-3 }",
            "{\"a\":{\"b\":[{},{\"c\":null}]}}",
            "{\"∈\":\"∈\"}",
        ] {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let v = JsonValue::Object(vec![
            ("op".to_owned(), JsonValue::str("query")),
            ("name".to_owned(), JsonValue::str("v ∈ \"pts\"\n")),
            ("budget".to_owned(), JsonValue::U64(u64::MAX)),
            ("rate".to_owned(), JsonValue::F64(-1.5e-3)),
            (
                "flags".to_owned(),
                JsonValue::Array(vec![JsonValue::Bool(false), JsonValue::Null]),
            ),
            ("empty".to_owned(), JsonValue::Object(vec![])),
        ]);
        let parsed = parse_json(&v.to_string()).expect("round-trip parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn reader_decodes_escapes_and_surrogates() {
        let v = parse_json(r#"{"k":"a\nb\t\u0041\ud83d\ude00\\"}"#).expect("parses");
        assert_eq!(v.get("k").and_then(JsonValue::as_str), Some("a\nb\tA😀\\"));
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse_json(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse_json(r#""\ud83dx""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn reader_number_variants() {
        assert_eq!(parse_json("0"), Ok(JsonValue::U64(0)));
        assert_eq!(
            parse_json("18446744073709551615"),
            Ok(JsonValue::U64(u64::MAX))
        );
        assert_eq!(parse_json("-3"), Ok(JsonValue::F64(-3.0)));
        assert_eq!(parse_json("2.5"), Ok(JsonValue::F64(2.5)));
        assert_eq!(parse_json("1e3"), Ok(JsonValue::F64(1000.0)));
        // Past u64 range, integers degrade to floats rather than failing.
        assert!(matches!(
            parse_json("98446744073709551615"),
            Ok(JsonValue::F64(_))
        ));
    }

    #[test]
    fn reader_rejects_trailing_and_deep_nesting() {
        assert!(parse_json("{} {}").is_err());
        assert!(parse_json("").is_err());
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        let e = parse_json(&deep).expect_err("too deep");
        assert!(e.contains("nesting"), "{e}");
    }

    #[test]
    fn accessors_select_fields() {
        let v = parse_json(r#"{"s":"x","n":7,"b":true,"a":[1],"o":{"k":null}}"#).expect("parses");
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("o").and_then(|o| o.get("k")).is_some());
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("x").is_none());
        assert_eq!(v.as_object().map(<[_]>::len), Some(5));
    }
}
