//! A minimal JSON emitter *and parser* for machine-readable bench
//! artefacts.
//!
//! The experiment binaries render human-readable text tables *and* write
//! the same numbers as `BENCH_<name>.json` so CI (and notebooks) can
//! diff runs without scraping stdout. The workspace has no serialization
//! crate, so this is a small hand-rolled tree: build a
//! [`Json`] value, [`write_bench_json`] it. Output is pretty-printed,
//! keys stay in insertion order, and non-finite floats render as `null`
//! (JSON has no NaN/∞). [`Json::parse`] reads an artefact back — the
//! bench regression gate diffs a fresh run against a committed baseline
//! through it — and the accessors ([`Json::get`], [`Json::as_f64`], …)
//! walk the parsed tree without pattern-matching at every call site.

use std::fmt::Write as _;
use std::path::PathBuf;

/// A JSON value. Construct via the `From` impls and [`Json::obj`], or
/// parse one back with [`Json::parse`]; object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A float, rendered with a decimal point (`3.0`, not `3`).
    Num(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, keys kept in order.
    pub fn obj(pairs: Vec<(&'static str, impl Into<Json>)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.into()))
                .collect(),
        )
    }

    /// Pretty-printed JSON text (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // {:?} gives the shortest representation that parses
                    // back to the same f64, always with a decimal point
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    escape_into(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse JSON text into a tree, or a message naming the byte offset
    /// where parsing stopped. Numbers without a fraction or exponent
    /// parse as [`Json::Int`], everything else numeric as [`Json::Num`],
    /// so a render → parse round trip reproduces the tree exactly.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an `Int` or `Num`; `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The borrowed contents of a `Str`; `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The borrowed items of an `Arr`; `None` otherwise.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The recursive-descent state behind [`Json::parse`]: a byte cursor,
/// because every structural character in JSON is ASCII (string contents
/// pass through as validated UTF-8 slices).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected '{}' at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            // the unescaped stretch is a slice of the input, which is
            // valid UTF-8 and never split mid-character (both stop
            // bytes are ASCII)
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let code = self
                        .peek()
                        .ok_or_else(|| "unterminated escape at end of input".to_string())?;
                    self.pos += 1;
                    match code {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| {
                                    format!("truncated \\u escape at byte {}", self.pos)
                                })?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| {
                                format!("bad \\u escape '{hex}' at byte {}", self.pos)
                            })?;
                            self.pos += 4;
                            // the emitter only writes \u for control
                            // characters; surrogate pairs land here as
                            // the replacement character rather than a
                            // parse failure
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape '\\{}' at byte {}",
                                other as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                // the scan loop above only stops on '"', '\\' or end of
                // input, so anything else is unreachable
                _ => return Err("unterminated string at end of input".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("a number is built from ASCII bytes only");
        if fractional {
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}' at byte {start}"))
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write a bench artefact as `BENCH_<name>.json` into the directory named
/// by `AMCAD_BENCH_OUT` (default: the current directory) and return the
/// path. CI uploads these files as run artefacts.
pub fn write_bench_json(name: &str, json: &Json) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(std::env::var("AMCAD_BENCH_OUT").unwrap_or_else(|_| ".".to_string()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_valid_json_with_ordered_keys() {
        let json = Json::obj(vec![
            ("name", Json::from("table9")),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("shards", Json::from(4usize)),
                    ("speedup", Json::from(2.5)),
                    ("exact", Json::from(true)),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
        ]);
        let text = json.render();
        assert_eq!(
            text,
            "{\n  \"name\": \"table9\",\n  \"rows\": [\n    {\n      \"shards\": 4,\n      \"speedup\": 2.5,\n      \"exact\": true\n    }\n  ],\n  \"empty\": [],\n  \"none\": null\n}\n"
        );
    }

    #[test]
    fn floats_keep_their_decimal_point_and_non_finite_becomes_null() {
        assert_eq!(Json::from(3.0).render(), "3.0\n");
        assert_eq!(Json::from(0.1).render(), "0.1\n");
        assert_eq!(Json::from(f64::NAN).render(), "null\n");
        assert_eq!(Json::from(f64::INFINITY).render(), "null\n");
        assert_eq!(Json::from(42i64).render(), "42\n");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a \"quoted\"\\\npath\tand \u{1} control");
        assert_eq!(
            s.render(),
            "\"a \\\"quoted\\\"\\\\\\npath\\tand \\u0001 control\"\n"
        );
    }

    #[test]
    fn render_then_parse_round_trips_the_tree_exactly() {
        let json = Json::obj(vec![
            ("bench", Json::from("table9")),
            (
                "frontier",
                Json::Arr(vec![Json::obj(vec![
                    ("backend", Json::from("hnsw")),
                    ("recall_at_20", Json::from(0.875)),
                    ("p99_ms", Json::from(1.25e-3)),
                    ("shards", Json::from(4usize)),
                    ("negative", Json::from(-17i64)),
                    ("exact", Json::from(false)),
                    ("nan_becomes", Json::from(f64::NAN)),
                ])]),
            ),
            ("escaped", Json::from("a \"q\"\\\n\t\u{1} tail")),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let reparsed = Json::parse(&json.render()).expect("the emitter writes valid JSON");
        // NaN renders as null, so patch that one field before comparing
        let mut expected = json;
        if let Json::Obj(pairs) = &mut expected {
            if let Some(Json::Arr(rows)) = pairs
                .iter_mut()
                .find(|(k, _)| k == "frontier")
                .map(|(_, v)| v)
            {
                if let Some(Json::Obj(row)) = rows.first_mut() {
                    row.iter_mut()
                        .find(|(k, _)| k == "nan_becomes")
                        .expect("the fixture has the field")
                        .1 = Json::Null;
                }
            }
        }
        assert_eq!(reparsed, expected);
    }

    #[test]
    fn accessors_walk_parsed_trees() {
        let doc = Json::parse("{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": 7}}").unwrap();
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Int(7)));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[1], Json::Num(2.5), "a decimal must not parse as an Int");
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(arr[2].get("a"), None, "get on a non-object is None");
    }

    #[test]
    fn hostile_text_is_a_typed_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "1e",
            "-",
            "01x",
            "[1] trailing",
            "{\"a\": 1} {}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // surrogate escapes degrade to the replacement character
        assert_eq!(
            Json::parse("\"\\ud800\"").unwrap(),
            Json::Str("\u{fffd}".to_string())
        );
    }
}
