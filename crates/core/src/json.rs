//! A minimal self-contained JSON tree: parser, writer, and typed
//! accessors.
//!
//! The build environment has no crates.io access, so the artifact layer
//! (`crate::artifact`) cannot use `serde`; this module is the hand-rolled
//! substitute. It supports the full JSON value grammar with two
//! deliberate simplifications, both fine for artifacts we both write and
//! read:
//!
//! * numbers are stored as `f64` (artifact code encodes `u64` quantities
//!   such as RNG state words as *strings* to stay lossless);
//! * object keys keep insertion order (no hashing), which also makes the
//!   writer deterministic.
//!
//! # Example
//!
//! ```
//! use gdf_core::json::Json;
//!
//! let v = Json::parse(r#"{"name": "s27", "faults": [1, 2.5], "ok": true}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("s27"));
//! assert_eq!(v.get("faults").unwrap().as_array().unwrap().len(), 2);
//! let text = v.to_string();
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

use std::fmt;

/// Parse-time resource bounds. The parser is recursive-descent, so
/// unbounded nesting would overflow the stack, and the tree it builds is
/// a few times larger than the input text — both must be capped before
/// untrusted (network-facing) input is accepted.
///
/// [`Json::parse`] uses [`ParseLimits::default`], generous enough for any
/// artifact this workspace writes; `gdf serve` parses request bodies with
/// the tighter [`ParseLimits::network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input length in bytes.
    pub max_bytes: usize,
    /// Maximum nesting depth of arrays/objects (a scalar document has
    /// depth 0, `[{"a": 1}]` has depth 2).
    pub max_depth: usize,
}

impl Default for ParseLimits {
    /// 64 MiB, 128 levels.
    fn default() -> Self {
        ParseLimits {
            max_bytes: 64 << 20,
            max_depth: 128,
        }
    }
}

impl ParseLimits {
    /// The bounds for adversarial input: 8 MiB, 64 levels. Every document
    /// the `gdf serve` wire protocol defines fits with a wide margin.
    pub fn network() -> Self {
        ParseLimits {
            max_bytes: 8 << 20,
            max_depth: 64,
        }
    }
}

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What was expected.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected) under [`ParseLimits::default`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Self::parse_with_limits(text, ParseLimits::default())
    }

    /// Parses under explicit [`ParseLimits`]; over-deep or over-long
    /// input returns an error instead of recursing without bound.
    pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<Json, JsonError> {
        if text.len() > limits.max_bytes {
            return Err(JsonError {
                offset: 0,
                message: format!(
                    "input is {} bytes, limit is {}",
                    text.len(),
                    limits.max_bytes
                ),
            });
        }
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number
    /// small enough for `f64` to represent exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The bool inside, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes with 2-space indentation (stable field order — objects
    /// keep insertion order).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        out.push_str(&"  ".repeat(indent + 1));
                    }
                    write_escaped(out, k);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    v.write(out, indent + 1, pretty);
                }
                if pretty {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Bumps the nesting depth on entry to an array/object; the matching
    /// decrement happens in `close_nested`.
    fn enter_nested(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.err(format!("nesting deeper than {} levels", self.max_depth)));
        }
        Ok(())
    }

    fn close_nested<T>(&mut self, value: T) -> Result<T, JsonError> {
        self.depth -= 1;
        Ok(value)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter_nested()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return self.close_nested(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return self.close_nested(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter_nested()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return self.close_nested(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return self.close_nested(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by our artifacts;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one go.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nb\"c\u0041""#).unwrap(),
            Json::Str("a\nb\"cA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}], "c": ""}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some(""));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[1].get("b").unwrap().is_null());
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let src = r#"{"s":"\\x\n","arr":[1,2.5,true,null,[]],"o":{},"n":-7}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn unicode_survives() {
        let v = Json::parse(r#""päper ↦ s27""#).unwrap();
        assert_eq!(v.as_str(), Some("päper ↦ s27"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn multi_megabyte_strings_parse_in_one_pass() {
        // One unit holds non-ASCII text and every escape the grammar
        // has; a quadratic scan would not finish on this document.
        let unit_doc = r#"päper ↦ s27 \"q\" \\ \/ \n\r\t\b\f \u0041\u00e9 "#;
        let unit_str = "päper ↦ s27 \"q\" \\ / \n\r\t\u{8}\u{c} Aé ";
        let reps = (3 << 20) / unit_doc.len();
        let doc = format!("[\"{}\"]", unit_doc.repeat(reps));
        let expected = unit_str.repeat(reps);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_array().and_then(|a| a[0].as_str()), Some(&*expected));
        let s = Json::Str(expected);
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn deeply_nested_input_errors_instead_of_recursing() {
        // A parser without a depth bound would blow the stack on this
        // long before finding the missing closers.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Mixed nesting right at the boundary: depth max_depth parses,
        // depth max_depth + 1 does not.
        let limits = ParseLimits {
            max_bytes: 1 << 20,
            max_depth: 10,
        };
        let ok = format!("{}0{}", "[".repeat(10), "]".repeat(10));
        assert!(Json::parse_with_limits(&ok, limits).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(11), "]".repeat(11));
        assert!(Json::parse_with_limits(&too_deep, limits).is_err());
    }

    #[test]
    fn oversized_input_is_rejected_up_front() {
        let limits = ParseLimits {
            max_bytes: 64,
            max_depth: 16,
        };
        let big = format!("\"{}\"", "x".repeat(1000));
        let err = Json::parse_with_limits(&big, limits).unwrap_err();
        assert!(err.message.contains("limit"), "{err}");
        assert!(Json::parse_with_limits("\"small\"", limits).is_ok());
    }

    #[test]
    fn truncated_documents_error_cleanly() {
        // Every prefix of a valid document must parse or error — never
        // panic, never loop.
        let full = r#"{"a": [1, {"b": "x\u0041"}, -2.5e3], "c": null}"#;
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let _ = Json::parse(&full[..cut]);
        }
        assert!(Json::parse(r#"{"a": [1,"#).is_err());
        assert!(Json::parse(r#""ends with backslash \"#).is_err());
        assert!(Json::parse(r#""\u00"#).is_err());
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("{\"k\"").is_err());
    }

    #[test]
    fn malformed_network_payloads_error() {
        for bad in [
            "\u{0}", "[1 2]", "{\"a\":}", "{1: 2}", "tru", "+1", "01x", "\"\\q\"", "[,]", "{,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
