//! A small in-tree JSON value, serializer and recursive-descent parser.
//!
//! The workspace is offline (no serde); this module carries exactly the
//! subset the results store needs: the six JSON value kinds, compact
//! canonical serialization (object keys keep insertion order, so a value
//! serializes identically every time), and a strict parser that rejects
//! trailing garbage. Numbers are `f64`; integers up to 2^53 round-trip
//! exactly, and anything wider (fingerprints, checksums) is stored as a
//! hex string instead.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always an `f64`; integers ≤ 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved, which makes the
    /// serialization canonical for a given construction order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look a key up in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document. Trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with a byte offset on malformed input,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the least-surprising degradation.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        // Rust's shortest-round-trip float formatting.
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// A parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap a corrupt input of nested
/// brackets would overflow the stack instead of failing to parse.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one slice.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: read the low half if the
                            // high half opens one.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            // hex4 leaves pos after the 4 digits; skip the
                            // shared `pos += 1` below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Read exactly four hex digits (after `\u`), leaving `pos` past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits after \\u"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Num(0.0)),
            ("-7", Json::Num(-7.0)),
            ("2.5", Json::Num(2.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value);
            assert_eq!(Json::parse(&value.to_string_compact()).unwrap(), value);
        }
    }

    #[test]
    fn nested_document_roundtrips() {
        let doc = Json::obj(vec![
            ("name", Json::Str("fig5".into())),
            ("cells", Json::Arr(vec![Json::Num(1.25), Json::Num(3.0)])),
            (
                "meta",
                Json::obj(vec![("quick", Json::Bool(true)), ("none", Json::Null)]),
            ),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(
            text,
            r#"{"name":"fig5","cells":[1.25,3],"meta":{"quick":true,"none":null}}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let parsed = Json::parse(
            " { \"a\" : [ 1 , \"x\\n\\\"y\\\"\" ] ,\n\t\"u\": \"\\u00e9\\ud83d\\ude00\" } ",
        )
        .unwrap();
        assert_eq!(
            parsed.get("a").unwrap().as_arr().unwrap()[0],
            Json::Num(1.0)
        );
        assert_eq!(
            parsed.get("a").unwrap().as_arr().unwrap()[1],
            Json::Str("x\n\"y\"".into())
        );
        assert_eq!(parsed.get("u").unwrap().as_str().unwrap(), "é😀");
    }

    #[test]
    fn control_chars_escape_on_write() {
        let s = Json::Str("a\u{1}b\tc".into());
        assert_eq!(s.to_string_compact(), "\"a\\u0001b\\tc\"");
        assert_eq!(Json::parse(&s.to_string_compact()).unwrap(), s);
    }

    #[test]
    fn errors_carry_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\":}",
            "1 2",
            "nul",
            "{\"a\" 1}",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.offset <= bad.len(), "{bad}: {e}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1] [2]").is_err());
    }

    #[test]
    fn accessors() {
        let doc = Json::obj(vec![("n", Json::Num(42.0)), ("s", Json::Str("x".into()))]);
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(doc.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("s").unwrap().as_u64(), None);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn exponent_numbers_parse() {
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("2.5E-1").unwrap(), Json::Num(0.25));
        assert_eq!(Json::parse("-1.5e+2").unwrap(), Json::Num(-150.0));
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deepest = Json::parse(&nested(open, close, MAX_DEPTH)).unwrap();
            assert_eq!(Json::parse(&deepest.to_string_compact()).unwrap(), deepest);
            let e = Json::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(e.message.contains("too deep"), "{e}");
            // Far deeper than any stack could recurse, and unterminated.
            let e = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert!(e.message.contains("too deep"), "{e}");
        }
    }

    /// A record line's payload, the input the results store parses most.
    fn record_payload() -> String {
        let key = crate::record::CellKey {
            bench: "groff".into(),
            spec: "gskew:n=12,h=8".into(),
            len: 20_000,
            seed: 0x5EED_0000,
            policy: "count".into(),
        };
        crate::record::ResultRecord {
            experiment: "fig5".into(),
            fingerprint: key.fingerprint("wl", "1"),
            key,
            engine_version: "1".into(),
            conditional: 20_000,
            mispredicted: 1_234,
            novel: 17,
            elapsed_ms: 0.25,
        }
        .to_json()
        .to_string_compact()
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in collection::vec(
                prop_oneof![
                    any::<u8>(),
                    Just(b'['),
                    Just(b'{'),
                    Just(b'"'),
                    Just(b'\\'),
                    Just(b'u'),
                    Just(b'd'),
                    Just(b'8'),
                    Just(b':'),
                    Just(b','),
                    Just(b'-'),
                    Just(b'e'),
                ],
                0..200,
            )
        ) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn mutated_record_lines_never_panic(at in any::<usize>(), byte in any::<u8>(), cut in any::<bool>()) {
            let mut bytes = record_payload().into_bytes();
            let at = at % bytes.len();
            if cut {
                bytes.truncate(at);
            } else {
                bytes[at] = byte;
            }
            if let Ok(json) = Json::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = crate::record::ResultRecord::from_json(&json);
            }
        }

        #[test]
        fn u64_in_f64_range_roundtrips(n in 0u64..(1 << 53)) {
            let text = Json::Num(n as f64).to_string_compact();
            prop_assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
        }

        #[test]
        fn arbitrary_strings_roundtrip(s in "[ -~]{0,40}") {
            let value = Json::Str(s);
            let text = value.to_string_compact();
            prop_assert_eq!(Json::parse(&text).unwrap(), value);
        }

        #[test]
        fn finite_floats_roundtrip(x in -1e12f64..1e12) {
            let text = Json::Num(x).to_string_compact();
            let parsed = Json::parse(&text).unwrap().as_f64().unwrap();
            // Shortest-round-trip formatting is exact for f64.
            prop_assert_eq!(parsed, x);
        }
    }
}
