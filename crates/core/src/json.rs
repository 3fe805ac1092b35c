//! Hand-rolled JSON value type, serializer and parser.
//!
//! The workspace builds in environments with no access to crates.io, so
//! this module stands in for the tiny slice of `serde_json` the tree
//! needs — in the same spirit as `opm-rng` (a `rand` stand-in) and
//! `opm-par` (a `rayon` stand-in). It is shared by the `opm-serve`
//! daemon (request bodies, responses, `/metrics`) and the bench bins
//! (`sweep`, `serve_bench`) so every JSON artifact in the tree is
//! produced and consumed by one implementation.
//!
//! Two deliberate choices:
//!
//! - **Floats serialize with `{:e}`** (e.g. `1.5e-3`, `0e0`) — Rust's
//!   float formatting is shortest-round-trip, so a serialized `f64`
//!   parses back to the *identical bits*. That property is what lets
//!   the serve bench assert `max_abs_delta == 0` between results that
//!   crossed the wire. Non-finite floats serialize as `null` (JSON has
//!   no NaN/∞).
//! - **Objects preserve insertion order** (a `Vec` of pairs, not a
//!   map), so emitted documents are deterministic and diffable.
//!
//! ```
//! use opm_core::json::Json;
//! let doc = Json::Obj(vec![
//!     ("hits".into(), Json::Int(3)),
//!     ("rate".into(), Json::Num(0.75)),
//! ]);
//! assert_eq!(doc.to_string(), r#"{"hits": 3, "rate": 7.5e-1}"#);
//! let back = Json::parse(&doc.to_string()).unwrap();
//! assert_eq!(back.get("rate").unwrap().as_f64(), Some(0.75));
//! ```

use std::fmt;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent that fits `i64` (counters,
    /// sizes — serialized without an exponent).
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of `f64` values.
    pub fn num_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of [`Json::Int`] or [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v <= u32::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The string value of [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value of [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members of [`Json::Obj`], in insertion order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v:e}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Nesting cap: far deeper than any legitimate request, shallow enough
/// that a hostile `[[[[…` body cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    text: &'s str,
    bytes: &'s [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.into(),
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

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')
            .map_err(|_| self.err("expected a string"))?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece. Those bytes are ASCII, so both ends of
            // the run are char boundaries of the input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            self.pos = run.map_or(self.bytes.len(), |n| start + n);
            out.push_str(&self.text[start..self.pos]);
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uD8xx\uDCxx.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(JsonError {
                at: start,
                msg: format!("invalid number `{text}`"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structure() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("b".into(), Json::Bool(true)),
            ("s".into(), Json::str("hi \"there\"\n")),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.1, -0.0, 1e-300, 2.5e300, 1.0 / 3.0, f64::MIN_POSITIVE] {
            let text = Json::Num(v).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn zero_serializes_as_the_ci_grep_expects() {
        assert_eq!(Json::Num(0.0).to_string(), "0e0");
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("4.0").unwrap(), Json::Num(4.0));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aé\t😀 π""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aé\t😀 π");
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\u{1}\"").is_err());
    }

    /// Seeded strings over every escape form, surrogate pairs,
    /// multibyte UTF-8 and control characters parse back exactly, both
    /// as `Display` writes them and as hand-written `\\u` escapes; a
    /// raw control byte fails at its own offset and a missing close
    /// quote at the end of the input.
    #[test]
    fn seeded_strings_round_trip() {
        use opm_rng::StdRng;
        use std::fmt::Write as _;
        const CHARS: [char; 20] = [
            'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}',
            '\u{1f}', '\u{7f}', 'é', 'π', '€', '\u{ffff}', '😀',
        ];
        let mut rng = StdRng::seed_from_u64(0x15);
        for _ in 0..400 {
            let s: String = (0..rng.random_range(0..48usize))
                .map(|_| CHARS[rng.random_range(0..CHARS.len())])
                .collect();
            let written = Json::str(s.clone()).to_string();
            assert_eq!(Json::parse(&written), Ok(Json::Str(s.clone())), "{written}");

            // One piece per char: verbatim where JSON allows it, else
            // (and at random) as `\\u` escapes, UTF-16 pairs above the BMP.
            let mut pieces = vec!["\"".to_string()];
            for c in s.chars() {
                let verbatim = c >= ' ' && c != '"' && c != '\\';
                if verbatim && rng.random_range(0..2usize) == 0 {
                    pieces.push(c.to_string());
                } else {
                    let mut piece = String::new();
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        let _ = write!(piece, "\\u{unit:04X}");
                    }
                    pieces.push(piece);
                }
            }
            pieces.push("\"".to_string());
            let text = pieces.concat();
            assert_eq!(Json::parse(&text), Ok(Json::Str(s.clone())), "{text}");

            let cut = rng.random_range(1..pieces.len());
            let at: usize = pieces[..cut].iter().map(String::len).sum();
            let mut raw = text.clone();
            raw.insert(at, char::from(rng.random_range(0..0x20usize) as u8));
            let e = Json::parse(&raw).unwrap_err();
            assert_eq!(
                (e.at, e.msg.as_str()),
                (at, "unescaped control character in string")
            );

            let open = &text[..text.len() - 1];
            let e = Json::parse(open).unwrap_err();
            assert_eq!((e.at, e.msg.as_str()), (open.len(), "unterminated string"));
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.msg.contains("deep"), "{e}");
    }

    #[test]
    fn non_finite_serializes_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert!(Json::parse("NaN").is_err());
    }

    #[test]
    fn getters() {
        let doc = Json::parse(r#"{"n": 3, "xs": [1.5], "flag": false}"#).unwrap();
        assert_eq!(doc.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(doc.get("xs").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.get("flag").unwrap().as_bool(), Some(false));
        assert!(doc.get("missing").is_none());
    }
}
