//! Minimal hand-rolled JSON: enough for self-describing checkpoint
//! records, run manifests, and the `cardopc-serve` wire format, with zero
//! external dependencies (the build containers have no crates.io access).
//!
//! Numbers are written with Rust's `f64` `Display`, which produces the
//! shortest decimal string that round-trips to the same bits — so a value
//! written by one run and parsed by a resumed run recovers the *exact*
//! `f64`, making checkpointed geometry and metrics lossless. Object keys
//! keep insertion order, so serialisation is deterministic.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object member by key (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional numbers).
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= usize::MAX as f64 {
            Some(v as usize)
        } else {
            None
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members (insertion-ordered `(key, value)`
    /// pairs).
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume the whole input up to trailing
    /// whitespace).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Convenience constructors used by the manifest/checkpoint writers.
impl Json {
    /// A number from any integer-ish count.
    pub fn num_usize(v: usize) -> Json {
        Json::Num(v as f64)
    }

    /// An object from key/value pairs.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of numbers.
    pub fn num_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Maximum container nesting the parser accepts. Recursion depth is
/// proportional to nesting, so an attacker-supplied document like
/// `"["×1e6` would otherwise overflow the stack — an uncatchable abort,
/// not a panic. Legitimate checkpoint/wire documents nest < 10 deep.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting (arrays + objects entered).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
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
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the run of plain bytes in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
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
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        // `parse` rounds an overflowing literal (`1e999`) to ±∞, which no
        // `Num` may hold; underflow to zero is an ordinary rounding.
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number '{text}' at byte {start}"))
    }

    /// Enters one container level; errors past [`MAX_PARSE_DEPTH`] so a
    /// hostile `[[[[...` cannot overflow the call stack (which would abort
    /// the process — stack overflow is not a catchable panic).
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_PARSE_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_structures() {
        let v = Json::obj(vec![
            ("name", Json::Str("gcd[0] \"quoted\"\n".into())),
            ("tile", Json::num_usize(17)),
            ("epe", Json::num_arr(&[1.5, -0.25, 0.1000000000000001])),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![("k", Json::Num(-3.5e-7))])]),
            ),
        ]);
        let text = v.to_string_compact();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn as_obj_exposes_ordered_members() {
        let v = Json::obj(vec![("b", Json::num_usize(2)), ("a", Json::num_usize(1))]);
        let members = v.as_obj().unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert!(Json::Arr(vec![]).as_obj().is_none());
        assert!(Json::Null.as_obj().is_none());
    }

    #[test]
    fn float_roundtrip_is_bit_exact() {
        // Display prints shortest-roundtrip decimals: parse must recover
        // the exact bits for awkward values.
        for v in [
            0.1 + 0.2,
            std::f64::consts::PI,
            1.0 / 3.0,
            -1.2345678901234567e-300,
            6.02214076e23,
            f64::MIN_POSITIVE,
        ] {
            let text = Json::Num(v).to_string_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v} round-trip");
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn overflowing_numbers_rejected_underflow_rounds_to_zero() {
        for bad in ["1e999", "-1e999", "[1, 1e999]", "{\"cps\":[0.5,-1E+400]}"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("invalid number"), "{bad:?}: {err}");
        }
        for (tiny, zero) in [("1e-999", 0.0f64), ("-1e-999", -0.0)] {
            let v = Json::parse(tiny).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), zero.to_bits(), "{tiny}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // A 4 MB request body of '[' must come back as a parse error; the
        // pre-limit parser recursed once per byte and aborted the process.
        for pathological in [
            "[".repeat(1_000_000),
            "{\"k\":".repeat(500_000),
            format!("{}1{}", "[".repeat(1_000_000), "]".repeat(1_000_000)),
        ] {
            let err = Json::parse(&pathological).unwrap_err();
            assert!(err.contains("nesting"), "unexpected error: {err}");
        }
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let deepest = MAX_PARSE_DEPTH;
        let ok = format!("{}1{}", "[".repeat(deepest), "]".repeat(deepest));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(deepest + 1), "]".repeat(deepest + 1));
        assert!(Json::parse(&too_deep).is_err());

        // Depth is nesting, not total container count: a long *flat*
        // document is fine because siblings re-use the same level.
        let flat = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(Json::parse(&flat).is_ok());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 3, "b": [1, true], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_usize), Some(3));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
    }
}
