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
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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

/// Appends `v` as [`Json::Num`] writes it: the shortest decimal that
/// parses back to the same bits (Rust's `f64` `Display`), `null` when `v`
/// is not finite. The one number writer, behind the tree encoder and the
/// direct writers of manifests and tile lines.
pub fn write_num(out: &mut String, v: f64) {
    // An integer below 2^53 has no shorter decimal than its digits, so
    // `Display` prints exactly them: write them without the float
    // formatter. (-0 keeps the formatter's "-0"; NaN fails the range test.)
    if v.abs() < EXACT_INT {
        let int = v as i64;
        if int as f64 == v && (int != 0 || v.is_sign_positive()) {
            return write_digits(out, int.unsigned_abs(), int < 0);
        }
    }
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A count as [`Json::num_usize`] holds it (`v as f64`), written by
/// [`write_num`] — below 2^53, where that is exact, straight from the
/// integer.
pub fn write_count(out: &mut String, v: usize) {
    match (v as u64) < EXACT_INT as u64 {
        true => write_digits(out, v as u64, false),
        false => write_num(out, v as f64),
    }
}

/// 2^53: every integer below it is an exact `f64`.
const EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn write_digits(out: &mut String, mut n: u64, negative: bool) {
    let mut buf = [0u8; 21];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal, quoted and escaped as
/// [`Json::Str`] writes it. The one string writer, like [`write_num`].
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    // Runs that need no escape are copied whole.
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        plain = i + c.len_utf8();
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Reads the number token at the start of `bytes` as [`Json::parse`]
/// does: an optional `-`, then every byte of `0-9 . e E + -`, parsed as
/// an `f64`. Returns the value — `None` when the token is not a number or
/// overflows to ±∞ — and the token's length. The one number reader,
/// behind the tree parser and the direct tile-line reader.
pub fn read_num(bytes: &[u8]) -> (Option<f64>, usize) {
    let sign = usize::from(bytes.first() == Some(&b'-'));
    let digits = bytes[sign..]
        .iter()
        .take_while(|&&b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        .count();
    let len = sign + digits;
    // The token is ASCII. `parse` rounds an overflowing literal (`1e999`)
    // to ±∞, which no `Num` may hold; underflow to zero is an ordinary
    // rounding.
    let text = std::str::from_utf8(&bytes[..len]).expect("ASCII token");
    let value = text.parse::<f64>().ok().filter(|v| v.is_finite());
    (value, len)
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
        let (value, len) = read_num(&self.bytes[start..]);
        self.pos += len;
        value.map(Json::Num).ok_or_else(|| {
            let text = String::from_utf8_lossy(&self.bytes[start..self.pos]);
            format!("invalid number '{text}' at byte {start}")
        })
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

    /// The char-by-char escaper `write_str` replaced.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// Tiny xorshift, so the oracles need no dependency.
    fn draws(seed: u64) -> impl Iterator<Item = u64> {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
    }

    /// Test-time case count: `PROPTEST_CASES` (as the proptest suites), else
    /// `default`.
    fn cases(default: usize) -> usize {
        let set = std::env::var("PROPTEST_CASES").ok();
        set.and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    #[test]
    fn number_writer_is_the_display_formatter() {
        let formatted = |v: f64| {
            let mut out = String::new();
            write_num(&mut out, v);
            out
        };
        let display = |v: f64| match v.is_finite() {
            true => format!("{v}"),
            false => "null".to_string(),
        };
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            EXACT_INT,
            -EXACT_INT,
            EXACT_INT.next_down(),
            -EXACT_INT.next_down(),
            1e21,
            4096.0,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        let mut draw = draws(0x9e37_79b9_7f4a_7c15);
        for _ in 0..cases(256) * 16 {
            let bits = draw.next().unwrap();
            values.push(f64::from_bits(bits));
            // Integers of every size, both signs, and counts.
            let int = (bits >> (bits % 64)) as i64 as f64;
            values.extend([int, -int, (bits % 100_000) as f64]);
        }
        for v in values {
            assert_eq!(formatted(v), display(v), "{v:e} ({:#x})", v.to_bits());
        }
        let mut counts = vec![0, 1, 9, 10, 4096, 1 << 53, (1 << 53) + 1, usize::MAX];
        for _ in 0..cases(256) * 16 {
            let bits = draw.next().unwrap() as usize;
            counts.extend([bits, bits >> (bits % 64), bits % 100_000]);
        }
        for v in counts {
            let mut out = String::new();
            write_count(&mut out, v);
            assert_eq!(out, Json::num_usize(v).to_string_compact(), "{v}");
        }
    }

    #[test]
    fn string_writer_escapes_as_the_char_loop() {
        let alphabet = [
            'a', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', ' ', 'é', '✓', '😀',
        ];
        let mut draw = draws(0x2545_f491_4f6c_dd1d);
        let mut samples = vec![String::new(), "plain".into(), "gcd[0]:1x0".into()];
        for _ in 0..cases(256) * 4 {
            let len = draw.next().unwrap() % 12;
            let pick = |_| alphabet[(draw.next().unwrap() % alphabet.len() as u64) as usize];
            samples.push((0..len).map(pick).collect());
        }
        for s in samples {
            let mut out = String::new();
            write_str(&mut out, &s);
            assert_eq!(out, escaped_by_char(&s), "{s:?}");
            assert_eq!(Json::parse(&out).unwrap(), Json::Str(s));
        }
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
