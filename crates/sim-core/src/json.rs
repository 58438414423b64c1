//! The workspace's one JSON implementation: an order-preserving [`Value`],
//! one writer with one fixed layout, and one strict parser.
//!
//! Every JSON document the reproduction emits (figure reports, the sweep
//! record, the hot-path record, affinity profiles, Chrome traces, metrics
//! exports) is built as a [`Value`] and rendered by [`Value::render`], so
//! they all share one layout:
//!
//! * a top-level object puts one member per line at a two-space indent;
//! * a top-level member whose value is a non-empty array of objects puts one
//!   element per line at a four-space indent;
//! * everything else is inline, as `{ "k": v, "k2": v2 }` and `[a, b]`.
//!
//! Numbers are either `u64` or finite `f64`. An `f64` renders with Rust's
//! shortest round-trip `Display` (never an exponent), and a non-finite one
//! renders as `null`. A non-negative integral `f64` therefore renders like
//! an integer and parses back as [`Value::U64`]; [`Value::as_f64`] reads both
//! variants, so every finite `f64` reads back bit-exact.
//!
//! [`parse`] accepts RFC 8259 JSON only. It rejects trailing input,
//! duplicate object keys, raw control characters in strings, lone UTF-16
//! surrogates, non-finite numbers and nesting deeper than [`MAX_DEPTH`].

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests at most four levels; the limit keeps a hostile
/// file from exhausting the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// Parse results carry a message naming the problem and its byte offset.
type Result<T> = std::result::Result<T, String>;

/// A JSON value. Objects keep their members in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// Any other number. Non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` members, in order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Self {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object (`None` for a missing key or a
    /// non-object).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number. Exact for every `f64` the
    /// writer rendered and for integers up to 2^53.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render in the module's one layout (see the module docs). No trailing
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// `depth` is 0 for the document, 1 for a member of a top-level object
    /// and 2 or more anywhere else; only the first two break lines.
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                let lines = depth == 1
                    && !items.is_empty()
                    && items.iter().all(|e| matches!(e, Value::Object(_)));
                out.push('[');
                for (i, e) in items.iter().enumerate() {
                    out.push_str(match (lines, i) {
                        (true, 0) => "\n    ",
                        (true, _) => ",\n    ",
                        (false, 0) => "",
                        (false, _) => ", ",
                    });
                    e.write(out, 2);
                }
                out.push_str(if lines { "\n  ]" } else { "]" });
            }
            Value::Object(members) if members.is_empty() => out.push_str("{}"),
            Value::Object(members) => {
                let lines = depth == 0;
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(match (lines, i) {
                        (true, 0) => "\n  ",
                        (true, _) => ",\n  ",
                        (false, 0) => " ",
                        (false, _) => ", ",
                    });
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push_str(if lines { "\n}" } else { " }" });
            }
        }
    }
}

/// Quote and escape `s`: `"` and `\` backslash-escaped, `\n` `\t` `\r` by
/// name, every other control character as `\u00XX`, the rest verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::U64(n)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Self {
        Value::U64(n.into())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::U64(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::Str(s.clone())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Parse one complete JSON document (strict; see the module docs). The
/// error names the problem and its byte offset.
pub fn parse(text: &str) -> std::result::Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing input after the document"));
    }
    Ok(v)
}

/// Recursive-descent parser. `pos` only ever stops on an ASCII byte or the
/// end of input, so slicing `text` at it never splits a UTF-8 character.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> String {
        format!("{reason} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Step over `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        self.skip_ws();
        let (word, v) = match self.peek() {
            None => return Err(self.err("unexpected end of input")),
            Some(b'n') => ("null", Value::Null),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => return Err(self.err("nesting too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                return Ok(Value::Array(items));
            }
            Some(b'{') => {
                let start = self.pos;
                let mut members: Vec<(String, Value)> = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':' after a key"));
                    }
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|w| w[0] == w[1]) {
                    return Err(format!("duplicate key in object at byte {start}"));
                }
                return Ok(Value::Object(members));
            }
            Some(_) => return Err(self.err("unexpected character")),
        };
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err("unknown literal"));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn seq(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_digits = self.digits();
        // At least one digit, and no leading zero on a multi-digit integer.
        let mut well_formed = int_digits == 1
            || (int_digits > 1 && self.text.as_bytes()[self.pos - int_digits] != b'0');
        let fraction = self.eat(b'.');
        if fraction {
            well_formed &= self.digits() > 0;
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            well_formed &= self.digits() > 0;
        }
        if !well_formed {
            return Err(format!("malformed number at byte {start}"));
        }
        let text = &self.text[start..self.pos];
        if !(negative || fraction || exponent) {
            if let Ok(n) = text.parse() {
                return Ok(Value::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(format!("number out of range at byte {start}")),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        // Hex digits only: `from_str_radix` alone would also take a sign.
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        let code = code.ok_or_else(|| self.err("malformed \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// A string starting at the opening quote.
    fn string(&mut self) -> Result<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one go.
            let run_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run_start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                let at_end = self.pos == self.text.len();
                return Err(self.err(if at_end {
                    "unterminated string"
                } else {
                    "control character in a string"
                }));
            }
            let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let mut code = self.hex4()?;
                    // A high surrogate must pair with an escaped low one;
                    // `from_u32` rejects any surrogate left unpaired.
                    if (0xD800..0xDC00).contains(&code) && self.text[self.pos..].starts_with("\\u")
                    {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        }
                    }
                    out.push(char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))?);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn rejects(text: &str, reason: &str) {
        let err = parse(text).expect_err(text);
        assert!(err.starts_with(reason), "{text:?}: {err}");
    }

    #[test]
    fn layout_matches_the_report_style() {
        let v = Value::object([
            ("id", "fig\"1\"".into()),
            ("columns", ["a", "b"].into_iter().collect()),
            (
                "rows",
                Value::Array(vec![
                    Value::object([
                        ("label", "x".into()),
                        ("values", [1.5, f64::NAN].into_iter().collect()),
                    ]),
                    Value::object([("label", "y".into()), ("values", Value::Array(vec![]))]),
                ]),
            ),
            ("notes", Value::Array(vec![])),
            (
                "inner",
                Value::object([("k", Value::Null), ("o", Value::object([]))]),
            ),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"id\": \"fig\\\"1\\\"\",\n  \"columns\": [\"a\", \"b\"],\n  \"rows\": [\n    \
             { \"label\": \"x\", \"values\": [1.5, null] },\n    \
             { \"label\": \"y\", \"values\": [] }\n  ],\n  \"notes\": [],\n  \
             \"inner\": { \"k\": null, \"o\": {} }\n}"
        );
        assert_eq!(Value::object([]).render(), "{}");
        // Only a top-level object's members break lines.
        let nested = Value::Array(vec![Value::Array(vec![Value::object([(
            "a",
            1u64.into(),
        )])])]);
        assert_eq!(nested.render(), "[[{ \"a\": 1 }]]");
        assert_eq!(
            Value::F64(0.00004552355132475567).render(),
            "0.00004552355132475567"
        );
        assert_eq!(Value::F64(2.0).render(), "2");
        assert_eq!(Value::from("\u{1}\r").render(), "\"\\u0001\\r\"");
    }

    #[test]
    fn parses_standard_json() {
        let v = parse(" {\"a\" : [1, -2, 3.5e2, true, null, \"\\u00e9\\/\\b\"],\n\"b\":{}} ")
            .expect("valid");
        assert_eq!(
            v,
            Value::object([
                (
                    "a",
                    Value::Array(vec![
                        Value::U64(1),
                        Value::F64(-2.0),
                        Value::F64(350.0),
                        Value::Bool(true),
                        Value::Null,
                        Value::Str("é/\u{8}".into()),
                    ])
                ),
                ("b", Value::object([])),
            ])
        );
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        // One past u64::MAX is still a number, just not an exact integer.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::F64(18446744073709551616.0)
        );
        assert_eq!(
            parse("-0").unwrap().as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        rejects("{} x", "trailing input after the document");
        rejects("[1] ]", "trailing input after the document");
        rejects("", "unexpected end of input");
        rejects("[1,]", "unexpected character");
        rejects("[1 2]", "expected ',' or a closing bracket");
        rejects("{\"a\" 1}", "expected ':' after a key");
        rejects("{1: 2}", "expected a string key");
        rejects("\"a\nb\"", "control character in a string");
        rejects("\"tab\there\"", "control character in a string");
        rejects("\"\\x\"", "unknown escape");
        rejects("\"\\u12\"", "malformed \\u escape");
        rejects("\"\\u+123\"", "malformed \\u escape");
        rejects("\"\\ud800\"", "unpaired surrogate");
        rejects("\"\\ud800\\u0041\"", "unpaired surrogate");
        rejects("\"\\udc00\"", "unpaired surrogate");
        for bad in ["01", "-", "-01", "1.", ".5", "1e", "1e+", "+1"] {
            let err = parse(bad).expect_err(bad);
            assert!(
                err.contains("malformed number") || err.starts_with("unexpected"),
                "{bad}: {err}"
            );
        }
        rejects("1e999", "number out of range");
        rejects("NaN", "unexpected character");
        rejects("nul", "unknown literal");
        rejects("\"open", "unterminated string");
    }

    #[test]
    fn adversarial_keys_are_matched_structurally() {
        // A key's text inside a string value, and a nested object reusing
        // its parent's key, must not shadow the real member.
        let v = parse("{\"note\": \"\\\"jobs\\\": 99\", \"inner\": {\"jobs\": 7}, \"jobs\": 4}")
            .expect("valid");
        assert_eq!(v.get("jobs").and_then(Value::as_u64), Some(4));
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("jobs"))
                .and_then(Value::as_u64),
            Some(7)
        );
        assert_eq!(v.get("note").and_then(Value::as_str), Some("\"jobs\": 99"));
        // Duplicate keys are rejected at any depth; the same key in sibling
        // objects is fine.
        rejects("{\"a\": 1, \"b\": 2, \"a\": 3}", "duplicate key in object");
        rejects("[{\"k\": {\"x\": 1, \"x\": 1}}]", "duplicate key in object");
        assert!(parse("[{\"a\": 1}, {\"a\": 2}]").is_ok());
    }

    #[test]
    fn depth_limit_bounds_nesting() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        rejects(&deep, "nesting too deep");
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        rejects(&objs, "nesting too deep");
        // Far past the limit fails fast instead of overflowing the stack.
        rejects(&"[".repeat(1_000_000), "nesting too deep");
    }

    /// Numbers compare by value: an integral `F64` comes back as `U64`,
    /// and a non-finite one as `null`.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Array(x), Value::Array(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
            }
            (Value::Object(x), Value::Object(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((kp, p), (kq, q))| kp == kq && same(p, q))
            }
            (Value::F64(x), _) if !x.is_finite() => *b == Value::Null,
            (Value::F64(x), Value::F64(_) | Value::U64(_)) => {
                b.as_f64().map(f64::to_bits) == Some(x.to_bits())
            }
            _ => a == b,
        }
    }

    /// Strings mixing control characters, JSON metacharacters, non-ASCII
    /// and astral-plane characters (which `\u` escapes as surrogate pairs).
    struct ArbString;

    impl Strategy for ArbString {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            const PICKS: [char; 16] = [
                '"',
                '\\',
                '/',
                'a',
                'Z',
                '7',
                ' ',
                '\u{7f}',
                'é',
                'Δ',
                '中',
                '\u{2028}',
                '\u{ffff}',
                '😀',
                '𝄞',
                '\u{10ffff}',
            ];
            (0..rng.below(12))
                .map(|_| match rng.below(3) {
                    0 => char::from_u32(rng.below(0x20) as u32).expect("ascii"),
                    _ => PICKS[rng.below(PICKS.len() as u64) as usize],
                })
                .collect()
        }
    }

    /// Values nested up to `.0` levels, with every `f64` bit pattern,
    /// `u64` extremes and unique object keys.
    struct ArbValue(u32);

    impl Strategy for ArbValue {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            match rng.below(if self.0 == 0 { 6 } else { 8 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::U64(match rng.below(4) {
                    0 => u64::MAX,
                    1 => (1 << 53) + 1,
                    2 => rng.below(1000),
                    _ => rng.next_u64(),
                }),
                3 => Value::F64(f64::from_bits(rng.next_u64())),
                4 => Value::F64((rng.unit_f64() - 0.5) * 1e6),
                5 => Value::Str(ArbString.generate(rng)),
                6 => Value::Array(
                    (0..rng.below(5))
                        .map(|_| ArbValue(self.0 - 1).generate(rng))
                        .collect(),
                ),
                _ => {
                    let mut members: Vec<(String, Value)> = Vec::new();
                    for _ in 0..rng.below(5) {
                        let key = ArbString.generate(rng);
                        let v = ArbValue(self.0 - 1).generate(rng);
                        if members.iter().all(|(k, _)| *k != key) {
                            members.push((key, v));
                        }
                    }
                    Value::Object(members)
                }
            }
        }
    }

    /// Every `f64` bit pattern: NaNs, infinities, subnormals, both zeros.
    struct AnyBits;

    impl Strategy for AnyBits {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            f64::from_bits(rng.next_u64())
        }
    }

    proptest! {
        #[test]
        fn values_round_trip(v in ArbValue(3)) {
            let text = v.render();
            let back = parse(&text).expect("the writer emits valid JSON");
            prop_assert!(same(&v, &back), "{v:?} -> {text} -> {back:?}");
            // The layout is a fixpoint.
            prop_assert_eq!(back.render(), text);
        }

        #[test]
        fn floats_round_trip_bit_exact(x in AnyBits) {
            let back = parse(&Value::F64(x).render()).expect("valid");
            if x.is_finite() {
                prop_assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()));
            } else {
                prop_assert_eq!(back, Value::Null);
            }
        }

        #[test]
        fn escaped_strings_round_trip(s in ArbString) {
            // Also through `\u` escapes for every char, surrogate pairs
            // included, the way other JSON tools may write them.
            let mut escaped = String::from("\"");
            for unit in s.encode_utf16() {
                escaped.push_str(&format!("\\u{unit:04X}"));
            }
            escaped.push('"');
            prop_assert_eq!(parse(&escaped).expect("valid"), Value::Str(s.clone()));
            prop_assert_eq!(parse(&Value::Str(s.clone()).render()).expect("valid"), Value::Str(s));
        }
    }
}
