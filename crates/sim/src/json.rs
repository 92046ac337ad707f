//! The workspace's one vendored JSON codec: trace files are written and
//! read through it, and trace exports are validated with it.
//!
//! [`Value::parse`] supports the full JSON value grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null).  It is a
//! recursive-descent parser over bytes with no dependencies.  An unsigned
//! integer token (no sign, fraction or exponent) that fits `u64` is kept
//! exactly as [`Value::Integer`] — trace timestamps are nanosecond counts
//! and pass 2^53 after 104 simulated days — and every other number is held
//! as `f64`.  The encoding side is the two helpers the flat trace records
//! need, [`encode_str`] and [`encode_object`].

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer token that fits `u64`, held exactly.
    Integer(u64),
    /// Any other JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parse a JSON document.  Trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric value of a number (an [`Value::Integer`] beyond 2^53 is
    /// rounded; use [`Value::as_u64`] for those).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(n) => Some(*n as f64),
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Integer(n) => Some(*n),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Escapes a string into a quoted JSON string literal.
pub fn encode_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encodes an object from `(key, encoded value)` pairs, in the given order.
/// Each value is already JSON text: a number's `to_string()`, or a string
/// through [`encode_str`].
pub fn encode_object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&encode_str(key));
        out.push(':');
        out.push_str(value);
    }
    out.push('}');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
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
                    return Ok(Value::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape at the cursor.
    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// Decodes a `\u` escape (cursor just past the `u`) to one scalar.  A
    /// high surrogate must be followed by an escaped low surrogate — the
    /// form serializers that ASCII-escape non-BMP characters emit — and the
    /// pair becomes one scalar; a lone surrogate is rejected, not mangled.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| format!("lone surrogate in \\u escape at byte {at}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 2;
                    out.push(match self.bytes.get(self.pos - 1) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    });
                }
                Some(_) => {
                    // Consume the whole unescaped run in one step: no byte
                    // of a multi-byte UTF-8 scalar can equal '"' or '\\',
                    // and the input is a &str, so the run is valid UTF-8.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(run);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        // Only an all-digit token parses as `u64`; one too large for it
        // falls through to the nearest `f64`.
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Integer(n));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_str(line: &str) -> Option<String> {
        match Value::parse(line) {
            Ok(Value::String(s)) => Some(s),
            _ => None,
        }
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "hi\nthere", "d": true}, "e": null}"#;
        let v = Value::parse(doc).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Value::as_str),
            Some("hi\nthere")
        );
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse(r#"{"a": 1} extra"#).is_err());
        assert!(Value::parse(r#"{"a" 1}"#).is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("tru").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn decodes_escapes() {
        let v = Value::parse(r#""tab\t quote\" back\\ uA""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" back\\ uA"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(Value::parse(" [ ] ").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn numbers_round_trip() {
        for (text, expected) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("42", 42.0),
            ("-17.5", -17.5),
            ("1e3", 1000.0),
            ("2.5E-1", 0.25),
            ("379402", 379402.0),
        ] {
            assert_eq!(
                Value::parse(text).unwrap().as_f64(),
                Some(expected),
                "{text}"
            );
        }
    }

    #[test]
    fn unsigned_integers_are_exact_up_to_u64_max() {
        // 2^53 + 1 and u64::MAX are not representable as f64.
        for n in [0, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(Value::parse(&n.to_string()).unwrap().as_u64(), Some(n));
        }
        // One past u64::MAX, and anything signed or fractional, is a float.
        for text in ["18446744073709551616", "-1", "1.0", "1e3"] {
            let v = Value::parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert!(v.as_f64().is_some(), "{text}");
        }
    }

    #[test]
    fn string_roundtrip_with_escapes() {
        for s in ["plain", "has \"quotes\"", "tabs\tand\nnewlines", "païges ☃"] {
            assert_eq!(decode_str(&encode_str(s)).as_deref(), Some(s));
        }
        assert_eq!(decode_str("\"\\u0041\"").as_deref(), Some("A"));
        // Non-BMP characters arrive as UTF-16 surrogate pairs from
        // serializers that ASCII-escape their output (e.g. Python's
        // json.dumps default).
        assert_eq!(decode_str("\"\\ud83d\\ude00\"").as_deref(), Some("😀"));
        // Lone or malformed surrogates are rejected, not mangled.
        assert!(decode_str("\"\\ud83d\"").is_none());
        assert!(decode_str("\"\\ud83d\\u0041\"").is_none());
        assert!(decode_str("not json").is_none());
        assert!(decode_str("\"trailing\" junk").is_none());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar_anywhere_in_a_document() {
        // The former telemetry parser turned each half into U+FFFD.
        let doc = Value::parse(r#"{"name": ["a\ud83d\ude00b"]}"#).unwrap();
        let name = doc.get("name").and_then(Value::as_array).unwrap();
        assert_eq!(name[0].as_str(), Some("a\u{1F600}b"));
        assert!(Value::parse(r#"["\ude00"]"#).is_err());
        assert!(Value::parse(r#"["\ud83d\ud83d"]"#).is_err());
        assert!(Value::parse(r#"["\ud83d\u00"]"#).is_err());
    }

    #[test]
    fn object_roundtrip() {
        let fields = [("at_micros", 42.to_string()), ("kind", encode_str("Read"))];
        let line = encode_object(&fields);
        assert_eq!(line, r#"{"at_micros":42,"kind":"Read"}"#);
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(parsed.get("at_micros"), Some(&Value::Integer(42)));
        assert_eq!(parsed.get("kind"), Some(&Value::String("Read".to_string())));
    }

    #[test]
    fn object_tolerates_whitespace_and_rejects_garbage() {
        let parsed = Value::parse(r#" { "a" : 1 , "b" : "x" } "#).unwrap();
        assert!(matches!(&parsed, Value::Object(members) if members.len() == 2));
        assert!(Value::parse(r#"{"a":}"#).is_err());
        assert!(Value::parse(r#"{"a":1"#).is_err());
        assert!(Value::parse(r#"{"a":1} trailing"#).is_err());
        assert_eq!(Value::parse("{}").unwrap(), Value::Object(vec![]));
    }
}
