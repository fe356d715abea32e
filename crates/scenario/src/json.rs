//! JSON ↔ [`serde::Value`] conversion: a compact deterministic writer and a
//! recursive-descent parser. Scenario specs load from JSON files and sweep
//! results stream out as JSONL rows.

use serde::{Error, Value};

/// Serialises a value as compact JSON (no whitespace, map order preserved
/// — byte-stable for identical inputs, which the determinism guarantees of
/// the sweep engine rely on).
pub fn to_json(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Shortest round-trip formatting; integral floats keep a
                // trailing `.0` so they re-parse as floats.
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // JSON has no Inf/NaN; encode as null like serde_json.
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so an unbounded depth would let one short
/// line (`[[[[…`) overflow the stack and abort the process; specs and
/// wire frames nest fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] on malformed input, trailing garbage, or nesting
/// deeper than [`MAX_DEPTH`].
pub fn parse_json(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.nested(Self::map),
            Some(b'[') => self.nested(Self::seq),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {} of JSON input",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "JSON nests deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("non-UTF8 number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else {
            // Positive integers above i64::MAX (e.g. u64 seeds).
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid integer `{text}`")))
        }
    }

    fn hex4_at(&self, start: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?,
            16,
        )
        .map_err(|_| Error::new("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string in JSON input")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4_at(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..=0xDBFF).contains(&hi) {
                                // RFC 8259: astral characters arrive as a
                                // surrogate pair of \u escapes.
                                if self.bytes.get(self.pos + 1) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 2) == Some(&b'u')
                                {
                                    let lo = self.hex4_at(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(Error::new(
                                            "invalid low surrogate in \\u escape",
                                        ));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::new("lone high surrogate in \\u escape"));
                                }
                            } else if (0xDC00..=0xDFFF).contains(&hi) {
                                return Err(Error::new("lone low surrogate in \\u escape"));
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::new("non-UTF8 string content"))?;
                    let c = rest.chars().next().expect("non-empty rest");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn seq(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_value() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("a/b \"q\"".into())),
            ("n".into(), Value::Int(-3)),
            ("x".into(), Value::Float(1.5)),
            ("whole".into(), Value::Float(2.0)),
            ("flag".into(), Value::Bool(true)),
            ("null".into(), Value::Null),
            (
                "seq".into(),
                Value::Seq(vec![Value::Int(1), Value::Str("two".into())]),
            ),
        ]);
        let s = to_json(&v);
        assert_eq!(parse_json(&s).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let s = to_json(&Value::Float(2.0));
        assert_eq!(s, "2.0");
        assert_eq!(parse_json(&s).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn parses_whitespace_and_empties() {
        let v = parse_json(" { \"a\" : [ ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v,
            Value::Map(vec![
                ("a".into(), Value::Seq(vec![])),
                ("b".into(), Value::Map(vec![])),
            ])
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Raw UTF-8 and the RFC 8259 escaped surrogate pair both decode.
        assert_eq!(parse_json(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
        assert!(parse_json(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse_json(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(
            parse_json(r#""\ud83dA""#).is_err(),
            "high surrogate followed by BMP escape"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn output_is_deterministic() {
        let v = Value::Map(vec![
            ("z".into(), Value::Int(1)),
            ("a".into(), Value::Int(2)),
        ]);
        assert_eq!(to_json(&v), to_json(&v));
        assert_eq!(to_json(&v), "{\"z\":1,\"a\":2}");
    }
}
