//! Offline stand-in for the `serde_json` crate.
//!
//! Emits JSON through the [`serde`] stand-in's owned value tree, and parses
//! JSON text into that tree: [`from_str`] yields a [`Value`], the only type
//! the stand-ins decode.  Supports everything this workspace serializes; see
//! the `serde` crate's documentation for the (few, deliberate)
//! representation differences from real serde_json — most notably, maps
//! emit as arrays of `[key, value]` pairs rather than string-keyed objects.

#![forbid(unsafe_code)]

use serde::{Deserialize, Number, Serialize};

pub use serde::Error;
pub use serde::Value;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0)?;
    Ok(out)
}

/// Serializes `value` to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0)?;
    Ok(out)
}

/// Incremental writer of line-delimited JSON (JSONL / NDJSON).
///
/// Serializes one value per [`write`](LineWriter::write) call, terminated by
/// a single `\n`, directly into the underlying [`std::io::Write`] — the
/// document is never buffered as a whole, so a stream of millions of records
/// costs only the largest single line.  The internal line buffer is reused
/// across calls; after the warm-up line, steady-state writes allocate only
/// when a line outgrows every previous one.
///
/// ```
/// let mut out = Vec::new();
/// let mut w = serde_json::LineWriter::new(&mut out);
/// w.write(&1u32).unwrap();
/// w.write(&vec![2u32, 3]).unwrap();
/// assert_eq!(out, b"1\n[2,3]\n");
/// ```
#[derive(Debug)]
pub struct LineWriter<W: std::io::Write> {
    writer: W,
    buf: String,
}

impl<W: std::io::Write> LineWriter<W> {
    /// Wraps `writer` for line-delimited output.
    pub fn new(writer: W) -> Self {
        LineWriter {
            writer,
            buf: String::new(),
        }
    }

    /// Serializes `value` compactly and writes it as one `\n`-terminated
    /// line.
    ///
    /// # Errors
    ///
    /// Returns serialization failures (e.g. non-finite floats) and I/O errors
    /// from the underlying writer, both as [`Error`].
    pub fn write<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.buf.clear();
        write_value(&mut self.buf, &value.to_value(), None, 0)?;
        self.buf.push('\n');
        self.writer
            .write_all(self.buf.as_bytes())
            .map_err(|e| Error::custom(format!("I/O error writing JSONL line: {e}")))
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer as [`Error`].
    pub fn flush(&mut self) -> Result<(), Error> {
        self.writer
            .flush()
            .map_err(|e| Error::custom(format!("I/O error flushing JSONL writer: {e}")))
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

/// Parses a JSON string into a [`Value`], the one type that implements
/// [`Deserialize`] (the signature keeps real serde_json's
/// `from_str::<Value>` form).
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        input: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------------------
// Emission

fn write_value(
    out: &mut String,
    value: &Value,
    indent: Option<usize>,
    depth: usize,
) -> Result<(), Error> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n)?,
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) -> Result<(), Error> {
    match n {
        Number::UInt(v) => out.push_str(&v.to_string()),
        Number::Int(v) => out.push_str(&v.to_string()),
        Number::Float(f) => {
            if !f.is_finite() {
                return Err(Error::custom("JSON cannot represent NaN or infinity"));
            }
            if f == f.trunc() && f.abs() < 1e15 {
                // Keep a fractional part so the value reads back as a float.
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&format!("{f}"));
            }
        }
    }
    Ok(())
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing

/// Maximum nesting depth accepted by the parser (matches real serde_json's
/// recursion limit), so malformed input returns `Err` instead of blowing the
/// stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            None => Err(Error::custom("unexpected end of JSON input")),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::custom(format!(
                "unexpected character `{}` at offset {}",
                other as char, self.pos
            ))),
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::custom(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.enter()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
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
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a low surrogate must follow.
                                if !(self.eat_literal("\\u")) {
                                    return Err(Error::custom("unpaired surrogate"));
                                }
                                let second = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(Error::custom("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid unicode escape"))?,
                            );
                            continue;
                        }
                        other => {
                            return Err(Error::custom(format!("invalid escape: {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // `pos` only ever advances by whole characters, so it is
                    // a char boundary of the original &str and the next char
                    // can be decoded without revalidating the tail.
                    let c = self.input[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| Error::custom("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::custom("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::custom("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| Error::custom("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::Float(v)))
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<Value, Error> {
        from_str(json)
    }

    fn string(s: &str) -> Value {
        Value::String(s.to_string())
    }

    #[test]
    fn emits_and_parses_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(parse("42").unwrap(), Value::Number(Number::UInt(42)));
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(parse("-7").unwrap(), Value::Number(Number::Int(-7)));
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::Number(Number::Float(2.0)));
        assert_eq!(to_string("a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(parse("\"a\\\"b\\n\"").unwrap(), string("a\"b\n"));
        assert_eq!(
            parse(r#""\/\t\u00e9\ud83d\ude00""#).unwrap(),
            string("/\t\u{e9}\u{1f600}")
        );
    }

    #[test]
    fn emits_and_parses_containers() {
        let json = to_string(&vec![1u32, 2, 3]).unwrap();
        assert_eq!(json, "[1,2,3]");
        let uint = |n| Value::Number(Number::UInt(n));
        assert_eq!(
            parse(&json).unwrap(),
            Value::Array(vec![uint(1), uint(2), uint(3)])
        );

        let mut m = std::collections::BTreeMap::new();
        m.insert(3u32, "x".to_string());
        let json = to_string(&m).unwrap();
        assert_eq!(json, "[[3,\"x\"]]");
        assert_eq!(
            parse(&json).unwrap(),
            Value::Array(vec![Value::Array(vec![uint(3), string("x")])])
        );
        assert_eq!(
            parse(r#"{"a": [], "b": {}}"#).unwrap(),
            Value::Object(vec![
                ("a".to_string(), Value::Array(vec![])),
                ("b".to_string(), Value::Object(vec![])),
            ])
        );
    }

    #[test]
    fn pretty_prints_with_two_space_indent() {
        let v = vec![vec![1u32], vec![]];
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "[\n  [\n    1\n  ],\n  []\n]"
        );
    }

    #[test]
    fn line_writer_streams_one_compact_line_per_value() {
        let mut out = Vec::new();
        let mut w = LineWriter::new(&mut out);
        w.write(&42u64).unwrap();
        w.write("a\nb").unwrap();
        w.write(&vec![1u32, 2]).unwrap();
        w.flush().unwrap();
        assert_eq!(out, b"42\n\"a\\nb\"\n[1,2]\n");
    }

    #[test]
    fn line_writer_reports_serialization_and_io_errors() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = LineWriter::new(Full);
        assert!(w.write(&f64::NAN).unwrap_err().to_string().contains("NaN"));
        assert!(w
            .write(&1u32)
            .unwrap_err()
            .to_string()
            .contains("disk full"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("recursion limit"));
    }

    #[test]
    fn long_strings_parse_quickly() {
        let body: String = "x".repeat(1_000_000);
        let json = format!("\"{body}\"");
        let start = std::time::Instant::now();
        assert_eq!(parse(&json).unwrap(), string(&body));
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }
}
