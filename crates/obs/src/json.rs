//! JSON-lines encoding of [`Event`]s, and its inverse.
//!
//! The encoding is deliberately tiny and self-contained (no external
//! crates in this offline workspace): one flat JSON object per line,
//! fields always in the order `seq, kind, name, index, value`. The
//! value uses Rust's shortest-round-trip `f64` formatting, so
//! serialize → parse reproduces the event bit-for-bit; non-finite
//! values are encoded as `null` and parsed back as NaN.

use std::borrow::Cow;
use std::fmt;
use std::io::Write;

use crate::{Event, EventKind};

impl Event {
    /// Writes the event as one JSON object (no trailing newline) in the
    /// stable field order `seq, kind, name, index, value`.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        write!(
            out,
            "{{\"seq\":{},\"kind\":\"{}\",\"name\":\"",
            self.seq,
            self.kind.as_str()
        )?;
        write_escaped(out, &self.name)?;
        write!(out, "\",\"index\":{},\"value\":", self.index)?;
        if self.value.is_finite() {
            write!(out, "{}", self.value)?;
        } else {
            write!(out, "null")?;
        }
        write!(out, "}}")
    }

    /// The event as a JSON string (one line, no newline).
    pub fn to_json(&self) -> String {
        let mut buf = Vec::with_capacity(96);
        self.write_json(&mut buf).expect("Vec write cannot fail");
        String::from_utf8(buf).expect("encoder emits UTF-8")
    }
}

/// Writes `s` as the body of a JSON string (without the quotes): `"` and
/// `\` backslash-escaped, control characters as `\n`, `\r`, `\t` or
/// `\uXXXX`.
pub fn write_escaped(out: &mut impl Write, s: &str) -> std::io::Result<()> {
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    Ok(())
}

/// Why a line failed to parse as an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the line where parsing stopped.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign (`\u+041`).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Every other step moves over ASCII bytes, so `pos`
                    // sits on a character boundary of the input.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// A non-negative JSON integer, parsed exactly. Going through f64
    /// would silently round `seq`/`index` above 2^53.
    fn integer(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected unsigned integer");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<u64>().map_err(|_| ParseError {
            message: format!("integer out of range '{text}'"),
            at: start,
        })
    }

    /// A JSON number or `null` (→ NaN), as f64.
    fn number_or_null(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected number");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        text.parse::<f64>().map_err(|_| ParseError {
            message: format!("bad number '{text}'"),
            at: start,
        })
    }
}

/// Parses one JSONL line back into an [`Event`]. Inverse of
/// [`Event::write_json`]; unknown keys are rejected, missing keys are an
/// error, key order is not enforced on input.
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let line = line.trim();
    let mut p = Parser {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut seq = None;
    let mut kind = None;
    let mut name = None;
    let mut index = None;
    let mut value = None;
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        match key.as_str() {
            "seq" => seq = Some(p.integer()?),
            "kind" => {
                let s = p.string()?;
                kind = Some(match EventKind::from_wire(&s) {
                    Some(k) => k,
                    None => return p.err(format!("unknown kind '{s}'")),
                });
            }
            "name" => name = Some(p.string()?),
            "index" => index = Some(p.integer()?),
            "value" => value = Some(p.number_or_null()?),
            other => return p.err(format!("unknown key '{other}'")),
        }
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                break;
            }
            _ => return p.err("expected ',' or '}'"),
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after object");
    }
    match (seq, kind, name, index, value) {
        (Some(seq), Some(kind), Some(name), Some(index), Some(value)) => Ok(Event {
            seq,
            kind,
            name: Cow::Owned(name),
            index,
            value,
        }),
        _ => p.err("missing field (need seq, kind, name, index, value)"),
    }
}

/// Parses a whole JSONL document (blank lines skipped) into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind, name: &'static str, index: u64, value: f64) -> Event {
        Event {
            seq,
            kind,
            name: Cow::Borrowed(name),
            index,
            value,
        }
    }

    #[test]
    fn encode_uses_stable_field_order() {
        let e = ev(5, EventKind::Gauge, "loss/css", 2, 0.125);
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"seq\":5,\"kind\":\"gauge\",\"name\":\"loss/css\",\"index\":2,\"value\":0.125}"
        );
    }

    #[test]
    fn roundtrip_exact_for_tricky_floats() {
        for &v in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-300,
            1e300,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            let e = ev(1, EventKind::Histogram, "h", 0, v);
            let back = parse_line(&e.to_json()).unwrap();
            assert_eq!(back.value.to_bits(), v.to_bits(), "value {v} changed");
        }
    }

    #[test]
    fn seq_and_index_roundtrip_exactly_above_f64_precision() {
        let e = ev(u64::MAX, EventKind::Counter, "c", u64::MAX - 1, 1.0);
        let back = parse_line(&e.to_json()).unwrap();
        assert_eq!(back.seq, u64::MAX);
        assert_eq!(back.index, u64::MAX - 1);
    }

    #[test]
    fn non_finite_encodes_as_null_and_parses_as_nan() {
        for &v in &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = ev(1, EventKind::Gauge, "g", 0, v);
            assert!(e.to_json().ends_with("\"value\":null}"));
            let back = parse_line(&e.to_json()).unwrap();
            assert!(back.value.is_nan());
        }
    }

    #[test]
    fn name_escaping_roundtrips() {
        let e = ev(2, EventKind::Counter, "we\"ird\\na\nme\t\u{1}", 9, 3.0);
        let back = parse_line(&e.to_json()).unwrap();
        assert_eq!(back.name, e.name);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"seq\":1}").is_err(), "missing fields");
        assert!(
            parse_line(
                "{\"seq\":1,\"kind\":\"gauge\",\"name\":\"n\",\"index\":0,\"value\":1,\"x\":2}"
            )
            .is_err(),
            "unknown key"
        );
        assert!(
            parse_line("{\"seq\":1,\"kind\":\"nope\",\"name\":\"n\",\"index\":0,\"value\":1}")
                .is_err(),
            "unknown kind"
        );
        // A `\u` escape takes exactly four hex digits, with no sign.
        for name in ["a\\u+041b", "a\\u004gb", "a\\u04"] {
            let line = format!(
                "{{\"seq\":1,\"kind\":\"gauge\",\"name\":\"{name}\",\"index\":0,\"value\":1}}"
            );
            assert!(parse_line(&line).is_err(), "{name} parsed");
        }
    }

    #[test]
    fn parse_jsonl_skips_blank_lines() {
        let a = ev(0, EventKind::SpanEnter, "t", 0, 0.0);
        let b = ev(1, EventKind::SpanExit, "t", 0, 42.0);
        let doc = format!("{}\n\n{}\n", a.to_json(), b.to_json());
        let got = parse_jsonl(&doc).unwrap();
        assert_eq!(got, vec![a, b]);
    }
}
