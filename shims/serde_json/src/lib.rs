//! Offline shim of the `serde_json` crate.
//!
//! Renders the local serde shim's [`Value`] tree to JSON text and parses it
//! back: `to_string`, `to_string_pretty`, `from_str`, and a `json!` macro
//! covering the object/array/expression forms the workspace uses. Numbers
//! keep their integer-ness where possible; non-finite floats serialize as
//! `null` (as real serde_json's `json!` does), which downstream validation
//! treats as corruption.

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON error: serialization or parse failure with a short description.
#[derive(Debug)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Serialize `value` to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize `value` to pretty-printed JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree (used by `json!`).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!(
            "trailing characters at byte {} of JSON input",
            p.pos
        )));
    }
    Ok(T::from_value(&v)?)
}

/// Build a [`Value`] from JSON-ish syntax. Supports `null`, objects with
/// literal keys, arrays, and arbitrary serializable expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $((::std::string::String::from($key), $crate::to_value(&$val))),*
        ])
    };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![$($crate::to_value(&$elem)),*])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---- Writer ----

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` keeps a trailing `.0` on integral floats, so the
                // text stays float-typed across a round trip.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- Parser ----

/// Deepest array/object nesting [`from_str`] accepts (upstream
/// serde_json's default). Arrays and objects parse recursively, so a
/// deeper input would overflow the stack instead of failing typed.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected {:?} at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error(format!(
                "unexpected character {:?} at byte {} of JSON input",
                c as char, self.pos
            ))),
            None => Err(Error("unexpected end of JSON input".to_string())),
        }
    }

    /// Parse an array or object one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "recursion limit exceeded at byte {} of JSON input",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error(format!(
                        "expected ',' or ']' at byte {} of JSON input",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error(format!(
                        "expected ',' or '}}' at byte {} of JSON input",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash as one
            // run. Both stop bytes are ASCII and the input is a &str, so
            // the run is whole UTF-8 characters.
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| Error("invalid UTF-8 in JSON string".to_string()))?;
            out.push_str(run);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| {
                        Error("unexpected end of JSON input in string escape".to_string())
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error(
                                        "unpaired surrogate in JSON string".to_string(),
                                    ));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error(format!(
                                        "invalid low surrogate U+{lo:04X} in JSON string"
                                    )));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or_else(|| {
                                Error(format!("invalid unicode escape U+{code:04X}"))
                            })?);
                        }
                        other => {
                            return Err(Error(format!("invalid string escape \\{}", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unexpected end of JSON input in string".to_string())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error("truncated \\u escape in JSON string".to_string()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid \\u escape".to_string()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error(format!("invalid \\u escape {hex:?}")))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".to_string()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = json!({
            "name": "bap",
            "cores": 8u32,
            "ipc": 1.25f64,
            "flags": [true, false],
            "nested": json!({"x": 1u32}),
        });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_printing_parses_back() {
        let v = json!({"a": [1u32, 2u32], "b": "x"});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn integers_stay_integers_and_floats_stay_floats() {
        assert_eq!(to_string(&Value::Int(3)).unwrap(), "3");
        assert_eq!(to_string(&Value::Float(3.0)).unwrap(), "3.0");
        let back: Value = from_str("3.0").unwrap();
        assert_eq!(back, Value::Float(3.0));
        let back: Value = from_str("3").unwrap();
        assert_eq!(back, Value::Int(3));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1F600}";
        let text = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn surrogate_pair_parses() {
        let back: String = from_str(r#""😀""#).unwrap();
        assert_eq!(back, "\u{1F600}");
    }

    #[test]
    fn escapes_on_both_sides_of_a_multibyte_run_decode() {
        // Each run of plain characters ends at an escape; the runs here
        // start and end next to 2-, 3- and 4-byte characters.
        let text = r#""\té日😀\u00e9x\"€\\""#;
        let back: String = from_str(text).unwrap();
        assert_eq!(back, "\té日😀éx\"€\\");
        let s = "\u{1}é\n日\"😀\\€\u{1f}".to_string();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn invalid_surrogate_pairs_are_typed_errors() {
        // High surrogate, then a second escape that is not a low one:
        // an ASCII letter, and a private-use character past the range.
        for text in [r#""\ud800\u0041""#, r#""\ud800\ue000""#] {
            let err = from_str::<String>(text).unwrap_err();
            assert!(err.0.contains("low surrogate"), "{text}: {err}");
        }
        let back: String = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(back, "\u{1F600}");
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{err}");
        // Deep enough to overflow a default test thread's stack without
        // the limit.
        let err = from_str::<Value>(&"[".repeat(100_000)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn typed_round_trip_via_text() {
        let xs = vec![1u64, 2, 3];
        let text = to_string(&xs).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
