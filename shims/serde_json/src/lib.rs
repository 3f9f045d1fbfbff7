//! Offline shim of the `serde_json` crate.
//!
//! Writes the local serde shim's [`Value`] tree as JSON text (`to_string`,
//! `to_string_pretty`, `append_value` for a tree already built, and a
//! `json!` macro covering the object/array/expression forms the workspace
//! uses), formatting every number straight into the output, and reads
//! text back with `from_str`, which hands the text to the serde shim's
//! pull [`serde::Reader`]: members decode straight into the target type,
//! and a tree is built only when the target is `Value`. That reader is the
//! one decode path: wire frames and checkpoints alike decode from text
//! into typed values. Numbers keep their
//! integer-ness where possible; non-finite floats serialize as `null` (as
//! real serde_json's `json!` does) and read back as NaN.

use std::fmt::{self, Write};

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
    write_value(&mut out, &value.to_value(), None, 0).map_err(|e| Error(e.to_string()))?;
    Ok(out)
}

/// Serialize `value` to pretty-printed JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0).map_err(|e| Error(e.to_string()))?;
    Ok(out)
}

/// Append the tree `v` to `out` as compact JSON text, the same bytes
/// [`to_string`] writes. The tree is written where it stands: `to_string`
/// would first copy it through [`Serialize::to_value`], which for a
/// `Value` is a deep clone.
pub fn append_value(out: &mut Vec<u8>, v: &Value) {
    write_value(&mut Bytes(out), v, None, 0).expect("appending to a Vec cannot fail");
}

/// A byte buffer as a `fmt::Write` sink: the writer hands it UTF-8 text.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Convert any serializable value into a [`Value`] tree (used by `json!`).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut r = serde::Reader::from_text(text);
    let v = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(v)
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

/// Write `v` into `out`, numbers formatted in place (no `String` per
/// number): integers in decimal, finite floats with `{:?}`, which keeps a
/// trailing `.0` on integral floats so the text stays float-typed across
/// a round trip.
fn write_value<W: Write>(
    out: &mut W,
    v: &Value,
    indent: Option<usize>,
    level: usize,
) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}"),
        Value::Float(f) if f.is_finite() => write!(out, "{f:?}"),
        Value::Float(_) => out.write_str("null"),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                return out.write_str("[]");
            }
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, level + 1)?;
                write_value(out, item, indent, level + 1)?;
            }
            newline_indent(out, indent, level)?;
            out.write_char(']')
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                return out.write_str("{}");
            }
            out.write_char('{')?;
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                newline_indent(out, indent, level + 1)?;
                write_string(out, k)?;
                out.write_char(':')?;
                if indent.is_some() {
                    out.write_char(' ')?;
                }
                write_value(out, item, indent, level + 1)?;
            }
            newline_indent(out, indent, level)?;
            out.write_char('}')
        }
    }
}

fn newline_indent<W: Write>(out: &mut W, indent: Option<usize>, level: usize) -> fmt::Result {
    if let Some(width) = indent {
        out.write_char('\n')?;
        for _ in 0..width * level {
            out.write_char(' ')?;
        }
    }
    Ok(())
}

fn write_string<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
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
        // The reader's limit is 128 levels, upstream serde_json's default.
        const MAX_DEPTH: usize = 128;
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{err}");
        // Deep enough to overflow a default test thread's stack without
        // the limit, also where the target type skips the value.
        let err = from_str::<Value>(&"[".repeat(100_000)).unwrap_err();
        assert!(err.0.contains("recursion limit"), "{err}");
        let err = from_str::<()>(&"[".repeat(100_000)).unwrap_err();
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

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct State<'a> {
        tick: u64,
        #[serde(default)]
        curve: std::borrow::Cow<'a, [f64]>,
        #[serde(skip_serializing_if = "Option::is_none")]
        term: Option<u64>,
    }

    #[test]
    fn skipped_members_and_borrowed_state_round_trip() {
        let curve = [0.5, 2.0];
        let mut s = State {
            tick: 3,
            curve: std::borrow::Cow::Borrowed(&curve),
            term: None,
        };
        let text = to_string(&s).unwrap();
        assert_eq!(text, r#"{"tick":3,"curve":[0.5,2.0]}"#);
        let back: State<'_> = from_str(&text).unwrap();
        assert!(matches!(back.curve, std::borrow::Cow::Owned(_)));
        assert_eq!(back, s);
        s.term = Some(9);
        let text = to_string(&s).unwrap();
        assert_eq!(text, r#"{"tick":3,"curve":[0.5,2.0],"term":9}"#);
        assert_eq!(from_str::<State<'_>>(&text).unwrap(), s);
        // `#[serde(default)]` fills a missing member.
        let bare: State<'_> = from_str(r#"{"tick":1}"#).unwrap();
        assert!(bare.curve.is_empty() && bare.term.is_none());
    }

    #[test]
    fn typed_round_trip_via_text() {
        let xs = vec![1u64, 2, 3];
        let text = to_string(&xs).unwrap();
        let back: Vec<u64> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }
}
