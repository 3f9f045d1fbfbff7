//! The pull reader every [`Deserialize`](crate::Deserialize) impl reads
//! from.
//!
//! A [`Reader`] has two inputs. JSON text is parsed as it is read: a
//! struct takes its members straight from the text, and a [`Value`] tree
//! is built only when the target type is `Value`. An existing tree is
//! walked the same way, which is how the hand-built checkpoint payloads
//! are restored (`serde::from_field` and friends).
//!
//! The text input checks everything a JSON parser checks, in members that
//! are skipped as well as in members that are read: string escapes and
//! surrogate pairs, number syntax (an integer literal must fit `i128`),
//! the `MAX_DEPTH` nesting limit, and trailing characters
//! ([`Reader::finish`]).

use std::borrow::Cow;

use crate::{Error, Value};

/// Deepest array/object nesting the text input accepts (upstream
/// serde_json's default). Nested values are read recursively, so a deeper
/// input would overflow the stack instead of failing typed.
const MAX_DEPTH: usize = 128;

/// A cursor over one JSON value: either JSON text or a [`Value`] tree.
pub struct Reader<'a> {
    /// The tree being walked; `None` reads `text` instead.
    tree: Option<&'a Value>,
    text: &'a str,
    /// Byte offset of the next unread character of `text`.
    pos: usize,
    /// Arrays and objects of `text` currently open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Read JSON text. Call [`Reader::finish`] after the value to reject
    /// trailing characters.
    pub fn from_text(text: &'a str) -> Self {
        Reader {
            tree: None,
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Walk an existing value tree.
    pub fn from_tree(v: &'a Value) -> Self {
        Reader {
            tree: Some(v),
            text: "",
            pos: 0,
            depth: 0,
        }
    }

    /// Reject anything but whitespace after the value just read.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error(format!(
                "trailing characters at byte {} of JSON input",
                self.pos
            )))
        }
    }

    /// If the next value is `null`, consume it and return true.
    #[inline]
    pub fn read_null(&mut self) -> bool {
        match self.tree {
            Some(v) => matches!(v, Value::Null),
            None => {
                self.skip_ws();
                self.eat_keyword("null")
            }
        }
    }

    /// Read a boolean.
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Bool(b) => Ok(*b),
                other => Err(expected("bool", other.kind())),
            };
        }
        self.skip_ws();
        if self.eat_keyword("true") {
            Ok(true)
        } else if self.eat_keyword("false") {
            Ok(false)
        } else {
            Err(expected("bool", self.next_kind()))
        }
    }

    /// Read an integer; float text is an error.
    #[inline]
    pub fn read_int(&mut self) -> Result<i128, Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Int(i) => Ok(*i),
                other => Err(expected("integer", other.kind())),
            };
        }
        self.skip_ws();
        if !self.at_number() {
            return Err(expected("integer", self.next_kind()));
        }
        match self.number() {
            (text, false) => parse_int(text),
            (_, true) => Err(expected("integer", "float")),
        }
    }

    /// Read a number as `f64`. Integer text converts from `i128`; `null`
    /// reads as NaN, the way the writer encodes non-finite floats.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Null => Ok(f64::NAN),
                Value::Int(i) => Ok(*i as f64),
                Value::Float(f) => Ok(*f),
                other => Err(expected("number", other.kind())),
            };
        }
        self.skip_ws();
        if self.at_number() {
            match self.number() {
                (text, true) => parse_float(text),
                (text, false) => parse_int(text).map(|i| i as f64),
            }
        } else if self.eat_keyword("null") {
            Ok(f64::NAN)
        } else {
            Err(expected("number", self.next_kind()))
        }
    }

    /// Read a string.
    pub fn read_string(&mut self) -> Result<String, Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(expected("string", other.kind())),
            };
        }
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(expected("string", self.next_kind()));
        }
        self.string().map(Cow::into_owned)
    }

    /// Read any value into a tree.
    pub fn read_value(&mut self) -> Result<Value, Error> {
        match self.tree {
            Some(v) => Ok(v.clone()),
            None => self.value(),
        }
    }

    /// Read past one value, checking it as fully as [`Reader::read_value`].
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.tree {
            Some(_) => Ok(()),
            None => self.value().map(drop),
        }
    }

    /// Read an array, handing each element's index and a reader
    /// positioned on it to `element`, which must consume the element.
    pub fn read_seq(
        &mut self,
        mut element: impl FnMut(usize, &mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Array(items) => items
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, item)| element(i, &mut Reader::from_tree(item))),
                other => Err(expected("array", other.kind())),
            };
        }
        if !self.open(b'[', "array")? {
            return Ok(());
        }
        let mut i = 0;
        loop {
            element(i, self)?;
            i += 1;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// Read an object, handing each member's key and a reader positioned
    /// on its value to `member`, which must consume the value. Members
    /// come in input order, duplicates included.
    pub fn read_map(
        &mut self,
        mut member: impl FnMut(&str, &mut Reader<'a>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if let Some(v) = self.tree {
            return match v {
                Value::Object(pairs) => pairs
                    .iter()
                    .try_for_each(|(k, m)| member(k, &mut Reader::from_tree(m))),
                other => Err(expected("object", other.kind())),
            };
        }
        if !self.open(b'{', "object")? {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            member(&key, self)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Read an externally tagged enum of type `name`: a string is a unit
    /// variant, `variant(tag, None)`; an object of exactly one member is
    /// any other variant, `variant(tag, Some(payload))`.
    pub fn read_variant<T>(
        &mut self,
        name: &str,
        variant: impl FnOnce(&str, Option<&mut Reader<'a>>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let not_a_variant = |kind: &str| Error(format!("expected {name} variant, got {kind}"));
        if let Some(v) = self.tree {
            return match v {
                Value::Str(tag) => variant(tag, None),
                Value::Object(pairs) if pairs.len() == 1 => {
                    variant(&pairs[0].0, Some(&mut Reader::from_tree(&pairs[0].1)))
                }
                other => Err(not_a_variant(other.kind())),
            };
        }
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                let tag = self.string()?;
                variant(&tag, None)
            }
            Some(b'{') => {
                if !self.open(b'{', "object")? {
                    return Err(not_a_variant("an empty object"));
                }
                let tag = self.key()?;
                let out = variant(&tag, Some(self))?;
                if self.more(b'}')? {
                    return Err(not_a_variant("an object of several members"));
                }
                Ok(out)
            }
            _ => Err(not_a_variant(self.next_kind())),
        }
    }

    // ---- Text input ----

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
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

    #[inline]
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    #[inline]
    fn at_number(&self) -> bool {
        matches!(self.peek(), Some(b'-' | b'0'..=b'9'))
    }

    /// What the next value is, for error messages.
    fn next_kind(&self) -> &'static str {
        match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "an unexpected character",
            None => "the end of JSON input",
        }
    }

    /// The next value, as a tree.
    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                if self.open(b'[', "array")? {
                    loop {
                        items.push(self.value()?);
                        if !self.more(b']')? {
                            break;
                        }
                    }
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                if self.open(b'{', "object")? {
                    loop {
                        let key = self.key()?.into_owned();
                        pairs.push((key, self.value()?));
                        if !self.more(b'}')? {
                            break;
                        }
                    }
                }
                Ok(Value::Object(pairs))
            }
            Some(b'-' | b'0'..=b'9') => match self.number() {
                (text, true) => parse_float(text).map(Value::Float),
                (text, false) => parse_int(text).map(Value::Int),
            },
            Some(c) => Err(Error(format!(
                "unexpected character {:?} at byte {} of JSON input",
                c as char, self.pos
            ))),
            None => Err(Error("unexpected end of JSON input".to_string())),
        }
    }

    /// Enter the array or object (`open` is `[` or `{`) that must come
    /// next, one nesting level deeper. False when it is empty, in which
    /// case it is already closed again.
    fn open(&mut self, open: u8, what: &str) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek() != Some(open) {
            return Err(expected(what, self.next_kind()));
        }
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "recursion limit exceeded at byte {} of JSON input",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let close = if open == b'[' { b']' } else { b'}' };
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element or member: true past a `,`, false past the
    /// `close` that ends the array or object.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(Error(format!(
                "expected ',' or '{}' at byte {} of JSON input",
                close as char, self.pos
            ))),
        }
    }

    /// A member key and its `:`.
    fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(key)
    }

    /// Scan a number token: its text, and whether it is float-typed (has
    /// a fraction, an exponent or a sign past the first character).
    #[inline]
    fn number(&mut self) -> (&'a str, bool) {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start + usize::from(bytes[start] == b'-');
        let mut is_float = false;
        while let Some(&b) = bytes.get(end) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        // The token is ASCII, so both ends are character boundaries.
        (&self.text[start..end], is_float)
    }

    /// A string. Borrowed from the input unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let text: &'a str = self.text;
        let bytes = text.as_bytes();
        let mut out: Option<String> = None;
        loop {
            // Everything up to the next quote or backslash is one run.
            // Both stop bytes are ASCII, so the run is whole characters.
            let start = self.pos;
            let rest = &bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = &text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
                _ => return Err(Error("unexpected end of JSON input in string".to_string())),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = self
            .peek()
            .ok_or_else(|| Error("unexpected end of JSON input in string escape".to_string()))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if !self.eat_keyword("\\u") {
                        return Err(Error("unpaired surrogate in JSON string".to_string()));
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
                char::from_u32(code)
                    .ok_or_else(|| Error(format!("invalid unicode escape U+{code:04X}")))?
            }
            other => return Err(Error(format!("invalid string escape \\{}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let bytes = self.text.as_bytes();
        if self.pos + 4 > bytes.len() {
            return Err(Error("truncated \\u escape in JSON string".to_string()));
        }
        let hex = std::str::from_utf8(&bytes[self.pos..self.pos + 4])
            .map_err(|_| Error("invalid \\u escape".to_string()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error(format!("invalid \\u escape {hex:?}")))
    }
}

fn expected(what: &str, got: &str) -> Error {
    Error(format!("expected {what}, got {got}"))
}

fn parse_int(text: &str) -> Result<i128, Error> {
    text.parse()
        .map_err(|_| Error(format!("invalid number {text:?}")))
}

fn parse_float(text: &str) -> Result<f64, Error> {
    text.parse()
        .map_err(|_| Error(format!("invalid number {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_value(s: &str) -> Result<Value, Error> {
        let mut r = Reader::from_text(s);
        let v = r.read_value()?;
        r.finish().map(|()| v)
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::from_text(r#""plain" "a\nb""#);
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain")));
        r.skip_ws();
        let escaped = r.string().unwrap();
        assert!(matches!(escaped, Cow::Owned(_)));
        assert_eq!(escaped, "a\nb");
    }

    #[test]
    fn trees_and_text_read_alike() {
        let text = r#"{"a":[1,2.5,null],"b":"x","a":true}"#;
        let tree = text_value(text).unwrap();
        let mut from_text = Vec::new();
        let mut from_tree = Vec::new();
        for (r, keys) in [
            (&mut Reader::from_text(text), &mut from_text),
            (&mut Reader::from_tree(&tree), &mut from_tree),
        ] {
            r.read_map(|k, r| {
                keys.push((k.to_string(), r.read_value()?));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(from_text, from_tree);
        assert_eq!(from_text.len(), 3, "duplicates are handed over too");
    }
}
