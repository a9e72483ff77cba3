//! The one artifact format: every JSON document `repro` writes is a
//! [`Json`] value, written by [`Json::write`] and read back by [`parse`].
//!
//! Values are integers, strings, arrays and objects whose keys keep their
//! insertion order. There are no floats, booleans or nulls, so two
//! recordings compare exactly and `parse(write(v)) == v` for every value.
//!
//! **Layout.** The top-level object, and every container directly inside
//! it, puts one element per line when it holds a container; everything
//! else is written inline. A matrix cell, a tune machine row or a tail
//! path is therefore one grep-able line.
//!
//! **Identity.** An artifact's top-level strings are its identity axes
//! ([`Json::axes`]): `schema`, `depth`, `machine`, `workload`, `check`,
//! `tail`, `causal`, and whatever a new schema adds. [`crate::diff`]
//! refuses two artifacts whose axes differ anywhere but `config`, so a
//! derived string that is not an identity must not sit at the top level.

use std::fmt::Write as _;

/// A JSON value as the artifacts use it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An integer.
    Num(i64),
    /// A string (escaped on write, unescaped on parse).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to this object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array of values, in order.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value of field `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The identity axes: every top-level string field, in document order.
    pub fn axes(&self) -> Vec<(&str, &str)> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Str(s) => Some((k.as_str(), s.as_str())),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// The artifact text: this value in the one layout, newline-terminated.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_at(0, &mut out);
        out.push('\n');
        out
    }

    fn write_at(&self, depth: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(n) => {
                let _ = write!(out, "{n}");
                return;
            }
            Json::Str(s) => return write_str(s, out),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let broken = depth < 2
            && items
                .iter()
                .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let indent = |out: &mut String, d: usize| {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        };
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if broken { "," } else { ", " });
            }
            if broken {
                indent(out, depth + 1);
            }
            if let Some(k) = key {
                write_str(k, out);
                out.push_str(": ");
            }
            v.write_at(depth + 1, out);
        }
        if broken {
            indent(out, depth);
        }
        out.push(close);
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    /// # Panics
    ///
    /// Panics above `i64::MAX`: artifact integers are signed 64-bit so a
    /// diff can subtract any two of them.
    fn from(n: u64) -> Json {
        Json::Num(i64::try_from(n).expect("artifact integers fit in i64"))
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(i64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

/// Parses one artifact document (trailing bytes other than whitespace are
/// an error, and so is a float).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    if p.peek().is_some() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                let fields = self.seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => Ok(Json::Arr(self.seq(b'[', b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("invalid utf-8")),
                b'\\' => {
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    let ch = match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            hex
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not valid in repro artifacts"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::object()
            .field("schema", "mmu-tricks-matrix-v1")
            .field("depth", "quick")
            .field("n", 7u64)
            .field("rows", Json::arr([Json::obj([("a", 1i64), ("b", -2i64)])]))
            .field("flat", Json::obj([("x", 1u32)]))
    }

    #[test]
    fn layout_breaks_the_top_two_levels_only_around_containers() {
        assert_eq!(
            sample().write(),
            "{\n  \"schema\": \"mmu-tricks-matrix-v1\",\n  \"depth\": \"quick\",\n  \
             \"n\": 7,\n  \"rows\": [\n    {\"a\": 1, \"b\": -2}\n  ],\n  \
             \"flat\": {\"x\": 1}\n}\n"
        );
        assert_eq!(Json::arr(Vec::<Json>::new()).write(), "[]\n");
    }

    #[test]
    fn axes_are_the_top_level_strings() {
        assert_eq!(
            sample().axes(),
            vec![("schema", "mmu-tricks-matrix-v1"), ("depth", "quick")]
        );
        assert!(Json::Num(1).axes().is_empty());
        assert_eq!(sample().get("n"), Some(&Json::Num(7)));
        assert_eq!(sample().get("missing"), None);
        assert_eq!(Json::Num(1).get("n"), None);
    }

    #[test]
    fn parser_reads_escapes_and_rejects_floats_and_garbage() {
        let v = parse(r#"{"s": "a\"b\\c\nd\u0001\/"}"#).unwrap();
        assert_eq!(v, Json::obj([("s", "a\"b\\c\nd\u{1}/")]));
        assert_eq!(parse(&sample().write()).unwrap(), sample());
        assert!(parse("{\"x\": 1.5}").is_err());
        assert!(parse("{\"x\": 1e5}").is_err());
        assert!(parse("{\"x\": 1} trailing").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("").is_err());
    }
}
