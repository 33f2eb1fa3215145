//! The workspace's one JSON codec (it builds offline, so there is no
//! serde): every artifact is written and read through this module.
//!
//! Writers own their layout; the free functions here own every format
//! decision: the escaper ([`push_string`]), the pinned float codec
//! ([`push_f64`], shortest round-trip, with `NaN`/`inf` tokens), its
//! strict-JSON variant ([`push_f64_or_null`]), integers, and the array
//! and object delimiters. The reader, [`parse_json`], returns a
//! [`JsonValue`] whose typed getters ([`JsonValue::u64_at`], …) word
//! every artifact reader's errors the same way, and it refuses nesting
//! deeper than [`MAX_DEPTH`] instead of overflowing the stack.

use std::fmt::Write as _;

// ------------------------------------------------------------ writing

/// Appends `s` as a quoted JSON string literal: quote, backslash and
/// control characters escaped, everything else verbatim.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Shortest-roundtrip `f64` — **the** pinned float→text codec for every
/// artifact the workspace writes: `{}` prints a representation that
/// parses back to the identical bits (the `float-fmt` check in
/// `tests/determinism_lint.rs` points artifact writers here). Non-finite
/// values render as the extension tokens `NaN`/`inf`/`-inf`, which
/// [`parse_json`] accepts.
pub fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{v}");
}

/// [`push_f64`] as a plain `String` (convenience for one-off renders).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// [`push_f64`] for strict-JSON artifacts: a non-finite value is `null`.
pub fn push_f64_or_null(out: &mut String, v: f64) {
    if v.is_finite() {
        push_f64(out, v);
    } else {
        out.push_str("null");
    }
}

/// Appends an unsigned integer.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends `[a,b,…]`, each item written by `push`
/// (e.g. `push_array(out, xs.iter().copied(), push_f64)`).
pub fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends `{"k":v,…}`: [`push_members`] into a fresh object.
pub fn push_object<K: AsRef<str>, V>(
    out: &mut String,
    members: impl IntoIterator<Item = (K, V)>,
    push: impl FnMut(&mut String, V),
) {
    out.push('{');
    push_members(out, members, push);
    out.push('}');
}

/// Appends `"k":v` members to the object `out` has open, each after a
/// comma unless the object is still empty: keys escaped, values written
/// by `push`.
pub fn push_members<K: AsRef<str>, V>(
    out: &mut String,
    members: impl IntoIterator<Item = (K, V)>,
    mut push: impl FnMut(&mut String, V),
) {
    for (key, value) in members {
        if !out.ends_with('{') {
            out.push(',');
        }
        push_string(out, key.as_ref());
        out.push(':');
        push(out, value);
    }
}

// ------------------------------------------------------------ reading

/// The deepest array/object nesting [`parse_json`] accepts: far above
/// the ten levels of the deepest artifact (`figures all` nests seven, a
/// workload block adds three), far below the recursive parser's stack
/// limit.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Numbers keep their **raw source token** instead of eagerly converting
/// to `f64`: `u64` counters above 2⁵³ and shortest-roundtrip floats both
/// survive exactly, each converted by the accessor that knows the target
/// type. As extensions, the parser accepts the non-finite tokens
/// `NaN` / `inf` / `-inf` (Rust's `{}` rendering of those floats).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token.
    Num(String),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (keys may repeat; first match wins).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value as a `u64`, if it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        let JsonValue::Num(tok) = self else { return None };
        tok.parse().ok()
    }

    /// The value as an `f64`: exact for shortest-roundtrip tokens, and
    /// `f64`'s parser reads the `NaN`/`inf`/`-inf` tokens too.
    pub fn as_f64(&self) -> Option<f64> {
        let JsonValue::Num(tok) = self else { return None };
        tok.parse().ok()
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        let JsonValue::Str(s) = self else { return None };
        Some(s)
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        let JsonValue::Arr(items) = self else { return None };
        Some(items)
    }

    /// The object members in source order.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        let JsonValue::Obj(members) = self else { return None };
        Some(members)
    }

    /// Member `key`, of any type.
    pub(crate) fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Member `key` converted by `convert`: with [`JsonValue::field`],
    /// the one place the typed getters word their errors.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        convert: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        convert(self.field(key)?).ok_or_else(|| format!("field {key:?} is not {what}"))
    }

    /// Member `key` as a `u64`.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a u64", JsonValue::as_u64)
    }

    /// Member `key` as a `usize`.
    pub fn usize_at(&self, key: &str) -> Result<usize, String> {
        self.typed(key, "a usize", |v| v.as_u64().and_then(|n| usize::try_from(n).ok()))
    }

    /// Member `key` as an `f64`.
    pub fn f64_at(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", JsonValue::as_f64)
    }

    /// Member `key` as a string slice.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", JsonValue::as_str)
    }

    /// Member `key` as an array slice.
    pub fn array_at(&self, key: &str) -> Result<&[JsonValue], String> {
        self.typed(key, "an array", JsonValue::as_array)
    }

    /// Member `key`'s members, in source order.
    pub fn object_at(&self, key: &str) -> Result<&[(String, JsonValue)], String> {
        self.typed(key, "an object", JsonValue::as_object)
    }
}

/// Parses one JSON document (a full line/file; trailing garbage is an
/// error). Complete enough for every artifact this repo writes, nothing
/// more; nesting deeper than [`MAX_DEPTH`] is an error.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser { src, at: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != src.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset; always on a char boundary.
    at: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.seq(b'{', b'}', Self::member).map(JsonValue::Obj),
            b'[' => self.seq(b'[', b']', Self::value).map(JsonValue::Arr),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.keyword("true", JsonValue::Bool(true)),
            b'f' => self.keyword("false", JsonValue::Bool(false)),
            b'n' => self.keyword("null", JsonValue::Null),
            b'N' => self.keyword("NaN", JsonValue::Num("NaN".into())),
            b'i' => self.keyword("inf", JsonValue::Num("inf".into())),
            _ => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.src[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
            // `-inf` extension token.
            if self.peek() == Some(b'i') {
                self.keyword("inf", JsonValue::Null)?;
                return Ok(JsonValue::Num("-inf".into()));
            }
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        if self.at == start {
            return Err(format!("expected a value at byte {start}"));
        }
        let tok = &self.src[start..self.at];
        // Validate the token now so errors surface at parse time.
        tok.parse::<f64>().map_err(|_| format!("bad number {tok:?} at byte {start}"))?;
        Ok(JsonValue::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.at += 1;
                    match self.peek().ok_or("unterminated escape")? {
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
                                .src
                                .get(self.at + 1..self.at + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                    self.at += 1;
                }
                _ => {
                    // One UTF-8 scalar; multi-byte sequences pass through.
                    let c = self.src[self.at..].chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    /// `open item (',' item)* close` or `open close`, one nesting level
    /// deeper; refuses to pass [`MAX_DEPTH`].
    fn seq<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.at));
        }
        self.eat(open)?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.at += 1,
                    Some(b) if b == close => break,
                    _ => {
                        return Err(format!(
                            "expected ',' or {:?} at byte {}",
                            close as char, self.at
                        ))
                    }
                }
            }
        }
        self.at += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn member(&mut self) -> Result<(String, JsonValue), String> {
        let key = self.string()?;
        self.skip_ws();
        self.eat(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        push_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse_json(&s).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn non_finite_values_follow_the_chosen_policy() {
        let mut s = String::new();
        push_array(&mut s, [f64::NAN, f64::INFINITY, 0.5], push_f64_or_null);
        assert_eq!(s, "[null,null,0.5]");
        s.clear();
        push_array(&mut s, [f64::NAN, f64::INFINITY, f64::NEG_INFINITY], push_f64);
        assert_eq!(s, "[NaN,inf,-inf]");
        let v = parse_json(&s).unwrap();
        let xs = v.as_array().unwrap();
        assert!(xs[0].as_f64().unwrap().is_nan());
        assert_eq!(xs[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(xs[2].as_f64(), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn containers_lay_out_their_delimiters() {
        let mut s = String::new();
        push_object(&mut s, [("a", 1), ("b\"", 2)], push_u64);
        push_array(&mut s, Vec::<u64>::new(), push_u64);
        push_object(&mut s, [("m", "x")], push_string);
        push_object(&mut s, Vec::<(&str, u64)>::new(), push_u64);
        push_members(&mut s, [("c", 0.5)], push_f64);
        assert_eq!(s, "{\"a\":1,\"b\\\"\":2}[]{\"m\":\"x\"}{},\"c\":0.5");
    }

    #[test]
    fn parser_handles_plain_json() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"yA","c":null,"d":true}"#).unwrap();
        assert_eq!(v.array_at("a").unwrap().len(), 3);
        assert_eq!(v.array_at("a").unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.str_at("b"), Ok("x\"yA"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn typed_getters_share_one_error_wording() {
        let v = parse_json(r#"{"n":-1,"s":"x","f":1.5,"big":18446744073709551615}"#).unwrap();
        assert_eq!(v.u64_at("big"), Ok(u64::MAX));
        assert_eq!(v.f64_at("f"), Ok(1.5));
        assert_eq!(v.u64_at("gone"), Err("missing field \"gone\"".to_string()));
        assert_eq!(v.u64_at("n"), Err("field \"n\" is not a u64".to_string()));
        assert_eq!(v.str_at("f"), Err("field \"f\" is not a string".to_string()));
        assert_eq!(v.array_at("s"), Err("field \"s\" is not an array".to_string()));
        assert!(v.object_at("s").unwrap_err().contains("an object"));
        assert!(parse_json("[1]").unwrap().u64_at("n").is_err(), "arrays have no fields");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{}extra", "[1,]", "{\"a\":}", "nope", "\"\\u12\"", "\"\\u+fff\"", "-"]
        {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok(), "the cap itself is allowed");
        let err = parse_json(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let objects = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&objects).unwrap_err().contains("nesting"));
        // Far past the old stack overflow, and unterminated: still an error.
        assert!(parse_json(&"[".repeat(30_000)).unwrap_err().contains("nesting"));
    }
}
