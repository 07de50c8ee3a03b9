//! A small JSON value model, serializer and recursive-descent parser,
//! plus the [`ToJson`]/[`FromJson`] trait pair and the declarative
//! [`impl_json!`](crate::impl_json) macro that together replace `serde`'s derives across
//! the workspace.
//!
//! Design notes:
//!
//! * **Integers are exact.** [`Json::Int`] carries `i128`, so `u64`
//!   byte counts and histogram totals round-trip without the `f64`
//!   precision loss a naive single-number model would cause.
//! * **Object order is preserved** (insertion-ordered `Vec` of pairs),
//!   so serialised documents are deterministic and diffable.
//! * **Enum encoding matches serde's external tagging**: unit variants
//!   as `"Variant"`, struct/newtype variants as `{"Variant": ...}` —
//!   existing documents and wire messages keep their shape.
//! * **Non-finite floats serialise as `null`** and `null` parses back
//!   as NaN for float targets; JSON has no other spelling for them.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (no `.`/exponent), kept exact.
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, first match wins on lookup.
    Obj(Vec<(String, Json)>),
}

/// Error raised by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Creates an error from any message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        Self(m.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Looks up `key` on an object; `None` for other shapes or missing
    /// keys (mirrors `serde_json::Value::get`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is any number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as `i128` if it is an exact integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9.007_199_254_740_992e15 => {
                Some(*f as i128)
            }
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A one-word description of the value's shape, for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with byte offset context for malformed
    /// input, trailing garbage, or nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Compact serialisation.
    #[must_use]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialisation (two-space indent).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                out.push_str(&i.to_string());
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest round-trip form and always
                    // carries a `.0` or exponent, keeping float-ness visible.
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
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
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::msg(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_lit("null").map(|()| Json::Null),
            Some(b't') => self.eat_lit("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
                self.depth -= 1;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':' after object key")?;
                    self.skip_ws();
                    let val = self.value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            break;
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
                self.depth -= 1;
                Ok(Json::Obj(pairs))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-decode UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(self.err("truncated utf-8"));
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid utf-8")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            match text.parse::<i128>() {
                Ok(i) => Ok(Json::Int(i)),
                // Out-of-range integer literal: fall back to f64.
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid number")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------
// Trait pair
// ---------------------------------------------------------------------

/// Serialisation half of the pair (replacement for `serde::Serialize`).
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Json;
}

/// Deserialisation half (replacement for `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Rebuilds the value from a JSON tree.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on shape or range mismatches.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialises to a compact string.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_string()
}

/// Serialises to a pretty (2-space indented) string.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().pretty()
}

/// Serialises to compact UTF-8 bytes.
pub fn to_vec<T: ToJson + ?Sized>(v: &T) -> Vec<u8> {
    to_string(v).into_bytes()
}

/// Parses a document and converts it.
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

/// Parses UTF-8 bytes and converts them.
///
/// # Errors
///
/// Returns [`JsonError`] for invalid UTF-8, malformed JSON, or a shape
/// mismatch.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, JsonError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| JsonError::msg(format!("invalid utf-8: {e}")))?;
    from_str(text)
}

/// Fetches and converts an object field; a missing key is treated as
/// `null` so `Option` fields tolerate absence while anything else
/// reports "missing field".
///
/// # Errors
///
/// Returns [`JsonError`] if `v` is not an object or the field fails to
/// convert.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    let Json::Obj(_) = v else {
        return Err(JsonError::msg(format!("expected object, found {}", v.kind())));
    };
    match v.get(name) {
        Some(inner) => T::from_json(inner)
            .map_err(|e| JsonError::msg(format!("field `{name}`: {}", e.0))),
        None => T::from_json(&Json::Null)
            .map_err(|_| JsonError::msg(format!("missing field `{name}`"))),
    }
}

// ---------------------------------------------------------------------
// Blanket / primitive implementations
// ---------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(JsonError::msg(format!("expected bool, found {}", v.kind()))),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_int().ok_or_else(|| {
                    JsonError::msg(format!(
                        "expected integer, found {}", v.kind()
                    ))
                })?;
                <$t>::try_from(i).map_err(|_| {
                    JsonError::msg(format!(
                        "integer {i} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(f64::NAN), // non-finite round-trip
            _ => v
                .as_f64()
                .ok_or_else(|| JsonError::msg(format!("expected number, found {}", v.kind()))),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        f64::from_json(v).map(|f| f as f32)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(JsonError::msg(format!("expected string, found {}", v.kind()))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::msg(format!("expected array, found {}", v.kind()))),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let got = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::msg(format!("expected array of {N}, found {got}")))
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            _ => Err(JsonError::msg(format!("expected 2-tuple, found {}", v.kind()))),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 3 => Ok((
                A::from_json(&items[0])?,
                B::from_json(&items[1])?,
                C::from_json(&items[2])?,
            )),
            _ => Err(JsonError::msg(format!("expected 3-tuple, found {}", v.kind()))),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            _ => Err(JsonError::msg(format!("expected object, found {}", v.kind()))),
        }
    }
}

// ---------------------------------------------------------------------
// Declarative derive replacement
// ---------------------------------------------------------------------

/// Implements [`ToJson`] + [`FromJson`] for structs and enums without a
/// procedural macro, mirroring serde's default encodings:
///
/// ```
/// use annolight_support::impl_json;
/// use annolight_support::json::{from_str, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: i32, y: i32 }
/// impl_json!(struct Point { x, y });
///
/// #[derive(Debug, PartialEq)]
/// struct Level(u8);
/// impl_json!(newtype Level(inner));
///
/// #[derive(Debug, PartialEq)]
/// enum Mode { Auto, Fixed { level: u8 }, Scale(f64) }
/// impl_json!(enum Mode { Auto, Fixed { level }, Scale(factor) });
///
/// let p = Point { x: 3, y: -4 };
/// assert_eq!(to_string(&p), r#"{"x":3,"y":-4}"#);
/// assert_eq!(from_str::<Point>(r#"{"x":3,"y":-4}"#).unwrap(), p);
/// assert_eq!(to_string(&Mode::Auto), r#""Auto""#);
/// assert_eq!(to_string(&Mode::Fixed { level: 9 }), r#"{"Fixed":{"level":9}}"#);
/// assert_eq!(from_str::<Mode>(r#"{"Scale":1.5}"#).unwrap(), Mode::Scale(1.5));
/// assert_eq!(to_string(&Level(7)), "7");
/// ```
///
/// Unknown object fields are ignored; missing fields error unless the
/// target type is an `Option`.
#[macro_export]
macro_rules! impl_json {
    // Plain struct with named fields.
    (struct $name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::field(v, stringify!($field))?),+
                })
            }
        }
    };
    // Single-field tuple struct, serialised transparently as its inner
    // value (serde newtype convention).
    (newtype $name:ident($inner:ident)) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::json::FromJson::from_json(v).map($name)
            }
        }
    };
    // Enum: unit variants, struct variants, single-field tuple variants.
    (enum $name:ident {
        $($variant:ident
            $( { $($f:ident),+ $(,)? } )?
            $( ( $tuple:ident ) )?
        ),+ $(,)?
    }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                #[allow(unreachable_patterns)]
                match self {
                    $(
                        $name::$variant $( { $($f),+ } )? $( ( $tuple ) )? =>
                            $crate::impl_json!(
                                @enum_to $variant $( { $($f),+ } )? $( ( $tuple ) )?
                            ),
                    )+
                    _ => unreachable!("enum variant added without an impl_json! update"),
                }
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                $(
                    if let Some(r) = $crate::impl_json!(
                        @enum_from $name, $variant $( { $($f),+ } )? $( ( $tuple ) )?, v
                    ) {
                        return r;
                    }
                )+
                Err($crate::json::JsonError::msg(format!(
                    "no variant of `{}` matches {}",
                    stringify!($name),
                    v,
                )))
            }
        }
    };
    // -- helpers (not public API) --------------------------------------
    (@enum_to $variant:ident) => {
        $crate::json::Json::Str(stringify!($variant).to_string())
    };
    (@enum_to $variant:ident { $($f:ident),+ }) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::Json::Obj(vec![
                $((
                    stringify!($f).to_string(),
                    $crate::json::ToJson::to_json($f),
                )),+
            ]),
        )])
    };
    (@enum_to $variant:ident ( $tuple:ident )) => {
        $crate::json::Json::Obj(vec![(
            stringify!($variant).to_string(),
            $crate::json::ToJson::to_json($tuple),
        )])
    };
    (@enum_from $name:ident, $variant:ident, $v:expr) => {
        match $v {
            $crate::json::Json::Str(s) if s == stringify!($variant) => {
                Some(Ok($name::$variant))
            }
            _ => None,
        }
    };
    (@enum_from $name:ident, $variant:ident { $($f:ident),+ }, $v:expr) => {
        match $v {
            $crate::json::Json::Obj(pairs)
                if pairs.len() == 1 && pairs[0].0 == stringify!($variant) =>
            {
                let inner = &pairs[0].1;
                Some((|| {
                    Ok($name::$variant {
                        $($f: $crate::json::field(inner, stringify!($f))?),+
                    })
                })())
            }
            _ => None,
        }
    };
    (@enum_from $name:ident, $variant:ident ( $tuple:ident ), $v:expr) => {
        match $v {
            $crate::json::Json::Obj(pairs)
                if pairs.len() == 1 && pairs[0].0 == stringify!($variant) =>
            {
                Some($crate::json::FromJson::from_json(&pairs[0].1).map($name::$variant))
            }
            _ => None,
        }
    };
}

/// Builds a [`Json`] object literal from `"key": value` pairs whose
/// values implement [`ToJson`] — the small slice of `serde_json::json!`
/// the workspace uses.
///
/// ```
/// use annolight_support::json_obj;
/// let doc = json_obj!({ "answer": 42, "label": "fig" });
/// assert_eq!(doc.to_string(), r#"{"answer":42,"label":"fig"}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ({ $($k:literal : $v:expr),* $(,)? }) => {
        $crate::json::Json::Obj(vec![
            $((
                ($k).to_string(),
                $crate::json::ToJson::to_json(&$v),
            )),*
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_documents() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12").unwrap(), Json::Int(-12));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Float(250.0));
        assert_eq!(Json::parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
        assert_eq!(
            Json::parse("[1, 2, 3]").unwrap(),
            Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Int(3)])
        );
        let obj = Json::parse(r#"{"a": 1, "b": [true, null]}"#).unwrap();
        assert_eq!(obj.get("a"), Some(&Json::Int(1)));
        assert_eq!(obj.get("b").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", r#"{"a"}"#, "tru", "01a", r#""unterminated"#, "1 2",
            "nul", "[1,]2", "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn round_trips_via_text() {
        let doc = Json::parse(
            r#"{"s":"hi é 😀","n":-3.5,"i":18446744073709551615,"a":[1,{"x":null}]}"#,
        )
        .unwrap();
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let pretty = doc.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn u64_max_survives() {
        let v = u64::MAX;
        let text = to_string(&v);
        assert_eq!(text, "18446744073709551615");
        assert_eq!(from_str::<u64>(&text).unwrap(), v);
    }

    #[test]
    fn float_formatting_round_trips() {
        for f in [0.1, 1.0, -2.5e-9, 1e300, f64::MIN_POSITIVE] {
            let text = to_string(&f);
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "{text}");
        }
        // Non-finite → null → NaN.
        let back: f64 = from_str(&to_string(&f64::INFINITY)).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn option_fields_tolerate_missing_keys() {
        #[derive(Debug, PartialEq)]
        struct S {
            a: u32,
            b: Option<u32>,
        }
        crate::impl_json!(struct S { a, b });
        assert_eq!(from_str::<S>(r#"{"a":1}"#).unwrap(), S { a: 1, b: None });
        assert_eq!(from_str::<S>(r#"{"a":1,"b":2}"#).unwrap(), S { a: 1, b: Some(2) });
        assert!(from_str::<S>(r#"{"b":2}"#).is_err(), "missing non-Option field");
        assert!(from_str::<S>("{}").is_err());
    }

    #[test]
    fn integer_range_checks_apply() {
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u8>("-1").is_err());
        assert_eq!(from_str::<i8>("-128").unwrap(), -128);
    }
}
