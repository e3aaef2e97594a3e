//! A minimal hand-rolled JSON writer and reader (the workspace is
//! hermetic — no serde). Only what the artifacts need: objects, arrays,
//! strings, and numbers. Non-finite numbers serialize as `null`;
//! [`parse`] inverts [`Json`]'s output exactly (floats are written in
//! shortest round-trip notation and re-parsed with correct rounding, so
//! values survive bit-exactly), and refuses repeated keys and nesting
//! deeper than 128 levels. [`document`] lays out the one-row-per-line
//! artifacts and [`write_file`] is the one place any artifact touches the
//! filesystem.
//!
//! The artifact records (`gcs-campaign/v1`, `gcs-baseline/v2`,
//! `gcs-engine-bench/v1`) are declared once each with the crate-private
//! `record!` macro, which derives both directions from one field list.

use std::fmt;
use std::path::Path;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (written via `f64`'s shortest round-trip formatting;
    /// NaN/infinite values become `null`).
    Num(f64),
    /// An unsigned integer (written without a decimal point).
    Int(u64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with compile-time keys.
    Obj(Vec<(&'static str, Json)>),
    /// An object with run-time keys (tolerance tables, metric maps).
    Map(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Null | Json::Num(_) => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_list(f, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_list(f, "{}", fields.iter().map(|(k, v)| (Some(*k), v))),
            Json::Map(fields) => write_list(f, "{}", fields.iter().map(|(k, v)| (Some(&**k), v))),
        }
    }
}

/// Writes array elements or object fields (when keyed) comma-separated
/// between the two `brackets`.
fn write_list<'a>(
    f: &mut fmt::Formatter<'_>,
    brackets: &str,
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    f.write_str(&brackets[..1])?;
    for (i, (key, v)) in items.enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if let Some(key) = key {
            write_escaped(f, key)?;
            f.write_str(":")?;
        }
        write!(f, "{v}")?;
    }
    f.write_str(&brackets[1..])
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Renders the row-per-line artifact layout: an object whose last field
/// is an array, written one element per line so checked-in artifacts
/// diff cleanly. The result ends in a newline.
#[must_use]
pub fn document(fields: Vec<(&'static str, Json)>) -> String {
    let mut out = String::from("{");
    let last = fields.len().saturating_sub(1);
    for (i, (key, value)) in fields.into_iter().enumerate() {
        out.push_str(&format!("{}:", Json::Str(key.to_string())));
        match value {
            Json::Arr(rows) if i == last => {
                let rows: Vec<String> = rows.iter().map(|row| format!("\n{row}")).collect();
                out.push_str(&format!("[{}\n]", rows.join(",")));
            }
            value => out.push_str(&value.to_string()),
        }
        out.push(if i == last { '}' } else { ',' });
    }
    out.push('\n');
    out
}

/// Writes `text` at `path`, replacing what is there, after creating the
/// parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// A parsed JSON value — the reader-side counterpart of [`Json`], with
/// owned object keys (the writer's are static).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with a fraction, exponent, or sign.
    Num(f64),
    /// A bare unsigned integer, kept exact (u64 seeds and counters do
    /// not survive a trip through `f64`).
    Int(u64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup ([`parse`] refuses repeated keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one (exact integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Declared records
// ---------------------------------------------------------------------

/// A value that can fill one field of a declared record: how it is
/// written, and how it is read back. A read error is a bare phrase
/// (`not a number`) that the record prefixes with its name and the key.
pub(crate) trait Field: Sized {
    /// The value as JSON.
    fn write(&self) -> Json;
    /// The value back from JSON.
    fn read(v: &JsonValue) -> Result<Self, String>;
}

/// Scalars: written as one [`Json`] variant, read back through one
/// [`JsonValue`] accessor.
macro_rules! scalar {
    ($($ty:ty: $variant:ident, $get:ident, $expected:literal;)+) => {$(
        impl Field for $ty {
            fn write(&self) -> Json {
                Json::$variant(self.to_owned())
            }
            fn read(v: &JsonValue) -> Result<Self, String> {
                v.$get().map(<$ty>::from).ok_or_else(|| $expected.to_string())
            }
        }
    )+};
}

scalar! {
    String: Str, as_str, "not a string";
    u64: Int, as_u64, "not an unsigned integer";
    f64: Num, as_f64, "not a number";
}

impl Field for usize {
    fn write(&self) -> Json {
        Json::Int(*self as u64)
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        usize::try_from(u64::read(v)?).map_err(|e| e.to_string())
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(Field::write).collect())
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| "not an array".to_string())?;
        let item = |(i, x)| T::read(x).map_err(|e| format!("item {i}: {e}"));
        items.iter().enumerate().map(item).collect()
    }
}

/// A pair is a two-element array (`[t, skew]` trajectory points).
impl<A: Field, B: Field> Field for (A, B) {
    fn write(&self) -> Json {
        Json::Arr(vec![self.0.write(), self.1.write()])
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::read(a)?, B::read(b)?)),
            _ => Err("not a two-element array".to_string()),
        }
    }
}

/// Declares a record: one `"key" => field` entry per JSON key, in
/// document order, from which both its [`Field`] writer and reader are
/// generated (keys the list does not name are ignored on reading). The
/// field's type says how it is written; `_ => field` flattens a nested
/// record's keys into this object, and `"key" => field with(write,
/// read)` gives one field its own codec. Errors name the record by its
/// `as` name and, when its first key holds a string, by that string.
macro_rules! record {
    (@write $value:expr, _) => {
        $crate::json::fields_of(&$value)
    };
    (@write $value:expr, $key:literal) => {
        vec![($key, $crate::json::Field::write(&$value))]
    };
    (@write $value:expr, $key:literal, $write:expr) => {
        vec![($key, $write(&$value))]
    };
    (@read $v:ident, $what:ident, _) => {
        $crate::json::Field::read($v).map_err(|e| format!("{}: {e}", $what()))
    };
    (@read $v:ident, $what:ident, $key:literal) => {
        $crate::json::field($v, $key, &$what, $crate::json::Field::read)
    };
    (@read $v:ident, $what:ident, $key:literal, $read:expr) => {
        $crate::json::field($v, $key, &$what, $read)
    };
    (@id $first:literal $($rest:tt)*) => { Some($first) };
    (@id $($rest:tt)*) => { None };
    ($ty:ident as $name:literal {
        $($key:tt => $field:ident $(with($write:expr, $read:expr))?),+ $(,)?
    }) => {
        impl $crate::json::Field for $ty {
            fn write(&self) -> $crate::json::Json {
                let fields = [$($crate::json::record!(@write self.$field, $key $(, $write)?)),+];
                $crate::json::Json::Obj(fields.into_iter().flatten().collect())
            }
            fn read(v: &$crate::json::JsonValue) -> Result<Self, String> {
                let $crate::json::JsonValue::Obj(_) = v else {
                    return Err("not an object".to_string());
                };
                let what = || $crate::json::context($name, v, $crate::json::record!(@id $($key)+));
                Ok($ty {
                    $($field: $crate::json::record!(@read v, what, $key $(, $read)?)?,)+
                })
            }
        }
    };
}
pub(crate) use record;

/// A declared record's fields: the entries of the object it writes.
pub(crate) fn fields_of(record: &impl Field) -> Vec<(&'static str, Json)> {
    let Json::Obj(fields) = record.write() else {
        unreachable!("a declared record writes an object")
    };
    fields
}

/// A record's name in error messages: `what`, then the string its first
/// key holds, if it holds one (`bench entry "ring-steady"`).
pub(crate) fn context(what: &str, v: &JsonValue, first_key: Option<&str>) -> String {
    let id = first_key.and_then(|k| v.get(k)?.as_str());
    id.map_or(what.to_string(), |id| format!("{what} {id:?}"))
}

/// Reads field `key` of a record with `read`, naming the record and the
/// key in the error.
pub(crate) fn field<T>(
    v: &JsonValue,
    key: &str,
    what: &dyn Fn() -> String,
    read: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<T, String> {
    let value = v
        .get(key)
        .ok_or_else(|| format!("{}: missing field {key:?}", what()))?;
    read(value).map_err(|e| format!("{}: field {key:?}: {e}", what()))
}

/// The key of every artifact document's format tag.
const FORMAT: &str = "format";

/// An artifact document's fields: its `format` tag, then the record's.
pub(crate) fn tagged(format: &str, record: &impl Field) -> Vec<(&'static str, Json)> {
    let tag = (FORMAT, Json::Str(format.to_string()));
    std::iter::once(tag).chain(fields_of(record)).collect()
}

/// An artifact document's `format` tag.
pub(crate) fn format_tag(doc: &JsonValue) -> Result<String, String> {
    field(doc, FORMAT, &|| "artifact".to_string(), String::read)
}

/// Reads a parsed artifact document of `format` as its declared record.
pub(crate) fn read_tagged<R: Field>(doc: &JsonValue, format: &str) -> Result<R, String> {
    let tag = format_tag(doc)?;
    if tag != format {
        return Err(format!("expected format {format:?}, got {tag:?}"));
    }
    R::read(doc)
}

/// Parses a JSON document (full value, trailing whitespace only).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Reader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

/// How deep arrays and objects may nest (the artifacts use four levels):
/// the reader recurses per level, so a deeper file is refused before it
/// can exhaust the stack.
const MAX_DEPTH: usize = 128;

struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Reader<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => Ok(JsonValue::Arr(self.items(b']', Self::value)?)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut keys = std::collections::HashSet::new();
        let fields = self.items(b'}', |r| {
            let at = r.pos;
            let key = r.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("repeated key {key:?} at byte {at}"));
            }
            r.skip_ws();
            r.eat(b':')?;
            r.skip_ws();
            Ok((key, r.value()?))
        })?;
        Ok(JsonValue::Obj(fields))
    }

    /// The comma-separated items of the array or object opening at the
    /// cursor, through its `close` byte; one more level of nesting.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.bytes.get(self.pos) != Some(&close) {
            loop {
                self.skip_ws();
                items.push(item(self)?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(&c) if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(char::from(c)),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self.text.get(self.pos..self.pos + 4);
                            let hex = hex.ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The writer never splits surrogate pairs; reject
                            // lone surrogates rather than guessing.
                            let c = char::from_u32(code);
                            out.push(c.ok_or_else(|| self.err("surrogate \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Everything up to the next quote or escape passes
                    // through verbatim (both are ASCII, so the cut is a
                    // char boundary).
                    let start = self.pos;
                    while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let numeric = |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        while self.bytes.get(self.pos).is_some_and(numeric) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // Bare unsigned integers stay exact (the writer emits u64 seeds
        // and counters without a decimal point).
        if !text.contains(['.', 'e', 'E', '-', '+']) {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
        if v.is_finite() {
            Ok(JsonValue::Num(v))
        } else {
            Err(format!("non-finite number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::Obj(vec![
            ("name", Json::Str("churn \"storm\"".to_string())),
            ("runs", Json::Int(4)),
            ("mean", Json::Num(0.25)),
            ("bad", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Num(1.5), Json::Null])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"churn \"storm\"","runs":4,"mean":0.25,"bad":null,"ok":true,"xs":[1.5,null]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\nb\t\u{1}".to_string());
        assert_eq!(v.to_string(), "\"a\\nb\\t\\u0001\"");
    }

    #[test]
    fn integers_have_no_decimal_point() {
        assert_eq!(Json::Num(4.0).to_string(), "4");
        assert_eq!(Json::Int(0).to_string(), "0");
    }

    #[test]
    fn parser_inverts_the_writer() {
        let v = Json::Obj(vec![
            ("name", Json::Str("churn \"storm\"\nline".to_string())),
            ("runs", Json::Int(4)),
            ("mean", Json::Num(0.1 + 0.2)),
            ("tiny", Json::Num(1.0e-300)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::Num(-1.5), Json::Int(7)])),
        ]);
        let parsed = parse(&v.to_string()).unwrap();
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("churn \"storm\"\nline")
        );
        assert_eq!(parsed.get("runs").unwrap().as_u64(), Some(4));
        assert_eq!(parsed.get("mean").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(parsed.get("tiny").unwrap().as_f64(), Some(1.0e-300));
        assert_eq!(parsed.get("none"), Some(&JsonValue::Null));
        let xs = parsed.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_f64(), Some(-1.5));
        assert_eq!(xs[1].as_u64(), Some(7));
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            parse(" { \"a\" : [ 1 , 2 ] } \n")
                .unwrap()
                .get("a")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1e999").is_err(), "non-finite numbers are rejected");
    }

    #[test]
    fn parser_bounds_nesting_and_names_the_offset() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        // The first bracket past the cap opens at byte 128.
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 levels at byte 128");
        // Far deeper files fail the same way instead of overflowing the stack.
        assert_eq!(parse(&"[".repeat(1_000_000)).unwrap_err(), err);
        let objects = format!("{}0", "{\"a\":".repeat(MAX_DEPTH + 1));
        assert!(parse(&objects).unwrap_err().starts_with("nesting deeper"));
    }

    #[test]
    fn parser_rejects_a_repeated_key_naming_it() {
        let err = parse(r#"{"a":1,"b":2,"a":3}"#).unwrap_err();
        assert_eq!(err, "repeated key \"a\" at byte 13");
        // One key per object: siblings and nested objects may reuse it.
        assert!(parse(r#"[{"a":1},{"a":{"a":2}}]"#).is_ok());
    }

    #[test]
    fn parser_unescapes_strings() {
        assert_eq!(parse(r#""a\nb\tA\\""#).unwrap().as_str(), Some("a\nb\tA\\"));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }
}
