//! A minimal hand-rolled JSON writer and reader (the workspace is
//! hermetic — no serde). Only what the artifacts need: objects, arrays,
//! strings, and numbers. Non-finite numbers serialize as `null`;
//! [`parse`] inverts [`Json`]'s output exactly (floats are written in
//! shortest round-trip notation and re-parsed with correct rounding, so
//! values survive bit-exactly). [`document`] lays out the
//! one-row-per-line artifacts and [`write_file`] is the one place any
//! artifact touches the filesystem.

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

impl Json {
    /// An array of unsigned integers (seed lists).
    #[must_use]
    pub fn ints(values: &[u64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Int(v)).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => write_fields(f, fields.iter().map(|(k, v)| (*k, v))),
            Json::Map(fields) => write_fields(f, fields.iter().map(|(k, v)| (k.as_str(), v))),
        }
    }
}

fn write_fields<'a>(
    f: &mut fmt::Formatter<'_>,
    fields: impl Iterator<Item = (&'a str, &'a Json)>,
) -> fmt::Result {
    f.write_str("{")?;
    for (i, (k, v)) in fields.enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        write_escaped(f, k)?;
        write!(f, ":{v}")?;
    }
    f.write_str("}")
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

/// Renders the row-per-line artifact layout: the `head` fields, then one
/// more field `key` holding `rows` as an array with one row per line, so
/// checked-in artifacts diff cleanly. The result ends in a newline.
#[must_use]
pub fn document(
    head: Vec<(&'static str, Json)>,
    key: &'static str,
    rows: impl IntoIterator<Item = Json>,
) -> String {
    let mut out = String::from("{");
    for (k, v) in head {
        out.push_str(&format!("{}:{v},", Json::Str(k.to_string())));
    }
    let rows: Vec<String> = rows.into_iter().map(|row| format!("\n{row}")).collect();
    out.push_str(&format!(
        "{}:[{}\n]}}\n",
        Json::Str(key.to_string()),
        rows.join(",")
    ));
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
    /// Object field lookup (first match).
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

/// Looks up a required object field, naming `what` in the error.
///
/// # Errors
///
/// Returns a message when the field is absent.
pub fn field<'a>(v: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    v.get(key)
        .ok_or_else(|| format!("{what}: missing field {key:?}"))
}

/// A required string field.
///
/// # Errors
///
/// Returns a message when the field is absent or not a string.
pub fn str_field(v: &JsonValue, key: &str, what: &str) -> Result<String, String> {
    field(v, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what}: field {key:?} is not a string"))
}

/// A required numeric field.
///
/// # Errors
///
/// Returns a message when the field is absent or not a number.
pub fn f64_field(v: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    field(v, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: field {key:?} is not a number"))
}

/// A required exact-unsigned-integer field.
///
/// # Errors
///
/// Returns a message when the field is absent or not an unsigned integer.
pub fn u64_field(v: &JsonValue, key: &str, what: &str) -> Result<u64, String> {
    field(v, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what}: field {key:?} is not an unsigned integer"))
}

/// A required array field.
///
/// # Errors
///
/// Returns a message when the field is absent or not an array.
pub fn arr_field<'a>(v: &'a JsonValue, key: &str, what: &str) -> Result<&'a [JsonValue], String> {
    field(v, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: field {key:?} is not an array"))
}

/// A required array-of-unsigned-integers field (seed lists).
///
/// # Errors
///
/// Returns a message when the field is absent or not such an array.
pub fn u64s_field(v: &JsonValue, key: &str, what: &str) -> Result<Vec<u64>, String> {
    arr_field(v, key, what)?
        .iter()
        .map(|s| s.as_u64())
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| format!("{what}: field {key:?} holds a non-integer"))
}

/// Parses a JSON document (full value, trailing whitespace only).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
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
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
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
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // The writer never splits surrogate pairs; reject
                            // lone surrogates rather than guessing.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
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
    fn parser_unescapes_strings() {
        assert_eq!(parse(r#""a\nb\tA\\""#).unwrap().as_str(), Some("a\nb\tA\\"));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }
}
